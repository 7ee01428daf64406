package main

import (
	"math"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"janus/internal/store"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// beyond is how many of n samples lie above the nearest-rank p-quantile.
func beyond(n int, p float64) int { return n - int(math.Ceil(p*float64(n))) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuNow is the CPU time the calling thread has used so far. main locks
// its goroutine to its thread, and with one solver worker the program does
// an operation's work on the goroutine that asked for it, so this counts
// that work, the garbage collector's assists included, and leaves out what
// the collector's background workers do on the other processor. The kernel
// also leaves out time the hypervisor gave to other guests (steal), so on a
// shared host it measures the program's own work where wall time also
// measures the neighbours'.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// spent is what one piece of work cost in wall time and in CPU time.
type spent struct{ wall, cpu time.Duration }

// since returns what was spent from (wall, cpu) to now.
func since(wall time.Time, cpu time.Duration) spent {
	return spent{wall: time.Since(wall), cpu: cpuNow() - cpu}
}

// countingFS is the production file system with every byte the store
// writes counted, and every snapshot (temp-file create to rename) timed.
type countingFS struct {
	store.FS
	mu        sync.Mutex
	written   int64
	snapStart time.Time
	snapshots []time.Duration
	onSnap    func(start, end time.Time) // optional, for the trace
	// syncs times each journal append on disk (first write to fsync);
	// walWrites is the KiB each one wrote.
	syncs     []time.Duration
	walWrites []float64
}

func newCountingFS() *countingFS { return &countingFS{FS: store.OSFS()} }

func (c *countingFS) Create(name string) (store.File, error) {
	if isSnapshotTemp(name) {
		c.mu.Lock()
		c.snapStart = time.Now()
		c.mu.Unlock()
	}
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, wal: isWAL(name)}, nil
}

func (c *countingFS) OpenAppend(name string) (store.File, error) {
	f, err := c.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, wal: isWAL(name)}, nil
}

func (c *countingFS) Rename(oldName, newName string) error {
	err := c.FS.Rename(oldName, newName)
	if isSnapshotTemp(oldName) {
		end := time.Now()
		c.mu.Lock()
		start := c.snapStart
		c.snapshots = append(c.snapshots, end.Sub(start))
		c.mu.Unlock()
		if c.onSnap != nil {
			c.onSnap(start, end)
		}
	}
	return err
}

// Written returns the bytes written so far.
func (c *countingFS) Written() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.written
}

func isSnapshotTemp(name string) bool { return strings.HasSuffix(name, ".tmp") }

func isWAL(name string) bool { return strings.HasSuffix(name, ".log") }

type countingFile struct {
	store.File
	fs      *countingFS
	wal     bool
	pending time.Time // first unsynced write
	bytes   int
}

func (f *countingFile) Write(p []byte) (int, error) {
	if f.pending.IsZero() {
		f.pending = time.Now()
	}
	n, err := f.File.Write(p)
	f.bytes += n
	f.fs.mu.Lock()
	f.fs.written += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *countingFile) Sync() error {
	err := f.File.Sync()
	if f.wal && !f.pending.IsZero() {
		f.fs.mu.Lock()
		f.fs.syncs = append(f.fs.syncs, time.Since(f.pending))
		f.fs.walWrites = append(f.fs.walWrites, float64(f.bytes)/1024)
		f.fs.mu.Unlock()
	}
	f.pending, f.bytes = time.Time{}, 0
	return err
}
