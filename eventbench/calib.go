package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"strconv"
	"time"
)

// The host this benchmark runs on is shared: identical work, such as the
// same set-up solve with the same node and iteration counts, took from 0.80
// to 1.05 s of CPU time within one run, and a run's CPU times drifted by a
// quarter over a few minutes. So that a change to the program shows and
// the host's load does not, every CPU time is scaled by the host's speed
// at that moment, as a fixed reference piece of work written here, outside
// the program, measures it: a time is reported as the CPU time it would
// have taken on a host where the reference takes refNominal.

// refNominal is the reference's median CPU time on the 2-vCPU host the
// benchmark was calibrated on.
const refNominal = 1.0 // ms

// refSink keeps the reference's results alive.
var refSink int

var refKeys = func() []string {
	ks := make([]string, 2048)
	for i := range ks {
		ks[i] = "endpoint-" + strconv.Itoa(i*7919)
	}
	return ks
}()

type refRecord struct {
	Policy int
	Path   []int
	BW     float64
}

// refBuf is the reference's working memory, allocated once so that the
// reference does not depend on the collector's state.
var refBuf = struct {
	m    map[string]int
	x, y []float64
	ints []int
	recs []refRecord
	out  bytes.Buffer
}{
	m:    make(map[string]int, len(refKeys)),
	x:    make([]float64, 16384),
	y:    make([]float64, 16384),
	ints: make([]int, 4096),
	recs: make([]refRecord, 128),
}

// reference is the fixed work: string-keyed map inserts and lookups, float
// vector loops, a sort and a JSON encoding, the kinds of work an event does
// in the audit, the solver and the journal. It returns its CPU time in ms.
func reference() float64 {
	r := &refBuf
	c0 := cpuNow()
	clear(r.m)
	for i, k := range refKeys {
		r.m[k] = i
	}
	sum := 0
	for i := len(refKeys) - 1; i >= 0; i-- {
		sum += r.m[refKeys[i]]
	}
	for i := range r.x {
		r.x[i] = float64(i%97) * 0.5
		r.y[i] = 0
	}
	for pass := 0; pass < 8; pass++ {
		a := float64(pass) + 0.25
		for i := range r.y {
			r.y[i] += a * r.x[i]
		}
	}
	for i := range r.ints {
		r.ints[i] = (i * 2654435761) % 10007
	}
	sort.Ints(r.ints)
	for i := range r.recs {
		r.recs[i] = refRecord{Policy: i, Path: refPaths[i], BW: r.y[i]}
	}
	r.out.Reset()
	_ = json.NewEncoder(&r.out).Encode(r.recs)
	refSink = sum + r.ints[len(r.ints)/2] + r.out.Len()
	return ms(cpuNow() - c0)
}

var refPaths = func() [][]int {
	ps := make([][]int, 128)
	for i := range ps {
		ps[i] = []int{i, i + 1, i + 2, i + 3}
	}
	return ps
}()

// speed records reference samples through a run, in order, with the time
// each was taken.
type speed struct {
	refs []float64
	at   []time.Time
}

func (s *speed) sample() {
	if len(s.refs) == 0 {
		reference() // the first call also faults its memory in
	}
	s.refs = append(s.refs, reference())
	s.at = append(s.at, time.Now())
}

// timing is a measured time and the reference sample nearest to it.
type timing struct {
	d   time.Duration
	ref int
}

// now pairs d with the latest reference sample.
func (s *speed) now(d time.Duration) timing { return timing{d, len(s.refs) - 1} }

// nearest pairs d, measured at t, with the reference sample nearest t.
func (s *speed) nearest(d time.Duration, t time.Time) timing {
	i := sort.Search(len(s.at), func(i int) bool { return !s.at[i].Before(t) })
	if i == len(s.at) || (i > 0 && t.Sub(s.at[i-1]) < s.at[i].Sub(t)) {
		i--
	}
	return timing{d, i}
}

// speedWindow is how many reference samples on each side of a timing give
// the host speed it was measured at.
const speedWindow = 8

// factor is refNominal over the median of the reference samples from
// index lo to hi (clamped): what scales a CPU time measured among them to
// the calibration host's speed.
func (s *speed) factor(lo, hi int) float64 {
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.refs) {
		hi = len(s.refs)
	}
	if lo >= hi {
		return 1
	}
	return refNominal / median(s.refs[lo:hi])
}

// scale returns every timing in ms, scaled to the calibration host's speed
// by the reference samples within speedWindow of it.
func (s *speed) scale(ts []timing) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = ms(t.d) * s.factor(t.ref-speedWindow, t.ref+speedWindow+1)
	}
	return out
}
