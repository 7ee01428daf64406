package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	goruntime "runtime"
	"time"

	"janus/internal/compose"
	"janus/internal/core"
	"janus/internal/fastpath"
	"janus/internal/policy"
	"janus/internal/runtime"
	"janus/internal/store"
)

// solverConfig is janusd's configuration with one branch-and-bound worker:
// with GOMAXPROCS workers, identical schedules installed different
// configurations from run to run.
var solverConfig = core.Config{CandidatePaths: 5, Seed: 1, Workers: 1}

// storeOptions is janusd's default snapshot cadence.
var storeOptions = store.Options{SnapshotEvery: 64}

// scrapeReads is how many counter reads one in-process scrape sample
// averages.
const scrapeReads = 10

// lookupPasses is how many times each policy flow is classified through
// the fast path after every acknowledged event.
const lookupPasses = 20

// eventWorkload is an in-process workload on a durable runtime.
type eventWorkload struct {
	inputs inputSpec
	round  RoundSpec
	// tail is the nearest-rank quantile event_cpu_ms_tail reports; minOps
	// keeps at least ten samples above it in every run.
	tail   float64
	minOps int
	// roundSeconds is a round's duration on the calibration host.
	roundSeconds float64
}

func (w eventWorkload) rounds(seconds float64) int {
	return roundsFor(seconds, w.roundSeconds, w.round.Size(), w.minOps)
}

// session is one durable runtime with its store on disk.
type session struct {
	in   *Inputs
	cg   *compose.Graph
	pids map[int]int
	rt   *runtime.Runtime
	st   *store.Store
	fs   *countingFS
	dir  string
	// journal wraps the store when tracing.
	journal *tracedJournal
}

// openSession builds a controller from nothing to its first configuration
// installed, audited and journaled, and returns what that cost.
func openSession(spec inputSpec, dir string, tr *Tracer) (*session, spent, error) {
	in, err := genInputs(spec)
	if err != nil {
		return nil, spent{}, err
	}
	s := &session{in: in, fs: newCountingFS(), dir: dir}
	start, cpu0 := time.Now(), cpuNow()
	if s.cg, err = in.composed(); err != nil {
		return nil, spent{}, err
	}
	composed := time.Now()
	conf, err := core.New(in.Topo, s.cg, solverConfig)
	if err != nil {
		return nil, spent{}, err
	}
	if s.st, err = store.Open(s.fs, dir, storeOptions); err != nil {
		return nil, spent{}, err
	}
	var j runtime.Journal = s.st
	if tr != nil {
		s.journal = &tracedJournal{st: s.st, tr: tr, fs: s.fs}
		s.fs.onSnap = s.journal.snapshot
		j = s.journal
	}
	if s.rt, err = runtime.NewDurable(context.Background(), conf, j); err != nil {
		return nil, spent{}, err
	}
	s.st.SetSnapshotSource(s.rt.State)
	took := since(start, cpu0)
	if tr != nil {
		tr.child("compose", spanCall, start, composed)
	}
	if s.pids, err = policyIndex(s.cg, in); err != nil {
		return nil, spent{}, err
	}
	return s, took, nil
}

// tracedJournal times every Store.Append and the bytes it wrote.
type tracedJournal struct {
	st      *store.Store
	tr      *Tracer
	fs      *countingFS
	cur     int // span id of the append in progress
	appends []float64
	bytes   []float64
}

func (j *tracedJournal) Append(rec *store.Record) error {
	b0 := j.fs.Written()
	start := time.Now()
	j.cur = j.tr.child("store.append", spanCall, start, start)
	err := j.st.Append(rec)
	end := time.Now()
	j.tr.setEnd(j.cur, end)
	j.cur = 0
	j.appends = append(j.appends, ms(end.Sub(start)))
	j.bytes = append(j.bytes, float64(j.fs.Written()-b0)/1024)
	return err
}

func (j *tracedJournal) snapshot(start, end time.Time) {
	parent := j.cur
	if parent == 0 {
		parent = j.tr.root
	}
	j.tr.add("store.snapshot", spanCall, parent, start, end)
}

// applyOp hands one operation to the runtime.
func applyOp(ctx context.Context, rt *runtime.Runtime, op Op) error {
	switch op.Kind {
	case OpMove:
		return rt.MoveEndpoint(ctx, op.Endpoint, op.To)
	case OpCounter:
		return rt.ReportEvent(ctx, op.Endpoint, op.Peer, policy.FailedConnections, op.Delta)
	case OpTick:
		return rt.AdvanceTo(ctx, op.Hour)
	}
	return fmt.Errorf("runtime workloads do not issue %s", op.Kind)
}

// passResult is what one pass over a schedule measured.
type passResult struct {
	rounds     int
	attempted  int
	failed     int
	rejected   int       // acknowledged, but the checker found the state wrong
	lat        []float64 // wall time of acknowledged operations
	cpuLat     []timing  // CPU time of acknowledged operations
	sp         speed
	opTime     time.Duration // every operation, wall
	ackTime    time.Duration // acknowledged operations only, wall
	lookups    int
	lookupTime time.Duration
	lookupCPU  []timing // per batch of lookupSize lookups
	lookupSize int
	scrapes    []timing
	satisfied  []float64
	digests    []string
	journalB   int64
	pathChange int
	byKind     map[OpKind][]float64 // every operation's latency, failed ones too
}

// runPass drives the schedule closed-loop for the given number of rounds.
// It checks every acknowledged state and, with lay, records the per-layer
// measurements.
func runPass(s *session, w eventWorkload, seed int64, rounds int, digest bool, lay *layers) (*passResult, error) {
	ctx := context.Background()
	gen := NewGenerator(seed, w.round, s.in)
	chk := newChecker(s.in, false)
	flows := allFlows(s.in)
	pr := &passResult{byKind: map[OpKind][]float64{}}
	pr.warmSpeed()
	b0 := s.fs.Written()
	m0 := s.rt.Metrics()
	for pr.rounds < rounds {
		ops, err := gen.Round()
		if errors.Is(err, errScheduleEnd) {
			break
		}
		if err != nil {
			return nil, err
		}
		pr.rounds++
		for _, op := range ops {
			t0 := time.Now()
			if lay != nil {
				lay.tr.startOp(pr.attempted, "op."+op.Kind.String(), t0)
			}
			c0 := cpuNow()
			err := applyOp(ctx, s.rt, op)
			c1 := cpuNow()
			t1 := time.Now()
			pr.attempted++
			pr.opTime += t1.Sub(t0)
			pr.byKind[op.Kind] = append(pr.byKind[op.Kind], ms(t1.Sub(t0)))
			chk.Apply(op)
			if lay != nil {
				lay.tr.finishOp(t1)
			}
			pr.sp.sample()
			if err != nil {
				pr.failed++
				fmt.Fprintf(os.Stderr, "eventbench: %s failed: %v\n", op, err)
				if digest {
					pr.digests = append(pr.digests, "failed")
				}
				continue
			}
			pr.ack(t1.Sub(t0), c1-c0)
			if lay != nil {
				lay.after(s, op)
			}
			pr.lookupBatch(s.rt.Network().Fastpath(), flows)
			pr.scrape(s.rt)
			res := s.rt.Current()
			pr.satisfied = append(pr.satisfied, float64(res.SatisfiedCount()))
			if digest {
				pr.digests = append(pr.digests, resultDigest(res))
			}
			if probs := chk.Check(fromResult(res, s.pids), compiledLookup(s.rt.Network().Fastpath())); len(probs) > 0 {
				pr.failed++
				pr.rejected++
				fmt.Fprintf(os.Stderr, "eventbench: state after %s is wrong: %s\n", op, summarize(probs))
			}
		}
	}
	pr.journalB = s.fs.Written() - b0
	pr.pathChange = s.rt.Metrics().PathChanges - m0.PathChanges
	return pr, nil
}

// warmSpeed takes the reference samples the first operations' windows
// reach back to.
func (pr *passResult) warmSpeed() {
	for i := 0; i < speedWindow; i++ {
		pr.sp.sample()
	}
}

// ack records an acknowledged operation's wall and CPU time; the CPU
// time's reference sample is the one just taken.
func (pr *passResult) ack(wall, cpu time.Duration) {
	pr.lat = append(pr.lat, ms(wall))
	pr.cpuLat = append(pr.cpuLat, pr.sp.now(cpu))
	pr.ackTime += wall
}

// lookupBatch classifies every policy flow lookupPasses times through the
// compiled fast path and times the batch on the CPU clock;
// lookups_per_cpu_s is the median batch rate, so a collection landing in
// one batch does not move it.
func (pr *passResult) lookupBatch(fp *fastpath.Compiled, flows [][2]string) {
	t0, c0 := time.Now(), cpuNow()
	for i := 0; i < lookupPasses; i++ {
		for _, f := range flows {
			_, _ = fp.Lookup(f[0], f[1], policy.TCP, 80)
		}
	}
	c := cpuNow() - c0
	pr.lookupTime += time.Since(t0)
	pr.lookups += lookupPasses * len(flows)
	pr.lookupSize = lookupPasses * len(flows)
	pr.lookupCPU = append(pr.lookupCPU, pr.sp.now(c))
}

// lookupRates is every batch's lookups per CPU second at the calibration
// host's speed.
func (pr *passResult) lookupRates() []float64 {
	out := pr.sp.scale(pr.lookupCPU)
	for i, m := range out {
		out[i] = float64(pr.lookupSize) / (m / 1e3)
	}
	return out
}

// scrape reads the controller's counters the way /metrics serves them, a
// Runtime.Metrics copy encoded as JSON, scrapeReads times back to back; a
// sample is the mean read's CPU time. Single reads of a few tens of
// microseconds varied with cache state more than with the program.
func (pr *passResult) scrape(rt *runtime.Runtime) {
	c0 := cpuNow()
	for i := 0; i < scrapeReads; i++ {
		if _, err := json.Marshal(rt.Metrics()); err != nil {
			return
		}
	}
	pr.scrapes = append(pr.scrapes, pr.sp.now((cpuNow()-c0)/scrapeReads))
}

func allFlows(in *Inputs) [][2]string {
	var out [][2]string
	for _, p := range in.Policies {
		out = append(out, p.Flows()...)
	}
	return out
}

// resultDigest identifies an installed configuration: its assignments,
// satisfied set and period, without wall-clock solve statistics.
func resultDigest(res *core.Result) string {
	b, err := json.Marshal(struct {
		Period     int
		Configured map[int]bool
		SlackUsed  map[int]bool
		Assigns    []core.Assignment
	}{res.Period, res.Configured, res.SlackUsed, res.Assignments})
	if err != nil {
		return "unencodable"
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// verifyDurable closes the store, reopens the directory from disk,
// restores a runtime from it and requires the restored state to equal the
// live one.
func verifyDurable(s *session) error {
	live, err := json.Marshal(s.rt.State())
	if err != nil {
		return err
	}
	if err := s.st.Close(); err != nil {
		return fmt.Errorf("durability: closing store: %w", err)
	}
	st, err := store.Open(store.OSFS(), s.dir, storeOptions)
	if err != nil {
		return fmt.Errorf("durability: reopening store: %w", err)
	}
	defer st.Close()
	state := st.RecoveredState()
	if state == nil {
		return fmt.Errorf("durability: nothing recovered")
	}
	rt, err := runtime.Restore(state, solverConfig, nil)
	if err != nil {
		return fmt.Errorf("durability: %w", err)
	}
	back, err := json.Marshal(rt.State())
	if err != nil {
		return err
	}
	if string(back) != string(live) {
		return fmt.Errorf("durability: restored state differs from the live one")
	}
	return nil
}

// heapMB is the live heap after a forced collection.
func heapMB() float64 {
	goruntime.GC()
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// runEvents is one measured run of an in-process workload.
func runEvents(w eventWorkload, name string, seed int64, seconds float64, setups int, work string) (*output, error) {
	var s *session
	var setupCosts []spent
	for i := 0; i < setups; i++ {
		dir, err := os.MkdirTemp(work, "store-")
		if err != nil {
			return nil, err
		}
		if s != nil {
			_ = s.st.Close()
		}
		var took spent
		if s, took, err = openSession(w.inputs, dir, nil); err != nil {
			return nil, err
		}
		setupCosts = append(setupCosts, took)
	}
	pr, err := runPass(s, w, seed, w.rounds(seconds), false, nil)
	if err != nil {
		return nil, err
	}
	correct := pr.rejected == 0
	if err := verifyDurable(s); err != nil {
		fmt.Fprintf(os.Stderr, "eventbench: %v\n", err)
		correct = false
	}
	if beyond(len(pr.lat), w.tail) < 10 {
		return nil, fmt.Errorf("%d acknowledged operations leave fewer than ten above p%g", len(pr.lat), 100*w.tail)
	}
	out := endToEnd(pr, setupCosts, w.tail, correct)
	goruntime.KeepAlive(s)
	fmt.Fprintf(os.Stderr, "eventbench: %s seed %d: %d rounds, %d operations, %d failed, tail is p%g\n",
		name, seed, pr.rounds, pr.attempted, pr.failed, 100*w.tail)
	pr.logKinds(setupCosts, w.tail)
	return out, nil
}

// endToEnd is a measured run's result line. Times of operations and set-up
// are CPU times: on a shared host the wall times swing with the
// neighbours' load, and logKinds prints them beside.
func endToEnd(pr *passResult, setups []spent, tail float64, correct bool) *output {
	acked := pr.attempted - pr.failed
	// Set-up CPU is scaled by the whole pass's reference samples: samples
	// taken back to back, with the reference's data still in the caches,
	// ran about a third faster than samples between operations.
	whole := pr.sp.factor(0, len(pr.sp.refs))
	var setupCPU []float64
	for _, c := range setups {
		setupCPU = append(setupCPU, c.cpu.Seconds()*whole)
	}
	cpu := pr.sp.scale(pr.cpuLat)
	return &output{Correct: correct, Attempted: pr.attempted, Failed: pr.failed, Metrics: map[string]metric{
		"setup_s":              {median(setupCPU), "s"},
		"event_cpu_ms_p50":     {median(cpu), "ms"},
		"event_cpu_ms_tail":    {percentile(cpu, tail), "ms"},
		"events_per_cpu_s":     {1e3 * float64(acked) / sum(cpu), "1/s"},
		"lookups_per_cpu_s":    {median(pr.lookupRates()), "1/s"},
		"scrape_ms_p50":        {median(pr.sp.scale(pr.scrapes)), "ms"},
		"satisfied_mean":       {mean(pr.satisfied), "policies"},
		"journal_kb_per_event": {float64(pr.journalB) / 1024 / float64(acked), "KiB"},
		"heap_mb":              {heapMB(), "MiB"},
	}}
}

// logKinds prints each operation kind's latency spread, and the wall-clock
// figures the result line leaves out, to standard error.
func (pr *passResult) logKinds(setups []spent, tail float64) {
	for k := OpKind(0); k < numOpKinds; k++ {
		if xs := pr.byKind[k]; len(xs) > 0 {
			fmt.Fprintf(os.Stderr, "  %-11s n=%-4d min %8.1f  p50 %8.1f  max %8.1f ms wall\n",
				k, len(xs), percentile(xs, 0), median(xs), percentile(xs, 1))
		}
	}
	var wall []float64
	for _, c := range setups {
		wall = append(wall, c.wall.Seconds())
		fmt.Fprintf(os.Stderr, "  setup: %.3f s wall, %.3f s CPU\n", c.wall.Seconds(), c.cpu.Seconds())
	}
	fmt.Fprintf(os.Stderr, "  wall: setup %.3f s, event p50 %.2f ms, p%g %.2f ms, %.2f events/s\n",
		median(wall), median(pr.lat), 100*tail, percentile(pr.lat, tail),
		float64(len(pr.lat))/pr.ackTime.Seconds())
	var raw []float64
	for _, c := range pr.cpuLat {
		raw = append(raw, ms(c.d))
	}
	fmt.Fprintf(os.Stderr, "  unscaled CPU: event p50 %.2f ms, p%g %.2f ms; reference p50 %.3f ms, quartiles %.3f-%.3f ms\n",
		median(raw), 100*tail, percentile(raw, tail), median(pr.sp.refs), percentile(pr.sp.refs, 0.25), percentile(pr.sp.refs, 0.75))
}
