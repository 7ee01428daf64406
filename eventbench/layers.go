package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"janus/internal/check"
	"janus/internal/core"
	"janus/internal/dataplane"
	"janus/internal/runtime"
	"janus/internal/topo"
)

// layers collects the per-layer measurements of a traced pass. Every
// number comes from a public call on the inputs the program used for that
// operation: the journal wrapper, the recompile observer, Result.Stats, or
// a replay of a pure or read-only call right after the operation.
type layers struct {
	tr      *Tracer
	adapter *dataplane.GraphAdapter

	prevRes   *core.Result
	prevRules []dataplane.Rule
	prevM     runtime.Metrics
	m0        runtime.Metrics

	deltaMS, fullMS, affected       []float64
	lpIters, lpRefactors, milpNodes []float64
	degraded                        int
	depindexMS, auditMS             []float64
	compileMS, planMS, applyMS      []float64
	rulesChanged                    []float64
	fastCompileMS                   []float64
}

func newLayers(tr *Tracer, s *session) *layers {
	l := &layers{tr: tr, adapter: dataplane.NewGraphAdapter(s.cg)}
	l.prevRes = s.rt.Current()
	l.prevRules = dataplane.CompileRules(s.in.Topo, l.adapter, l.prevRes)
	l.prevM = s.rt.Metrics()
	l.m0 = l.prevM
	net := s.rt.Network()
	net.SetRecompileObserver(func(uint64, []dataplane.Rule) {
		end := time.Now()
		d := time.Duration(net.FastpathStats().LastCompileMicros * 1e3)
		l.fastCompileMS = append(l.fastCompileMS, ms(d))
		tr.child("fastpath.compile", spanCall, end.Add(-d), end)
	})
	// The set-up solve counts as a full solve.
	l.solve(s.rt.Current(), time.Now())
	return l
}

// solve records an installed result's solver statistics.
func (l *layers) solve(res *core.Result, end time.Time) {
	d := ms(res.Stats.Duration)
	name := "core.full"
	if res.Delta != nil {
		name = "core.delta"
		l.deltaMS = append(l.deltaMS, d)
		l.affected = append(l.affected, float64(res.Delta.Affected))
	} else {
		l.fullMS = append(l.fullMS, d)
	}
	l.tr.child(name, spanStats, end.Add(-res.Stats.Duration), end)
	l.lpIters = append(l.lpIters, float64(res.Stats.LPIterations))
	l.lpRefactors = append(l.lpRefactors, float64(res.Stats.Refactorizations))
	l.milpNodes = append(l.milpNodes, float64(res.Stats.Nodes))
	if res.Tier != core.TierFull {
		l.degraded++
	}
}

// after measures the layers an acknowledged operation went through.
func (l *layers) after(s *session, op Op) {
	res := s.rt.Current()
	m := s.rt.Metrics()
	defer func() { l.prevM = m }()
	if res == l.prevRes {
		return // nothing installed (counter below threshold, plain tick)
	}
	if m.StatefulReroutes == l.prevM.StatefulReroutes {
		l.solve(res, time.Now())
	}
	tp, g := s.in.Topo, s.cg
	replay := func(name string, fn func()) float64 {
		t0 := time.Now()
		fn()
		t1 := time.Now()
		l.tr.child(name, spanReplay, t0, t1)
		return ms(t1.Sub(t0))
	}
	l.depindexMS = append(l.depindexMS, replay("core.depindex", func() { core.BuildDepIndex(tp, g, res) }))
	counters := s.rt.State().Counters
	l.auditMS = append(l.auditMS, replay("check.audit", func() { check.Audit(tp, g, s.rt.Network(), res, s.rt.Hour(), counters) }))
	var rules []dataplane.Rule
	l.compileMS = append(l.compileMS, replay("dataplane.compile", func() { rules = dataplane.CompileRules(tp, l.adapter, res) }))
	// Plan and apply on a scratch network holding the pre-event rules.
	scratch := dataplane.NewNetwork(tp)
	if err := scratch.ApplyPlan(scratch.PlanUpdate(l.prevRules)); err == nil {
		var plan *dataplane.UpdatePlan
		l.planMS = append(l.planMS, replay("dataplane.plan", func() { plan = scratch.PlanUpdate(rules) }))
		var aerr error
		l.applyMS = append(l.applyMS, replay("dataplane.apply", func() { aerr = scratch.ApplyPlan(plan) }))
		if aerr == nil {
			rep := plan.Report()
			l.rulesChanged = append(l.rulesChanged, float64(rep.RulesInstalled+rep.RulesUpdated+rep.RulesRemoved))
		}
	}
	l.prevRes, l.prevRules = res, rules
}

// driftLimit caps the fresh full solve behind runtime.drift_policies: one
// simplex solve can run past the solver's own time limit, and a traced run
// must still end in time.
const driftLimit = 60 * time.Second

// capped runs a drift computation for at most driftLimit; past it the run
// reports a drift of 0 and says so on standard error.
func capped(fn func() (int, error)) (int, error) {
	type result struct {
		v   int
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := fn()
		ch <- result{v, err}
	}()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-time.After(driftLimit):
		fmt.Fprintf(os.Stderr, "eventbench: fresh full solve still running after %v; runtime.drift_policies reads 0\n", driftLimit)
		return 0, nil
	}
}

// drift is a fresh full solve's satisfied count on the final state minus
// the installed one.
func drift(s *session) (int, error) {
	b, err := json.Marshal(s.in.Topo)
	if err != nil {
		return 0, err
	}
	fresh := &topo.Topology{}
	if err := json.Unmarshal(b, fresh); err != nil {
		return 0, err
	}
	conf, err := core.New(fresh, s.cg, solverConfig)
	if err != nil {
		return 0, err
	}
	cur := s.rt.Current()
	res, err := conf.ConfigureContext(context.Background(), cur.Period)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(os.Stderr, "eventbench: fresh full solve satisfies %d (tier %s, status %s, %.0f ms); installed %d\n",
		res.SatisfiedCount(), res.Tier, res.Status, ms(res.Stats.Duration), cur.SatisfiedCount())
	return res.SatisfiedCount() - cur.SatisfiedCount(), nil
}

// runEventsTraced replays the workload twice with the same seed: once
// untraced for half the run length, for the reference configurations and
// timings, then traced over the same rounds. It reports the per-layer
// metrics, writes the spans and the self-time summary, and fails the run's
// correctness when the two passes installed different configurations.
func runEventsTraced(w eventWorkload, name string, seed int64, seconds float64, work, traceDir string) (*output, error) {
	dir, err := os.MkdirTemp(work, "store-")
	if err != nil {
		return nil, err
	}
	s, _, err := openSession(w.inputs, dir, nil)
	if err != nil {
		return nil, err
	}
	// Half the run length keeps both passes within the time a run may take.
	ref, err := runPass(s, w, seed, w.rounds(seconds/2), true, nil)
	if err != nil {
		return nil, err
	}
	_ = s.st.Close()

	tr := newTracer()
	if dir, err = os.MkdirTemp(work, "store-"); err != nil {
		return nil, err
	}
	if s, _, err = openSession(w.inputs, dir, tr); err != nil {
		return nil, err
	}
	lay := newLayers(tr, s)
	pr, err := runPass(s, w, seed, ref.rounds, true, lay)
	if err != nil {
		return nil, err
	}
	equal := len(pr.digests) == len(ref.digests)
	for i := 0; equal && i < len(pr.digests); i++ {
		equal = pr.digests[i] == ref.digests[i]
	}
	if !equal {
		fmt.Fprintf(os.Stderr, "eventbench: traced and untraced passes installed different configurations\n")
	}
	dr, err := capped(func() (int, error) { return drift(s) })
	if err != nil {
		return nil, err
	}
	m := s.rt.Metrics()
	correct := equal && pr.rejected == 0
	if err := verifyDurable(s); err != nil {
		fmt.Fprintf(os.Stderr, "eventbench: %v\n", err)
		correct = false
	}
	overhead := 100 * (pr.opTime.Seconds()/ref.opTime.Seconds() - 1)
	cpuOverhead := 100 * (sum(pr.sp.scale(pr.cpuLat))/sum(ref.sp.scale(ref.cpuLat)) - 1)
	if err := writeTrace(traceDir, tr, traceReport{
		Workload: name, Seed: seed, Operations: pr.attempted,
		UntracedOpMS: ms(ref.opTime), TracedOpMS: ms(pr.opTime), OverheadPct: overhead, CPUOverheadPct: cpuOverhead, ConfigsEqual: equal,
	}); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "eventbench: %s seed %d traced: %d operations, configurations equal: %v, tracing overhead %.1f%% wall, %.1f%% scaled CPU\n",
		name, seed, pr.attempted, equal, overhead, cpuOverhead)

	dm := m.DeltaSolves - lay.m0.DeltaSolves
	df := m.DeltaFallbacks - lay.m0.DeltaFallbacks
	hit := 0.0
	if dm+df > 0 {
		hit = float64(dm) / float64(dm+df)
	}
	j := s.journal
	acked := pr.attempted - pr.failed
	return &output{Correct: correct, Attempted: pr.attempted, Failed: pr.failed, Metrics: map[string]metric{
		"core.delta_ms":               {mean(lay.deltaMS), "ms"},
		"core.full_ms":                {mean(lay.fullMS), "ms"},
		"core.affected_policies":      {mean(lay.affected), "policies"},
		"core.delta_hit_ratio":        {hit, "ratio"},
		"core.depindex_ms":            {mean(lay.depindexMS), "ms"},
		"lp.iterations":               {mean(lay.lpIters), "count"},
		"lp.refactorizations":         {mean(lay.lpRefactors), "count"},
		"milp.nodes":                  {mean(lay.milpNodes), "count"},
		"milp.degraded_solves":        {float64(lay.degraded), "count"},
		"dataplane.compile_ms":        {mean(lay.compileMS), "ms"},
		"dataplane.plan_ms":           {mean(lay.planMS), "ms"},
		"dataplane.apply_ms":          {mean(lay.applyMS), "ms"},
		"dataplane.rules_changed":     {mean(lay.rulesChanged), "count"},
		"check.audit_ms":              {mean(lay.auditMS), "ms"},
		"fastpath.compile_ms":         {mean(lay.fastCompileMS), "ms"},
		"fastpath.lookup_ns":          {1e9 * pr.lookupTime.Seconds() / float64(pr.lookups), "ns"},
		"store.append_ms":             {mean(j.appends), "ms"},
		"store.record_kb":             {mean(j.bytes), "KiB"},
		"store.snapshot_ms":           {mean(durationsMS(s.fs.snapshots)), "ms"},
		"runtime.escalation_reroutes": {float64(m.StatefulReroutes - lay.m0.StatefulReroutes), "count"},
		"runtime.path_changes":        {float64(pr.pathChange) / float64(acked), "count"},
		"runtime.drift_policies":      {float64(dr), "policies"},
		"compose.ms":                  {mean(composeTimes(tr)), "ms"},
		"server.configure_ms":         {0, "ms"},
		"server.metrics_ms":           {0, "ms"},
	}}, nil
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// composeTimes lists the traced compose spans.
func composeTimes(tr *Tracer) []float64 {
	var out []float64
	for _, s := range tr.all() {
		if s.Name == "compose" {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}
