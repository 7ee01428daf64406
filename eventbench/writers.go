package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"janus/internal/check"
	"janus/internal/compose"
	"janus/internal/core"
	"janus/internal/dataplane"
	"janus/internal/fastpath"
	"janus/internal/paths"
	"janus/internal/policy"
	"janus/internal/runtime"
	"janus/internal/server"
	"janus/internal/store"
	"janus/internal/topo"
)

var writersWorkload = struct {
	inputs inputSpec
	round  RoundSpec
	think  time.Duration // between two GET /metrics on the scrape connection
	// tail is the nearest-rank quantile event_cpu_ms_tail reports; minOps
	// keeps at least ten samples above it in every run.
	tail   float64
	minOps int
	// roundSeconds is a round's duration on the calibration host.
	roundSeconds float64
}{
	inputs: inputSpec{Topology: "Ans", Policies: 20, SrcsPerPolicy: 2, Escalations: true},
	round:  RoundSpec{OpUpdate: 10},
	think:  20 * time.Millisecond,
	tail:   0.9, minOps: 100,
	roundSeconds: 0.5,
}

func writerRounds(seconds float64) int {
	w := writersWorkload
	return roundsFor(seconds, w.roundSeconds, w.round.Size(), w.minOps)
}

// daemon is janusd on a loopback listener, with its store on disk.
type daemon struct {
	in   *Inputs
	srv  *server.Server
	st   *store.Store
	fs   *countingFS
	dir  string
	http *http.Server
	ln   net.Listener
	base string
	// writer and scraper are the two client connections.
	writer, scraper *http.Client
	// cpu counts the CPU time janusd spends serving writes.
	cpu *cpuHandler
	// timed wraps the handler when tracing.
	timed *timedHandler
}

// cpuHandler counts the CPU time Server.ServeHTTP spends on every request
// but GET: the handler's goroutine is locked to its thread for the request
// and that thread's CPU clock read on each side. janusd serves a request on
// that goroutine, so this is the controller's work for the writes; the
// scrape connection's GETs and the client's side are left out.
type cpuHandler struct {
	next  http.Handler
	mu    sync.Mutex
	total time.Duration
}

func (h *cpuHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		h.next.ServeHTTP(w, r)
		return
	}
	goruntime.LockOSThread()
	defer goruntime.UnlockOSThread()
	c0 := cpuNow()
	h.next.ServeHTTP(w, r)
	c := cpuNow() - c0
	h.mu.Lock()
	h.total += c
	h.mu.Unlock()
}

// spent returns the CPU time counted so far.
func (h *cpuHandler) spent() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// openDaemon starts a controller and brings it to its first configuration:
// every writer's graph PUT, then POST /configure. It returns the time from
// the empty controller to the acknowledged configuration, and the CPU time
// janusd spent on it: building the server and opening the store here, and
// serving the writes.
func openDaemon(dir string, tr *Tracer) (*daemon, spent, error) {
	in, err := genInputs(writersWorkload.inputs)
	if err != nil {
		return nil, spent{}, err
	}
	d := &daemon{in: in, fs: newCountingFS(), dir: dir, writer: newClient(), scraper: newClient()}
	if d.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, spent{}, err
	}
	d.base = "http://" + d.ln.Addr().String()
	start, cpu0 := time.Now(), cpuNow()
	if d.srv, err = server.New(in.Topo, solverConfig); err != nil {
		return nil, spent{}, err
	}
	if d.st, err = store.Open(d.fs, dir, storeOptions); err != nil {
		return nil, spent{}, err
	}
	if err := d.srv.AttachStore(d.st); err != nil {
		return nil, spent{}, err
	}
	local := cpuNow() - cpu0
	d.cpu = &cpuHandler{next: d.srv}
	var h http.Handler = d.cpu
	if tr != nil {
		d.timed = &timedHandler{next: d.cpu, tr: tr, ms: map[string][]float64{}}
		d.fs.onSnap = func(s, e time.Time) { tr.child("store.snapshot", spanCall, s, e) }
		h = d.timed
	}
	d.http = &http.Server{Handler: h}
	go d.http.Serve(d.ln)
	for _, p := range in.Policies {
		if err := d.put(p, p.BW); err != nil {
			return nil, spent{}, err
		}
	}
	if _, err := d.call(d.writer, http.MethodPost, "/configure", nil); err != nil {
		return nil, spent{}, err
	}
	return d, spent{wall: time.Since(start), cpu: local + d.cpu.spent()}, nil
}

// close stops the listener and waits for its connections.
func (d *daemon) close() {
	d.writer.CloseIdleConnections()
	d.scraper.CloseIdleConnections()
	_ = d.http.Shutdown(context.Background())
}

func (d *daemon) put(p *Policy, bw float64) error {
	body, err := json.Marshal(p.Graph(bw))
	if err != nil {
		return err
	}
	_, err = d.call(d.writer, http.MethodPut, "/graphs/"+p.Writer, body)
	return err
}

// call issues one request and returns the body of a 200 response.
func (d *daemon) call(c *http.Client, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(out)))
	}
	return out, nil
}

// configView is GET /config.
type configView struct {
	Period      int             `json:"period"`
	Satisfied   int             `json:"satisfied"`
	Configured  map[string]bool `json:"configured"`
	Assignments []struct {
		Policy int     `json:"policy"`
		Src    string  `json:"src"`
		Dst    string  `json:"dst"`
		Path   string  `json:"path"`
		BW     float64 `json:"bwMbps"`
		Role   string  `json:"role"`
	} `json:"assignments"`
}

// result rebuilds the runtime result /config describes. No counter ever
// moves on this workload, so hard assignments serve the default edge and
// reservations the escalation edge.
func (v *configView) result() (*core.Result, error) {
	res := &core.Result{Period: v.Period, Configured: map[int]bool{}, SlackUsed: map[int]bool{}}
	for k, ok := range v.Configured {
		pid, err := strconv.Atoi(k)
		if err != nil {
			return nil, err
		}
		res.Configured[pid] = ok
	}
	reserved := map[int]bool{}
	for _, a := range v.Assignments {
		var p paths.Path
		for _, f := range strings.Split(a.Path, "-") {
			n, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("path %q: %w", a.Path, err)
			}
			p.Nodes = append(p.Nodes, topo.NodeID(n))
		}
		ca := core.Assignment{Policy: a.Policy, Src: a.Src, Dst: a.Dst, Path: p, BW: a.BW}
		if a.Role != "hard" {
			ca.Role, ca.EdgeIdx = core.SoftEdge, 1
			reserved[a.Policy] = true
		}
		res.Assignments = append(res.Assignments, ca)
	}
	for pid, ok := range res.Configured {
		res.SlackUsed[pid] = ok && !reserved[pid]
	}
	return res, nil
}

// metricsView is the part of GET /metrics the traced run reads.
type metricsView struct {
	runtime.Metrics
	Fastpath dataplane.FastpathStats `json:"fastpath"`
}

// timedHandler records a span per request around Server.ServeHTTP.
type timedHandler struct {
	next http.Handler
	tr   *Tracer
	mu   sync.Mutex
	ms   map[string][]float64
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	name := "server." + strings.Trim(strings.SplitN(strings.TrimPrefix(r.URL.Path, "/"), "/", 2)[0], "/")
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ms[name] = append(h.ms[name], ms(end.Sub(start)))
	if name != "server.metrics" {
		h.tr.child(name, spanCall, start, end)
	}
}

// runWriterPass loops on the writer connection: PUT a writer's graph with a
// new bandwidth, then POST /configure; the scrape connection reads GET
// /metrics with a fixed think time until the writer stops.
//
// graphs holds every writer's current graph and is kept up to date.
func runWriterPass(d *daemon, seed int64, rounds int, digest bool, graphs []*policy.Graph, lay *writerLayers) (*passResult, error) {
	gen := NewGenerator(seed, writersWorkload.round, d.in)
	chk := newChecker(d.in, true)
	cg, err := compose.New(nil).Compose(graphs...)
	if err != nil {
		return nil, err
	}
	pids, err := policyIndex(cg, d.in)
	if err != nil {
		return nil, err
	}
	pr := &passResult{byKind: map[OpKind][]float64{}}
	pr.warmSpeed()
	stop := make(chan struct{})
	var scrapes []timing
	var scrapeAt []time.Time
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(writersWorkload.think):
			}
			t0 := time.Now()
			if _, err := d.call(d.scraper, http.MethodGet, "/metrics", nil); err == nil {
				scrapes = append(scrapes, timing{d: time.Since(t0)})
				scrapeAt = append(scrapeAt, t0)
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
		// A scrape's wall time is scaled like a CPU time: it is mostly the
		// wait for the update holding the server's lock.
		for i, sc := range scrapes {
			pr.scrapes = append(pr.scrapes, pr.sp.nearest(sc.d, scrapeAt[i]))
		}
	}()

	b0 := d.fs.Written()
	var m0 metricsView
	if err := d.getJSON("/metrics", &m0); err != nil {
		return nil, err
	}
	for pr.rounds < rounds {
		ops, err := gen.Round()
		if err != nil {
			return nil, err
		}
		pr.rounds++
		for _, op := range ops {
			p := d.in.Policies[op.Policy]
			if lay != nil {
				lay.tr.startOp(pr.attempted, "op.update", time.Now())
			}
			t0, c0 := time.Now(), d.cpu.spent()
			err := d.put(p, op.BW)
			if err == nil {
				_, err = d.call(d.writer, http.MethodPost, "/configure", nil)
			}
			c1 := d.cpu.spent()
			t1 := time.Now()
			pr.attempted++
			pr.opTime += t1.Sub(t0)
			pr.byKind[op.Kind] = append(pr.byKind[op.Kind], ms(t1.Sub(t0)))
			chk.Apply(op)
			graphs[op.Policy] = p.Graph(op.BW)
			if lay != nil {
				lay.tr.finishOp(t1)
			}
			pr.sp.sample()
			if err != nil {
				pr.failed++
				fmt.Fprintf(os.Stderr, "eventbench: %s failed: %v\n", op, err)
				continue
			}
			pr.ack(t1.Sub(t0), c1-c0)
			var view configView
			if err := d.getJSON("/config", &view); err != nil {
				return nil, err
			}
			res, err := view.result()
			if err != nil {
				return nil, err
			}
			fp, err := d.fastpath()
			if err != nil {
				return nil, err
			}
			pr.lookupBatch(fp, allFlows(d.in))
			pr.satisfied = append(pr.satisfied, float64(view.Satisfied))
			if digest {
				pr.digests = append(pr.digests, resultDigest(res))
			}
			if lay != nil {
				if err := lay.after(d, graphs, res); err != nil {
					return nil, err
				}
			}
			if probs := chk.Check(fromResult(res, pids), compiledLookup(fp)); len(probs) > 0 {
				pr.failed++
				pr.rejected++
				fmt.Fprintf(os.Stderr, "eventbench: state after %s is wrong: %s\n", op, summarize(probs))
			}
		}
	}
	pr.journalB = d.fs.Written() - b0
	var m1 metricsView
	if err := d.getJSON("/metrics", &m1); err != nil {
		return nil, err
	}
	pr.pathChange = m1.PathChanges - m0.PathChanges
	return pr, nil
}

func (d *daemon) getJSON(path string, v any) error {
	b, err := d.call(d.writer, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// fastpath compiles the rules janusd serves on GET /rules, as a switch
// agent consuming the southbound API would.
func (d *daemon) fastpath() (*fastpath.Compiled, error) {
	var bySwitch map[string][]fastpath.Rule
	if err := d.getJSON("/rules", &bySwitch); err != nil {
		return nil, err
	}
	var rules []fastpath.Rule
	for _, rs := range bySwitch {
		rules = append(rules, rs...)
	}
	return fastpath.Compile(d.in.Topo, rules, 1), nil
}

func compiledLookup(fp *fastpath.Compiled) LookupFunc {
	return func(src, dst string) ([]topo.NodeID, error) {
		p, err := fp.Lookup(src, dst, policy.TCP, 80)
		return []topo.NodeID(p), err
	}
}

// verifyDaemonDurable closes the store under the running controller, opens
// a fresh controller on the same directory and requires its GET /config to
// equal the live one's.
func verifyDaemonDurable(d *daemon) error {
	live, err := d.call(d.writer, http.MethodGet, "/config", nil)
	if err != nil {
		return err
	}
	if err := d.st.Close(); err != nil {
		return fmt.Errorf("durability: closing store: %w", err)
	}
	in, err := genInputs(writersWorkload.inputs)
	if err != nil {
		return err
	}
	srv, err := server.New(in.Topo, solverConfig)
	if err != nil {
		return err
	}
	st, err := store.Open(store.OSFS(), d.dir, storeOptions)
	if err != nil {
		return fmt.Errorf("durability: reopening store: %w", err)
	}
	defer st.Close()
	if err := srv.AttachStore(st); err != nil {
		return fmt.Errorf("durability: %w", err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/config", nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("durability: restored GET /config: %d", rec.Code)
	}
	a, err := configDigest(live)
	if err != nil {
		return err
	}
	b, err := configDigest(rec.Body.Bytes())
	if err != nil {
		return err
	}
	if a != b {
		return fmt.Errorf("durability: restored configuration differs from the live one")
	}
	return nil
}

// configDigest identifies the configuration a GET /config body describes
// (the link report's order is not part of it).
func configDigest(body []byte) (string, error) {
	var v configView
	if err := json.Unmarshal(body, &v); err != nil {
		return "", err
	}
	res, err := v.result()
	if err != nil {
		return "", err
	}
	return resultDigest(res), nil
}

// runWriters is one run of ans-writers, traced or not.
func runWriters(seed int64, seconds float64, trace bool, work, traceDir string) (*output, error) {
	if trace {
		return runWritersTraced(seed, seconds, work, traceDir)
	}
	var d *daemon
	var setupCosts []spent
	for i := 0; i < setupReps; i++ {
		dir, err := os.MkdirTemp(work, "store-")
		if err != nil {
			return nil, err
		}
		if d != nil {
			d.close()
			_ = d.st.Close()
		}
		var took spent
		if d, took, err = openDaemon(dir, nil); err != nil {
			return nil, err
		}
		setupCosts = append(setupCosts, took)
	}
	defer d.close()
	pr, err := runWriterPass(d, seed, writerRounds(seconds), false, d.in.graphs(), nil)
	if err != nil {
		return nil, err
	}
	correct := pr.rejected == 0
	if err := verifyDaemonDurable(d); err != nil {
		fmt.Fprintf(os.Stderr, "eventbench: %v\n", err)
		correct = false
	}
	if beyond(len(pr.lat), writersWorkload.tail) < 10 {
		return nil, fmt.Errorf("%d acknowledged operations leave fewer than ten above p%g", len(pr.lat), 100*writersWorkload.tail)
	}
	fmt.Fprintf(os.Stderr, "eventbench: ans-writers seed %d: %d rounds, %d operations, %d failed, %d scrapes\n",
		seed, pr.rounds, pr.attempted, pr.failed, len(pr.scrapes))
	pr.logKinds(setupCosts, writersWorkload.tail)
	return endToEnd(pr, setupCosts, writersWorkload.tail, correct), nil
}

// writerLayers collects the per-layer measurements of a traced writer
// pass from /metrics deltas and replays on the result /config describes.
type writerLayers struct {
	tr        *Tracer
	prev      metricsView
	prevRes   *core.Result
	prevRules []dataplane.Rule
	fullMS    []float64
	lpIters   []float64
	lpRefac   []float64
	nodes     []float64
	degraded  int
	composeMS []float64
	depMS     []float64
	auditMS   []float64
	compileMS []float64
	planMS    []float64
	applyMS   []float64
	changed   []float64
	fastMS    []float64
}

func (l *writerLayers) after(d *daemon, graphs []*policy.Graph, res *core.Result) error {
	var m metricsView
	if err := d.getJSON("/metrics", &m); err != nil {
		return err
	}
	l.lpIters = append(l.lpIters, float64(m.SolverLPIterations-l.prev.SolverLPIterations))
	l.lpRefac = append(l.lpRefac, float64(m.SolverRefactorizations-l.prev.SolverRefactorizations))
	l.nodes = append(l.nodes, float64(m.SolverNodes-l.prev.SolverNodes))
	for tier, c := range m.TierCounts {
		if tier != core.TierFull.String() {
			l.degraded += c - l.prev.TierCounts[tier]
		}
	}
	if c := m.Fastpath.Compiles - l.prev.Fastpath.Compiles; c > 0 {
		l.fastMS = append(l.fastMS, (m.Fastpath.TotalCompileMicros-l.prev.Fastpath.TotalCompileMicros)/1e3/float64(c))
	}
	l.prev = m

	replay := func(name string, fn func()) float64 {
		t0 := time.Now()
		fn()
		t1 := time.Now()
		l.tr.child(name, spanReplay, t0, t1)
		return ms(t1.Sub(t0))
	}
	var cg *compose.Graph
	var err error
	l.composeMS = append(l.composeMS, replay("compose", func() { cg, err = compose.New(nil).Compose(graphs...) }))
	if err != nil {
		return err
	}
	tp := d.in.Topo
	// UpdateGraph builds a fresh configurator and re-solves against the
	// previous result; the replay does the same on the same inputs.
	l.fullMS = append(l.fullMS, replay("core.full", func() {
		if conf, cerr := core.New(tp, cg, solverConfig); cerr == nil {
			_, err = conf.ReconfigureAtContext(context.Background(), l.prevRes, l.prevRes.Period)
		}
	}))
	if err != nil {
		return err
	}
	adapter := dataplane.NewGraphAdapter(cg)
	l.depMS = append(l.depMS, replay("core.depindex", func() { core.BuildDepIndex(tp, cg, res) }))
	var rules []dataplane.Rule
	l.compileMS = append(l.compileMS, replay("dataplane.compile", func() { rules = dataplane.CompileRules(tp, adapter, res) }))
	scratch := dataplane.NewNetwork(tp)
	if err := scratch.ApplyPlan(scratch.PlanUpdate(l.prevRules)); err == nil {
		var plan *dataplane.UpdatePlan
		l.planMS = append(l.planMS, replay("dataplane.plan", func() { plan = scratch.PlanUpdate(rules) }))
		var aerr error
		l.applyMS = append(l.applyMS, replay("dataplane.apply", func() { aerr = scratch.ApplyPlan(plan) }))
		if aerr == nil {
			rep := plan.Report()
			l.changed = append(l.changed, float64(rep.RulesInstalled+rep.RulesUpdated+rep.RulesRemoved))
		}
		l.auditMS = append(l.auditMS, replay("check.audit", func() { check.Audit(tp, cg, scratch, res, 0, nil) }))
	}
	l.prevRes, l.prevRules = res, rules
	return nil
}

// runWritersTraced runs the writer loop untraced for half the run length,
// then again traced over the same rounds with the same seed, and reports
// the per-layer metrics.
func runWritersTraced(seed int64, seconds float64, work, traceDir string) (*output, error) {
	dir, err := os.MkdirTemp(work, "store-")
	if err != nil {
		return nil, err
	}
	d, _, err := openDaemon(dir, nil)
	if err != nil {
		return nil, err
	}
	ref, err := runWriterPass(d, seed, writerRounds(seconds/2), true, d.in.graphs(), nil)
	d.close()
	_ = d.st.Close()
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	if dir, err = os.MkdirTemp(work, "store-"); err != nil {
		return nil, err
	}
	if d, _, err = openDaemon(dir, tr); err != nil {
		return nil, err
	}
	defer d.close()
	lay := &writerLayers{tr: tr}
	if err := d.getJSON("/metrics", &lay.prev); err != nil {
		return nil, err
	}
	cg, err := d.in.composed()
	if err != nil {
		return nil, err
	}
	var view configView
	if err := d.getJSON("/config", &view); err != nil {
		return nil, err
	}
	first, err := view.result()
	if err != nil {
		return nil, err
	}
	lay.prevRes = first
	lay.prevRules = dataplane.CompileRules(d.in.Topo, dataplane.NewGraphAdapter(cg), first)
	graphs := d.in.graphs()
	pr, err := runWriterPass(d, seed, ref.rounds, true, graphs, lay)
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
	dr, err := capped(func() (int, error) { return writerDrift(d, graphs) })
	if err != nil {
		return nil, err
	}
	correct := equal && pr.rejected == 0
	if err := verifyDaemonDurable(d); err != nil {
		fmt.Fprintf(os.Stderr, "eventbench: %v\n", err)
		correct = false
	}
	overhead := 100 * (pr.opTime.Seconds()/ref.opTime.Seconds() - 1)
	cpuOverhead := 100 * (sum(pr.sp.scale(pr.cpuLat))/sum(ref.sp.scale(ref.cpuLat)) - 1)
	if err := writeTrace(traceDir, tr, traceReport{
		Workload: "ans-writers", Seed: seed, Operations: pr.attempted,
		UntracedOpMS: ms(ref.opTime), TracedOpMS: ms(pr.opTime), OverheadPct: overhead, CPUOverheadPct: cpuOverhead, ConfigsEqual: equal,
	}); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "eventbench: ans-writers seed %d traced: %d operations, configurations equal: %v, tracing overhead %.1f%% wall, %.1f%% scaled CPU\n",
		seed, pr.attempted, equal, overhead, cpuOverhead)
	acked := pr.attempted - pr.failed
	h := d.timed
	h.mu.Lock()
	defer h.mu.Unlock()
	return &output{Correct: correct, Attempted: pr.attempted, Failed: pr.failed, Metrics: map[string]metric{
		"core.delta_ms":               {0, "ms"},
		"core.full_ms":                {mean(lay.fullMS), "ms"},
		"core.affected_policies":      {0, "policies"},
		"core.delta_hit_ratio":        {0, "ratio"},
		"core.depindex_ms":            {mean(lay.depMS), "ms"},
		"lp.iterations":               {mean(lay.lpIters), "count"},
		"lp.refactorizations":         {mean(lay.lpRefac), "count"},
		"milp.nodes":                  {mean(lay.nodes), "count"},
		"milp.degraded_solves":        {float64(lay.degraded), "count"},
		"dataplane.compile_ms":        {mean(lay.compileMS), "ms"},
		"dataplane.plan_ms":           {mean(lay.planMS), "ms"},
		"dataplane.apply_ms":          {mean(lay.applyMS), "ms"},
		"dataplane.rules_changed":     {mean(lay.changed), "count"},
		"check.audit_ms":              {mean(lay.auditMS), "ms"},
		"fastpath.compile_ms":         {mean(lay.fastMS), "ms"},
		"fastpath.lookup_ns":          {1e9 * pr.lookupTime.Seconds() / float64(pr.lookups), "ns"},
		"store.append_ms":             {mean(durationsMS(d.fs.syncs)), "ms"},
		"store.record_kb":             {mean(d.fs.walWrites), "KiB"},
		"store.snapshot_ms":           {mean(durationsMS(d.fs.snapshots)), "ms"},
		"runtime.escalation_reroutes": {float64(lay.prev.StatefulReroutes), "count"},
		"runtime.path_changes":        {float64(pr.pathChange) / float64(acked), "count"},
		"runtime.drift_policies":      {float64(dr), "policies"},
		"compose.ms":                  {mean(lay.composeMS), "ms"},
		"server.configure_ms":         {mean(h.ms["server.configure"]), "ms"},
		"server.metrics_ms":           {mean(h.ms["server.metrics"]), "ms"},
	}}, nil
}

// writerDrift is a fresh full solve's satisfied count on the writers'
// final intents minus the installed count.
func writerDrift(d *daemon, graphs []*policy.Graph) (int, error) {
	var view configView
	if err := d.getJSON("/config", &view); err != nil {
		return 0, err
	}
	cg, err := compose.New(nil).Compose(graphs...)
	if err != nil {
		return 0, err
	}
	in, err := genInputs(writersWorkload.inputs)
	if err != nil {
		return 0, err
	}
	conf, err := core.New(in.Topo, cg, solverConfig)
	if err != nil {
		return 0, err
	}
	res, err := conf.ConfigureContext(context.Background(), view.Period)
	if err != nil {
		return 0, err
	}
	return res.SatisfiedCount() - view.Satisfied, nil
}
