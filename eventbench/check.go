package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"janus/internal/compose"
	"janus/internal/core"
	"janus/internal/policy"
	"janus/internal/topo"
)

// Installed is a program-neutral view of one acknowledged configuration,
// indexed by the benchmark's own policy numbers.
type Installed struct {
	Configured map[int]bool
	Assigns    []Assign
}

// Assign is one installed or reserved path.
type Assign struct {
	Policy int // benchmark policy index
	Edge   int // 0 default, 1 escalation
	Hard   bool
	Src    string
	Dst    string
	Path   []topo.NodeID
	BW     float64
}

// LookupFunc classifies a flow through the program's compiled fast path.
type LookupFunc func(src, dst string) ([]topo.NodeID, error)

// policyIndex maps the composed graph's policy IDs to the benchmark's
// policy indices through the source group label each writer owns.
func policyIndex(cg *compose.Graph, in *Inputs) (map[int]int, error) {
	bySrc := map[string]int{}
	for _, p := range in.Policies {
		bySrc[p.SrcLabel] = p.Index
	}
	out := map[int]int{}
	for _, cp := range cg.Policies {
		if len(cp.Src.Labels) != 1 {
			return nil, fmt.Errorf("check: composed policy %d has source labels %v", cp.ID, cp.Src.Labels)
		}
		i, ok := bySrc[cp.Src.Labels[0]]
		if !ok {
			return nil, fmt.Errorf("check: composed policy %d matches no writer", cp.ID)
		}
		out[cp.ID] = i
	}
	return out, nil
}

// fromResult converts a runtime result.
func fromResult(res *core.Result, pids map[int]int) Installed {
	in := Installed{Configured: map[int]bool{}}
	for pid, ok := range res.Configured {
		if ok {
			in.Configured[pids[pid]] = true
		}
	}
	for _, a := range res.Assignments {
		in.Assigns = append(in.Assigns, Assign{
			Policy: pids[a.Policy], Edge: a.EdgeIdx, Hard: a.Role == core.HardEdge,
			Src: a.Src, Dst: a.Dst, Path: append([]topo.NodeID(nil), a.Path.Nodes...), BW: a.BW,
		})
	}
	return in
}

// Checker judges acknowledged configurations against the benchmark's own
// record of the inputs and of every operation applied since.
type Checker struct {
	in      *Inputs
	st      *State
	writers bool // bandwidths must match the writers' last PUT
}

func newChecker(in *Inputs, writers bool) *Checker {
	return &Checker{in: in, st: newState(in), writers: writers}
}

// Apply records an operation the program acknowledged.
func (c *Checker) Apply(op Op) { c.st.apply(op) }

// activeEdge is the edge a flow's traffic must take in the recorded state.
func (c *Checker) activeEdge(p *Policy, src string) (chain policy.Chain, bw float64, edge int) {
	if p.Esc != nil && c.st.Counters[[2]string{src, p.Dst}] >= p.Esc.Threshold {
		return p.Esc.Chain, p.Esc.BW, 1
	}
	return p.Chain, c.st.BW[p.Index], 0
}

// Check returns every property the configuration violates.
func (c *Checker) Check(inst Installed, lookup LookupFunc) []string {
	var out []string
	bad := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	net := c.st.Net
	load := map[[2]topo.NodeID]float64{}
	hard := map[[2]string][]Assign{}
	for _, a := range inst.Assigns {
		if a.Policy < 0 || a.Policy >= len(c.in.Policies) {
			bad("assignment for unknown policy %d", a.Policy)
			continue
		}
		p := c.in.Policies[a.Policy]
		for i := 0; i+1 < len(a.Path); i++ {
			l := [2]topo.NodeID{a.Path[i], a.Path[i+1]}
			if _, ok := net.Cap[l]; !ok {
				bad("policy %d %s->%s: path %v uses missing link %d-%d", a.Policy, a.Src, a.Dst, a.Path, l[0], l[1])
				continue
			}
			load[l] += a.BW
		}
		chain, bw, edge := c.activeEdge(p, a.Src)
		if !a.Hard {
			if c.writers && p.Esc != nil && math.Abs(a.BW-p.Esc.BW) > 1e-6 {
				bad("policy %d %s->%s: reservation bandwidth %g, writer asked %g", a.Policy, a.Src, a.Dst, a.BW, p.Esc.BW)
			}
			continue
		}
		f := [2]string{a.Src, a.Dst}
		hard[f] = append(hard[f], a)
		if a.Dst != p.Dst || !contains(p.Srcs, a.Src) {
			bad("policy %d: hard path for foreign pair %s->%s", a.Policy, a.Src, a.Dst)
			continue
		}
		if len(a.Path) == 0 || a.Path[0] != net.Attach[a.Src] || a.Path[len(a.Path)-1] != net.Attach[a.Dst] {
			bad("policy %d %s->%s: path %v does not run from switch %d to %d",
				a.Policy, a.Src, a.Dst, a.Path, net.Attach[a.Src], net.Attach[a.Dst])
		}
		if a.Edge != edge {
			bad("policy %d %s->%s: hard path serves edge %d, active edge is %d", a.Policy, a.Src, a.Dst, a.Edge, edge)
		}
		if !traverses(net, a.Path, chain) {
			bad("policy %d %s->%s: path %v skips chain %s", a.Policy, a.Src, a.Dst, a.Path, chain)
		}
		if c.writers && math.Abs(a.BW-bw) > 1e-6 {
			bad("policy %d %s->%s: bandwidth %g, writer asked %g", a.Policy, a.Src, a.Dst, a.BW, bw)
		}
	}
	for l, used := range load {
		if capacity := net.Cap[l]; used > capacity+1e-6 {
			bad("link %d-%d carries %g Mbps over capacity %g", l[0], l[1], used, capacity)
		}
	}
	covered := map[[2]string]bool{}
	for _, p := range c.in.Policies {
		if !inst.Configured[p.Index] {
			continue
		}
		for _, f := range p.Flows() {
			covered[f] = true
			hs := hard[f]
			if len(hs) != 1 {
				bad("policy %d %s->%s: configured with %d hard paths", p.Index, f[0], f[1], len(hs))
				continue
			}
			got, err := lookup(f[0], f[1])
			if err != nil || !equalPath(got, hs[0].Path) {
				bad("policy %d %s->%s: fast path gives %v (%v), installed path %v", p.Index, f[0], f[1], got, err, hs[0].Path)
			}
		}
	}
	eps := make([]string, 0, len(net.Attach))
	for ep := range net.Attach {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, s := range eps {
		for _, d := range eps {
			f := [2]string{s, d}
			if s == d || covered[f] || net.Attach[s] == net.Attach[d] {
				continue
			}
			if got, err := lookup(s, d); err == nil {
				bad("uncovered pair %s->%s forwards along %v", s, d, got)
			}
		}
	}
	sort.Strings(out)
	return out
}

// traverses reports whether the walk visits the chain's NF kinds in order.
func traverses(net *Net, walk []topo.NodeID, chain policy.Chain) bool {
	next := 0
	for _, n := range walk {
		if next < len(chain) && net.Kind[n] == topo.NFBox && net.NF[n] == chain[next] {
			next++
		}
	}
	return next == len(chain)
}

func equalPath(a, b []topo.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// summarize shortens a problem list for an error message.
func summarize(ps []string) string {
	if len(ps) > 3 {
		return strings.Join(ps[:3], "; ") + fmt.Sprintf("; and %d more", len(ps)-3)
	}
	return strings.Join(ps, "; ")
}
