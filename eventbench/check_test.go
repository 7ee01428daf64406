package main

import (
	"errors"
	"strings"
	"testing"

	"janus/internal/core"
	"janus/internal/topo"
)

// solved returns inputs with a configuration the program computed for them,
// and a lookup that answers the way a correct fast path would.
func solved(t *testing.T) (*Inputs, Installed) {
	t.Helper()
	in := testInputs(t, true)
	cg, err := in.composed()
	if err != nil {
		t.Fatal(err)
	}
	conf, err := core.New(in.Topo, cg, solverConfig)
	if err != nil {
		t.Fatal(err)
	}
	res, err := conf.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	pids, err := policyIndex(cg, in)
	if err != nil {
		t.Fatal(err)
	}
	return in, fromResult(res, pids)
}

func correctLookup(inst Installed) LookupFunc {
	return func(src, dst string) ([]topo.NodeID, error) {
		for _, a := range inst.Assigns {
			if a.Hard && a.Src == src && a.Dst == dst && inst.Configured[a.Policy] {
				return a.Path, nil
			}
		}
		return nil, errors.New("blackhole")
	}
}

// clone deep-copies a configuration so each test case can break its own.
func clone(inst Installed) Installed {
	out := Installed{Configured: map[int]bool{}}
	for k, v := range inst.Configured {
		out.Configured[k] = v
	}
	for _, a := range inst.Assigns {
		a.Path = append([]topo.NodeID(nil), a.Path...)
		out.Assigns = append(out.Assigns, a)
	}
	return out
}

// firstHard returns the index of the first hard assignment of a configured
// policy whose path satisfies ok.
func firstHard(t *testing.T, inst Installed, ok func(Assign) bool) int {
	t.Helper()
	for i, a := range inst.Assigns {
		if a.Hard && inst.Configured[a.Policy] && ok(a) {
			return i
		}
	}
	t.Fatal("no suitable hard assignment")
	return -1
}

func anyAssign(Assign) bool { return true }

func TestCheckerAcceptsTheProgramsConfiguration(t *testing.T) {
	in, inst := solved(t)
	if len(inst.Configured) == 0 {
		t.Fatal("nothing configured")
	}
	if probs := newChecker(in, true).Check(inst, correctLookup(inst)); len(probs) > 0 {
		t.Fatalf("clean configuration rejected: %s", summarize(probs))
	}
}

// TestCheckerCatchesEachBrokenProperty feeds the checker one hand-broken
// configuration per property; each must be caught with its own complaint.
func TestCheckerCatchesEachBrokenProperty(t *testing.T) {
	in, good := solved(t)
	cases := []struct {
		name   string
		want   string
		break_ func(inst *Installed, lookup *LookupFunc)
	}{
		{"path over a missing link", "missing link", func(inst *Installed, _ *LookupFunc) {
			i := firstHard(t, *inst, func(a Assign) bool { return len(a.Path) >= 2 })
			p := inst.Assigns[i].Path
			// Splice in a node no link joins to the source switch.
			for n := range in.Net.Kind {
				if _, ok := in.Net.Cap[[2]topo.NodeID{p[0], topo.NodeID(n)}]; !ok && topo.NodeID(n) != p[0] {
					inst.Assigns[i].Path = append([]topo.NodeID{p[0], topo.NodeID(n)}, p[1:]...)
					return
				}
			}
		}},
		{"path from the wrong switch", "does not run from", func(inst *Installed, _ *LookupFunc) {
			i := firstHard(t, *inst, func(a Assign) bool { return len(a.Path) >= 2 })
			inst.Assigns[i].Path = inst.Assigns[i].Path[1:]
		}},
		{"chain skipped", "skips chain", func(inst *Installed, _ *LookupFunc) {
			i := firstHard(t, *inst, func(a Assign) bool { return len(in.Policies[a.Policy].Chain) > 0 })
			var kept []topo.NodeID
			for _, n := range inst.Assigns[i].Path {
				if in.Net.Kind[n] != topo.NFBox {
					kept = append(kept, n)
				}
			}
			inst.Assigns[i].Path = kept
		}},
		{"link over capacity", "over capacity", func(inst *Installed, _ *LookupFunc) {
			i := firstHard(t, *inst, func(a Assign) bool { return len(a.Path) >= 2 })
			inst.Assigns[i].BW = 1e7
		}},
		{"configured policy without a hard path", "hard paths", func(inst *Installed, _ *LookupFunc) {
			i := firstHard(t, *inst, anyAssign)
			inst.Assigns = append(inst.Assigns[:i], inst.Assigns[i+1:]...)
		}},
		{"fast path disagrees", "fast path gives", func(inst *Installed, lookup *LookupFunc) {
			i := firstHard(t, *inst, func(a Assign) bool { return len(a.Path) >= 2 })
			victim := inst.Assigns[i]
			base := *lookup
			*lookup = func(src, dst string) ([]topo.NodeID, error) {
				if src == victim.Src && dst == victim.Dst {
					return victim.Path[:1], nil
				}
				return base(src, dst)
			}
		}},
		{"uncovered pair forwards", "uncovered pair", func(inst *Installed, lookup *LookupFunc) {
			base := *lookup
			*lookup = func(src, dst string) ([]topo.NodeID, error) {
				if p, err := base(src, dst); err == nil {
					return p, nil
				}
				return []topo.NodeID{in.Net.Attach[src], in.Net.Attach[dst]}, nil
			}
		}},
		{"bandwidth not what the writer asked", "writer asked", func(inst *Installed, _ *LookupFunc) {
			i := firstHard(t, *inst, anyAssign)
			inst.Assigns[i].BW /= 2
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			inst := clone(good)
			lookup := correctLookup(inst)
			c.break_(&inst, &lookup)
			probs := newChecker(in, true).Check(inst, lookup)
			if len(probs) == 0 {
				t.Fatal("broken configuration accepted")
			}
			if !strings.Contains(strings.Join(probs, "\n"), c.want) {
				t.Fatalf("no %q complaint in: %s", c.want, summarize(probs))
			}
		})
	}
}

// TestCheckerFollowsTheActiveEdge: once a flow's counter reaches its
// threshold, its default-edge path no longer satisfies the checker.
func TestCheckerFollowsTheActiveEdge(t *testing.T) {
	in, inst := solved(t)
	chk := newChecker(in, false)
	i := firstHard(t, inst, func(a Assign) bool { return in.Policies[a.Policy].Esc != nil && a.Edge == 0 })
	a := inst.Assigns[i]
	chk.Apply(Op{Kind: OpCounter, Endpoint: a.Src, Peer: a.Dst, Delta: escalationThreshold})
	probs := chk.Check(inst, correctLookup(inst))
	if !strings.Contains(strings.Join(probs, "\n"), "active edge is 1") {
		t.Fatalf("escalated flow on its default path accepted: %s", summarize(probs))
	}
}
