package main

import (
	"errors"
	"reflect"
	"testing"

	"janus/internal/topo"
)

func testInputs(t *testing.T, escalations bool) *Inputs {
	t.Helper()
	in, err := genInputs(inputSpec{Topology: "Ans", Policies: 12, SrcsPerPolicy: 2, Escalations: escalations})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func rounds(t *testing.T, g *Generator, n int) [][]Op {
	t.Helper()
	var out [][]Op
	for i := 0; i < n; i++ {
		ops, err := g.Round()
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		out = append(out, ops)
	}
	return out
}

func TestSameSeedSameSchedule(t *testing.T) {
	for name, w := range eventWorkloads {
		in := testInputs(t, w.inputs.Escalations)
		a := rounds(t, NewGenerator(7, w.round, in), 2)
		b := rounds(t, NewGenerator(7, w.round, in), 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different schedules", name)
		}
		if c := rounds(t, NewGenerator(8, w.round, in), 2); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", name)
		}
	}
	in := testInputs(t, true)
	a := rounds(t, NewGenerator(3, writersWorkload.round, in), 3)
	b := rounds(t, NewGenerator(3, writersWorkload.round, in), 3)
	if !reflect.DeepEqual(a, b) {
		t.Error("writers: seed 3 gave two different schedules")
	}
}

// TestScheduleIsValid replays generated rounds against an independent
// record and checks every operation is valid where it lands, that no more
// than maxAway endpoints are ever away from home, and that every round
// ends with all of them home.
func TestScheduleIsValid(t *testing.T) {
	for name, w := range eventWorkloads {
		in := testInputs(t, w.inputs.Escalations)
		st := newState(in)
		for r, ops := range rounds(t, NewGenerator(11, w.round, in), 3) {
			var got RoundSpec
			for _, op := range ops {
				got[op.Kind]++
				switch op.Kind {
				case OpMove:
					if in.Net.Kind[op.To] != topo.Switch {
						t.Errorf("%s round %d: move %s to non-switch %d", name, r, op.Endpoint, op.To)
					}
					if st.Net.Attach[op.Endpoint] == op.To {
						t.Errorf("%s round %d: move %s to the switch it is on", name, r, op.Endpoint)
					}
					away := 0
					for ep, sw := range in.Net.Attach {
						if ep != op.Endpoint && st.Net.Attach[ep] != sw {
							away++
						}
					}
					if op.To != in.Net.Attach[op.Endpoint] {
						away++
					}
					if away > maxAway {
						t.Errorf("%s round %d: %s leaves %d endpoints away, more than %d", name, r, op, away, maxAway)
					}
				case OpCounter:
					if st.Counters[[2]string{op.Endpoint, op.Peer}]+op.Delta >= escalationThreshold {
						t.Errorf("%s round %d: counter %s crosses the threshold", name, r, op)
					}
				}
				st.apply(op)
			}
			if got != w.round {
				t.Errorf("%s round %d: make-up %v, want %v", name, r, got, w.round)
			}
			for ep, sw := range in.Net.Attach {
				if st.Net.Attach[ep] != sw {
					t.Errorf("%s round %d: %s ends the round at %d, away from its home %d", name, r, ep, st.Net.Attach[ep], sw)
				}
			}
		}
		for f, c := range st.Counters {
			if c >= escalationThreshold {
				t.Errorf("%s: flow %v left at %d, past its threshold", name, f, c)
			}
		}
	}
}

func TestScheduleEndsWhenCountersAreFull(t *testing.T) {
	in := testInputs(t, true)
	g := NewGenerator(1, RoundSpec{OpCounter: 10}, in)
	// 12 policies x 2 flows x 4 increments each.
	for i := 0; i < 9; i++ {
		if _, err := g.Round(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if _, err := g.Round(); !errors.Is(err, errScheduleEnd) {
		t.Fatalf("got %v, want the schedule to end", err)
	}
}

func TestRoundsFor(t *testing.T) {
	for _, c := range []struct {
		seconds, roundSeconds float64
		size, minOps, want    int
	}{
		{20, 7.5, 124, 100, 3},
		{3, 7.5, 124, 100, 1},
		{20, 0.5, 10, 100, 40},
		{2, 0.5, 10, 100, 10},
	} {
		if got := roundsFor(c.seconds, c.roundSeconds, c.size, c.minOps); got != c.want {
			t.Errorf("roundsFor(%g, %g, %d, %d) = %d, want %d", c.seconds, c.roundSeconds, c.size, c.minOps, got, c.want)
		}
	}
}
