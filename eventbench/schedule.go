package main

import (
	"errors"
	"fmt"
	"math/rand"

	"janus/internal/policy"
	"janus/internal/topo"
)

// errScheduleEnd reports that every flow's counter sits just below its
// threshold: the schedule ends after the last whole round.
var errScheduleEnd = errors.New("schedule: no counter can grow without crossing a threshold")

// OpKind is one kind of operation a workload issues.
type OpKind int

// Operation kinds. Counter stays below the escalation threshold. Update is
// a writer's PUT plus /configure.
const (
	OpMove OpKind = iota
	OpCounter
	OpTick
	OpUpdate
	numOpKinds
)

var opNames = [...]string{"move", "counter", "tick", "update"}

func (k OpKind) String() string { return opNames[k] }

// Op is one generated operation.
type Op struct {
	Kind     OpKind
	Endpoint string      // move; counter source
	Peer     string      // counter destination
	To       topo.NodeID // move target
	Delta    int
	Hour     int
	Policy   int     // update: writer's policy index
	BW       float64 // update: new default-edge bandwidth
}

func (o Op) String() string {
	switch o.Kind {
	case OpMove:
		return fmt.Sprintf("move %s->%d", o.Endpoint, o.To)
	case OpCounter:
		return fmt.Sprintf("%s %s->%s %+d", o.Kind, o.Endpoint, o.Peer, o.Delta)
	case OpTick:
		return fmt.Sprintf("tick %dh", o.Hour)
	case OpUpdate:
		return fmt.Sprintf("update writer %d bw %.3f", o.Policy, o.BW)
	}
	return o.Kind.String()
}

// RoundSpec is the fixed make-up of one round: how many operations of each
// kind it holds. Every round of a workload has the same make-up, so any
// whole number of rounds has the same mix.
type RoundSpec [numOpKinds]int

// Size is the number of operations in a round.
func (r RoundSpec) Size() int {
	n := 0
	for _, c := range r {
		n += c
	}
	return n
}

// maxAway is how many endpoints may be away from their home switch at once.
const maxAway = 2

// Generator emits rounds of valid operations from a seed. It keeps its own
// record of the network, counters and clock in step with what it emits, so
// every operation is valid in the state the previous ones leave: moves go
// to a different switch and counters below the threshold stay below it.
//
// Moves are visits: an endpoint at home moves to another switch, and a few
// moves later it moves back, oldest visitor first, with at most maxAway
// endpoints away at once and every endpoint home at the end of a round.
// Every round therefore starts from the generated attachments, and a run's
// cost does not hang on where a seed's random walk took the endpoints.
type Generator struct {
	rng      *rand.Rand
	spec     RoundSpec
	st       *State
	policies []*Policy
	home     map[string]topo.NodeID
	away     []string // visitors, oldest first
	moves    int      // moves left in the current round
}

// NewGenerator starts a schedule over the given inputs.
func NewGenerator(seed int64, spec RoundSpec, in *Inputs) *Generator {
	return &Generator{
		rng:      rand.New(rand.NewSource(seed)),
		spec:     spec,
		st:       newState(in),
		policies: in.Policies,
		home:     in.Net.clone().Attach,
	}
}

// Round returns the next round, its kinds shuffled.
func (g *Generator) Round() ([]Op, error) {
	var kinds []OpKind
	for k, c := range g.spec {
		for i := 0; i < c; i++ {
			kinds = append(kinds, OpKind(k))
		}
	}
	g.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	g.moves = g.spec[OpMove]
	ops := make([]Op, 0, g.spec.Size())
	for _, k := range kinds {
		op, err := g.next(k)
		if err != nil {
			return nil, err
		}
		g.st.apply(op)
		ops = append(ops, op)
	}
	return ops, nil
}

func (g *Generator) next(k OpKind) (Op, error) {
	switch k {
	case OpMove:
		return g.move()
	case OpCounter:
		return g.counter()
	case OpTick:
		return Op{Kind: OpTick, Hour: (g.st.Hour + 1) % policy.HoursPerDay}, nil
	case OpUpdate:
		p := g.policies[g.rng.Intn(len(g.policies))]
		return Op{Kind: OpUpdate, Policy: p.Index, BW: p.BW * (0.95 + 0.1*g.rng.Float64())}, nil
	}
	return Op{}, fmt.Errorf("schedule: no generator for %s", k)
}

// movable lists the endpoints a move may pick.
func (g *Generator) movable() []string {
	var out []string
	for _, p := range g.policies {
		out = append(out, p.Srcs...)
		out = append(out, p.Dst)
	}
	return out
}

// move returns the oldest visitor home when maxAway are out or the round
// has no more moves than visitors; otherwise it sends an endpoint at home
// to a random other switch.
func (g *Generator) move() (Op, error) {
	g.moves--
	if len(g.away) > 0 && (len(g.away) >= maxAway || g.moves < len(g.away)) {
		ep := g.away[0]
		g.away = g.away[1:]
		return Op{Kind: OpMove, Endpoint: ep, To: g.home[ep]}, nil
	}
	var eps []string
	for _, ep := range g.movable() {
		if !contains(g.away, ep) {
			eps = append(eps, ep)
		}
	}
	ep := eps[g.rng.Intn(len(eps))]
	cur := g.st.Net.Attach[ep]
	to := cur
	for to == cur {
		to = g.st.Net.Switches[g.rng.Intn(len(g.st.Net.Switches))]
	}
	g.away = append(g.away, ep)
	return Op{Kind: OpMove, Endpoint: ep, To: to}, nil
}

// counter bumps by one a flow whose count stays below the escalation
// threshold.
func (g *Generator) counter() (Op, error) {
	var cands [][2]string
	for _, p := range g.policies {
		for _, f := range p.Flows() {
			if g.st.Counters[f]+1 < escalationThreshold {
				cands = append(cands, f)
			}
		}
	}
	if len(cands) == 0 {
		return Op{}, errScheduleEnd
	}
	f := cands[g.rng.Intn(len(cands))]
	return Op{Kind: OpCounter, Endpoint: f[0], Peer: f[1], Delta: 1}, nil
}

// State is a record of what the operations so far have done to endpoint
// attachments, the counters, the clock and the writers' bandwidths. The
// generator and the checker each keep one and apply every operation to it.
type State struct {
	Net      *Net
	Counters map[[2]string]int
	BW       []float64 // per policy default-edge bandwidth
	Hour     int
}

func newState(in *Inputs) *State {
	s := &State{Net: in.Net.clone(), Counters: map[[2]string]int{}}
	for _, p := range in.Policies {
		s.BW = append(s.BW, p.BW)
	}
	return s
}

// apply records op's effect.
func (s *State) apply(op Op) {
	switch op.Kind {
	case OpMove:
		s.Net.Attach[op.Endpoint] = op.To
	case OpCounter:
		s.Counters[[2]string{op.Endpoint, op.Peer}] += op.Delta
	case OpTick:
		s.Hour = op.Hour
	case OpUpdate:
		s.BW[op.Policy] = op.BW
	}
}
