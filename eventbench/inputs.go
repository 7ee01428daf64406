package main

import (
	"fmt"
	"math/rand"

	"janus/internal/compose"
	"janus/internal/paths"
	"janus/internal/policy"
	"janus/internal/topo"
)

// netSeed fixes the network and the policy set of every workload: the
// --seed argument drives only the operation schedule, so runs with
// different seeds measure the same network under different event streams.
const netSeed = 1

// nfPool is the middlebox kinds chains are drawn from (the fig11 recipe).
var nfPool = []policy.NFKind{policy.Firewall, policy.LoadBalance, policy.LightIDS, policy.ByteCounter}

// escalationThreshold is the failed-connection count at which a flow's
// stateful escalation edge becomes active.
const escalationThreshold = 5

// Net is the benchmark's own record of the network: node kinds, the links
// currently up with their capacities, and where each endpoint is attached.
// The schedule generator keeps it in step with the operations it emits, and
// the checker judges the program's output against it alone.
type Net struct {
	Kind     []topo.NodeKind
	NF       []policy.NFKind
	Cap      map[[2]topo.NodeID]float64 // both directions of every link
	Attach   map[string]topo.NodeID
	Switches []topo.NodeID
}

// Escalation is a policy's stateful edge: active once the flow's
// failed-connection counter reaches Threshold.
type Escalation struct {
	Chain     policy.Chain
	BW        float64
	Threshold int
}

// Policy is the benchmark's record of one writer's intent.
type Policy struct {
	Index    int
	Writer   string
	SrcLabel string
	DstLabel string
	Srcs     []string
	Dst      string
	BW       float64
	Chain    policy.Chain
	Weight   float64
	Esc      *Escalation // nil without a stateful edge
}

// Flows lists the policy's (src, dst) endpoint pairs.
func (p *Policy) Flows() [][2]string {
	out := make([][2]string, len(p.Srcs))
	for i, s := range p.Srcs {
		out[i] = [2]string{s, p.Dst}
	}
	return out
}

// Inputs is one workload's network and intents: the topology handed to the
// program and the benchmark's independent record of the same.
type Inputs struct {
	Topo     *topo.Topology
	Net      *Net
	Policies []*Policy
}

// inputSpec sizes a generated network.
type inputSpec struct {
	Topology      string
	Policies      int
	SrcsPerPolicy int
	Escalations   bool
}

// genInputs builds the fig11-style network: the named zoo topology, NF
// boxes on a fifth of the switches, per policy two source endpoints and one
// destination on random switches, a 10–30 Mbps bandwidth demand and a
// chain of 0–2 NFs trimmed until every initial pair can route it. With
// Escalations, every policy gets one stateful edge through one NF that
// needs no bandwidth (a waypoint-only reservation).
func genInputs(spec inputSpec) (*Inputs, error) {
	tp, err := topo.Zoo(spec.Topology)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(netSeed))
	if err := tp.PlaceNFs(rng, nfPool, 0.2, 1000); err != nil {
		return nil, err
	}
	switches := tp.NodesOfKind(topo.Switch, "")
	enum := paths.NewEnumerator(tp)
	in := &Inputs{Topo: tp}
	for i := 0; i < spec.Policies; i++ {
		p := &Policy{
			Index:    i,
			Writer:   fmt.Sprintf("writer%02d", i),
			SrcLabel: fmt.Sprintf("G%d-src", i),
			DstLabel: fmt.Sprintf("G%d-dst", i),
			Dst:      fmt.Sprintf("p%d-dst", i),
			Weight:   1,
		}
		for e := 0; e < spec.SrcsPerPolicy; e++ {
			name := fmt.Sprintf("p%d-e%d", i, e)
			if err := tp.AddEndpoint(name, switches[rng.Intn(len(switches))], p.SrcLabel); err != nil {
				return nil, err
			}
			p.Srcs = append(p.Srcs, name)
		}
		dst := switches[rng.Intn(len(switches))]
		if err := tp.AddEndpoint(p.Dst, dst, p.DstLabel); err != nil {
			return nil, err
		}
		p.BW = 10 + rng.Float64()*20
		p.Chain = routable(enum, tp, p, randomChain(rng, 2))
		if spec.Escalations {
			esc := &Escalation{Chain: policy.Chain{nfPool[rng.Intn(len(nfPool))]}, Threshold: escalationThreshold}
			esc.Chain = routable(enum, tp, p, esc.Chain)
			p.Esc = esc
		}
		in.Policies = append(in.Policies, p)
	}
	in.Net = recordNet(tp)
	return in, nil
}

// recordNet copies what the checker needs out of the generated topology.
func recordNet(tp *topo.Topology) *Net {
	n := &Net{
		Kind:   make([]topo.NodeKind, len(tp.Nodes)),
		NF:     make([]policy.NFKind, len(tp.Nodes)),
		Cap:    map[[2]topo.NodeID]float64{},
		Attach: map[string]topo.NodeID{},
	}
	for _, nd := range tp.Nodes {
		n.Kind[nd.ID] = nd.Kind
		n.NF[nd.ID] = nd.NF
		if nd.Kind == topo.Switch {
			n.Switches = append(n.Switches, nd.ID)
		}
	}
	for _, l := range tp.Links {
		n.Cap[[2]topo.NodeID{l.From, l.To}] = l.Capacity
	}
	for _, ep := range tp.Endpoints {
		n.Attach[ep.Name] = ep.Attach
	}
	return n
}

// clone returns an independent copy (the generator and the checker each
// evolve their own).
func (n *Net) clone() *Net {
	c := &Net{
		Kind:     n.Kind,
		NF:       n.NF,
		Cap:      make(map[[2]topo.NodeID]float64, len(n.Cap)),
		Attach:   make(map[string]topo.NodeID, len(n.Attach)),
		Switches: n.Switches,
	}
	for k, v := range n.Cap {
		c.Cap[k] = v
	}
	for k, v := range n.Attach {
		c.Attach[k] = v
	}
	return c
}

// Graph returns policy p's writer graph with the given default-edge
// bandwidth.
func (p *Policy) Graph(bw float64) *policy.Graph {
	g := policy.NewGraph(p.Writer)
	g.Weight = p.Weight
	g.AddEdge(policy.Edge{Src: "Src", Dst: "Dst", Chain: p.Chain, QoS: policy.QoS{BandwidthMbps: bw}, Default: true})
	if p.Esc != nil {
		g.AddEdge(policy.Edge{
			Src: "Src", Dst: "Dst", Chain: p.Esc.Chain, QoS: policy.QoS{BandwidthMbps: p.Esc.BW},
			Cond: policy.Condition{Stateful: policy.WhenAtLeast(policy.FailedConnections, p.Esc.Threshold)},
		})
	}
	g.AddEPG(policy.NewEPG("Src", p.SrcLabel))
	g.AddEPG(policy.NewEPG("Dst", p.DstLabel))
	return g
}

// graphs returns every writer's graph at its generated bandwidth.
func (in *Inputs) graphs() []*policy.Graph {
	gs := make([]*policy.Graph, len(in.Policies))
	for i, p := range in.Policies {
		gs[i] = p.Graph(p.BW)
	}
	return gs
}

// composed composes every writer graph at its generated bandwidth.
func (in *Inputs) composed() (*compose.Graph, error) {
	return compose.New(nil).Compose(in.graphs()...)
}

// routable trims chain until every initial pair of p has a valid path
// through it (fig11 drops intents no path can realize).
func routable(enum *paths.Enumerator, tp *topo.Topology, p *Policy, chain policy.Chain) policy.Chain {
	dst, _ := tp.EndpointByName(p.Dst)
	for len(chain) > 0 {
		ok := true
		for _, s := range p.Srcs {
			src, _ := tp.EndpointByName(s)
			got, err := enum.Valid(src.Attach, dst.Attach, chain)
			if err != nil || len(got) == 0 {
				ok = false
				break
			}
		}
		if ok {
			return chain
		}
		chain = chain[:len(chain)-1]
	}
	return nil
}

// randomChain draws 0..maxNFs distinct NF kinds.
func randomChain(rng *rand.Rand, maxNFs int) policy.Chain {
	n := rng.Intn(maxNFs + 1)
	if n == 0 {
		return nil
	}
	perm := rng.Perm(len(nfPool))
	chain := make(policy.Chain, 0, n)
	for i := 0; i < n; i++ {
		chain = append(chain, nfPool[perm[i]])
	}
	return chain
}
