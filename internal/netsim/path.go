package netsim

import (
	"fmt"
	"slices"

	"starlinkview/internal/trace"
)

// LinkSpec describes one direction of a hop's link.
type LinkSpec struct {
	RateBps   float64
	Delay     Time
	QueueByte int

	DelayFn func(now Time) Time
	LossFn  func(now Time, p *Packet) bool
	RateFn  func(now Time) float64

	// MetricsFor, if set, is called with the built link's name and the
	// result assigned to Link.Metrics (use NewLinkMetrics with a registry
	// closed over). Trace is copied to Link.Trace for drop events.
	MetricsFor func(name string) *LinkMetrics
	Trace      *trace.Span
}

func (spec LinkSpec) build(name string, dst Handler) *Link {
	l := &Link{
		Name:      name,
		RateBps:   spec.RateBps,
		Delay:     spec.Delay,
		QueueByte: spec.QueueByte,
		DelayFn:   spec.DelayFn,
		LossFn:    spec.LossFn,
		RateFn:    spec.RateFn,
		Dst:       dst,
		Trace:     spec.Trace,
	}
	if spec.MetricsFor != nil {
		l.Metrics = spec.MetricsFor(name)
	}
	return l
}

// Path is a linear chain of nodes joined by a pair of directed links per hop.
// It is the topology of every experiment in the study: client-side node,
// access link (bent pipe for Starlink), ISP/PoP hops, transit, and server.
type Path struct {
	Nodes []*Node
	// Fwd[i] carries traffic from Nodes[i] to Nodes[i+1]; Rev[i] the
	// opposite direction.
	Fwd []*Link
	Rev []*Link
}

// NewPath wires the nodes into a chain. fwd and rev must each contain
// len(nodes)-1 link specs; rev may be nil to mirror fwd (symmetric links).
// Routing tables are installed so that any node can reach any other along
// the chain, which makes TTL-limited probes and ICMP replies work.
func NewPath(nodes []*Node, fwd, rev []LinkSpec) (*Path, error) {
	if len(nodes) < 2 {
		return nil, fmt.Errorf("netsim: path needs at least 2 nodes, got %d", len(nodes))
	}
	if len(fwd) != len(nodes)-1 {
		return nil, fmt.Errorf("netsim: %d forward link specs for %d nodes", len(fwd), len(nodes))
	}
	if rev == nil {
		rev = fwd
	}
	if len(rev) != len(nodes)-1 {
		return nil, fmt.Errorf("netsim: %d reverse link specs for %d nodes", len(rev), len(nodes))
	}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if seen[n.Name] {
			return nil, fmt.Errorf("netsim: duplicate node name %q in path", n.Name)
		}
		seen[n.Name] = true
	}

	p := &Path{Nodes: nodes}
	for i := 0; i < len(nodes)-1; i++ {
		f := fwd[i].build(fmt.Sprintf("%s->%s", nodes[i].Name, nodes[i+1].Name), nodes[i+1])
		r := rev[i].build(fmt.Sprintf("%s->%s", nodes[i+1].Name, nodes[i].Name), nodes[i])
		p.Fwd = append(p.Fwd, f)
		p.Rev = append(p.Rev, r)
	}

	// Install routes: from node i, everything to the right goes out Fwd[i],
	// everything to the left goes out Rev[i-1].
	for i, n := range nodes {
		n.routes = slices.Grow(n.routes, len(nodes)-1)
		for j, m := range nodes {
			switch {
			case j > i:
				n.AddRoute(m.Name, p.Fwd[i])
			case j < i:
				n.AddRoute(m.Name, p.Rev[i-1])
			}
		}
	}
	return p, nil
}

// Client returns the first node of the path (the measurement vantage point).
func (p *Path) Client() *Node { return p.Nodes[0] }

// Server returns the last node of the path (the measurement server).
func (p *Path) Server() *Node { return p.Nodes[len(p.Nodes)-1] }

// AccessFwd returns the first forward link — the access link (the bent pipe
// on a Starlink path).
func (p *Path) AccessFwd() *Link { return p.Fwd[0] }

// AccessRev returns the first hop's reverse link.
func (p *Path) AccessRev() *Link { return p.Rev[0] }

// BaseRTT returns the sum of fixed propagation delays along the path and
// back, excluding dynamic delay hooks, queueing and serialisation.
func (p *Path) BaseRTT() Time {
	var rtt Time
	for i := range p.Fwd {
		rtt += p.Fwd[i].Delay + p.Rev[i].Delay
	}
	return rtt
}
