// Package faults provides the fault models used by the experiments and the
// streaming runtime: uniform random faults, processor-only faults,
// clustered faults (consecutive circulant positions — the hardest pattern
// for ring-based constructions), terminal-targeted faults (trying to sever
// I/O), and a greedy adversary that maximizes solver effort. A Model
// produces whole fault sets; an Injector turns a model into the one-at-a-
// time fault sequence the runtime consumes.
package faults

import (
	"fmt"
	"math/rand"

	"gdpn/internal/bitset"
	"gdpn/internal/combin"
	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/graph"
	"gdpn/internal/obs"
)

// Model draws fault sets of a given size from a graph.
type Model interface {
	// Name identifies the model in experiment tables.
	Name() string
	// Sample returns a fault set of exactly `size` nodes (or fewer when
	// the eligible universe is smaller). The result is freshly allocated.
	Sample(rng *rand.Rand, g *graph.Graph, size int) bitset.Set
}

// Uniform draws faults uniformly over all nodes (the paper's model: both
// processors and terminals fail).
type Uniform struct{}

// Name implements Model.
func (Uniform) Name() string { return "uniform" }

// Sample implements Model.
func (Uniform) Sample(rng *rand.Rand, g *graph.Graph, size int) bitset.Set {
	return sampleFrom(rng, allNodes(g), g.NumNodes(), size)
}

// ProcessorsOnly draws faults uniformly over processor nodes (the merged
// fault-free-terminal model of §3).
type ProcessorsOnly struct{}

// Name implements Model.
func (ProcessorsOnly) Name() string { return "processors-only" }

// Sample implements Model.
func (ProcessorsOnly) Sample(rng *rand.Rand, g *graph.Graph, size int) bitset.Set {
	return sampleFrom(rng, g.Processors(), g.NumNodes(), size)
}

// TerminalsFirst spends faults on terminals before processors — the
// adversary that tries to disconnect the network from its I/O devices,
// which unlabeled fault-tolerance constructions cannot model at all (§2).
type TerminalsFirst struct{}

// Name implements Model.
func (TerminalsFirst) Name() string { return "terminals-first" }

// Sample implements Model.
func (TerminalsFirst) Sample(rng *rand.Rand, g *graph.Graph, size int) bitset.Set {
	terms := append(g.InputTerminals(), g.OutputTerminals()...)
	s := bitset.New(g.NumNodes())
	if size <= len(terms) {
		for _, idx := range combin.RandomSubset(rng, len(terms), size, nil) {
			s.Add(terms[idx])
		}
		return s
	}
	for _, t := range terms {
		s.Add(t)
	}
	procs := g.Processors()
	for _, idx := range combin.RandomSubset(rng, len(procs), size-len(terms), nil) {
		s.Add(procs[idx])
	}
	return s
}

// Clustered places faults on consecutive circulant ring positions of an
// asymptotic-construction graph — the pattern that maximizes the fault-run
// length the ring offsets must jump.
type Clustered struct {
	Layout *construct.Layout
}

// Name implements Model.
func (Clustered) Name() string { return "clustered" }

// Sample implements Model.
func (c Clustered) Sample(rng *rand.Rand, g *graph.Graph, size int) bitset.Set {
	if c.Layout == nil {
		panic("faults: Clustered requires a layout")
	}
	s := bitset.New(g.NumNodes())
	m := c.Layout.M
	start := rng.Intn(m)
	for i := 0; i < size && i < m; i++ {
		s.Add(c.Layout.C[(start+i)%m])
	}
	return s
}

// Adversarial greedily builds the fault set one node at a time, each time
// choosing (from a random candidate pool) the node that maximizes the
// solver's expansion count — a search-effort adversary used in the solver
// ablation experiments.
type Adversarial struct {
	// Pool is the number of candidate nodes evaluated per step (default 8).
	Pool int
	// Solver configures the probe solver.
	Solver embed.Options
}

// Name implements Model.
func (Adversarial) Name() string { return "adversarial" }

// Sample implements Model.
func (a Adversarial) Sample(rng *rand.Rand, g *graph.Graph, size int) bitset.Set {
	pool := a.Pool
	if pool <= 0 {
		pool = 8
	}
	solver := embed.NewSolver(g, a.Solver)
	s := bitset.New(g.NumNodes())
	for i := 0; i < size; i++ {
		bestNode, bestCost := -1, int64(-1)
		for c := 0; c < pool; c++ {
			v := rng.Intn(g.NumNodes())
			if s.Contains(v) {
				continue
			}
			s.Add(v)
			r := solver.Find(s)
			s.Remove(v)
			cost := r.Expansions
			if r.Unknown {
				cost = 1 << 60 // budget-busting candidates are the best adversaries
			}
			if cost > bestCost {
				bestNode, bestCost = v, cost
			}
		}
		if bestNode < 0 {
			break
		}
		s.Add(bestNode)
	}
	return s
}

// Injector converts a Model into an online fault sequence: Next reveals one
// more faulty node at a time until k faults have occurred, mirroring how
// faults arrive in a deployed array. Deterministic per seed.
type Injector struct {
	seq      []int
	next     int
	current  bitset.Set
	injected *obs.Counter
}

// NewInjector draws a size-k fault set from the model and replays it one
// node at a time in random order.
func NewInjector(model Model, g *graph.Graph, k int, seed int64) *Injector {
	rng := rand.New(rand.NewSource(seed))
	set := model.Sample(rng, g, k)
	seq := set.Slice()
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return &Injector{
		seq: seq, current: bitset.New(g.NumNodes()),
		injected: obs.Default().Counter("faults_injected_total", obs.L("model", model.Name())),
	}
}

// Next reveals the next fault. ok is false when the sequence is exhausted.
// Each revealed fault is counted per model in the default obs registry.
func (in *Injector) Next() (node int, ok bool) {
	if in.next >= len(in.seq) {
		return -1, false
	}
	node = in.seq[in.next]
	in.next++
	in.current.Add(node)
	in.injected.Inc()
	return node, true
}

// Current returns the set of faults revealed so far (aliased; do not modify).
func (in *Injector) Current() bitset.Set { return in.current }

// Remaining returns how many faults are still to come.
func (in *Injector) Remaining() int { return len(in.seq) - in.next }

// sampleFrom picks `size` distinct nodes from universe (node ids) into a
// bitset of capacity cap.
func sampleFrom(rng *rand.Rand, universe []int, cap, size int) bitset.Set {
	if size > len(universe) {
		size = len(universe)
	}
	s := bitset.New(cap)
	for _, idx := range combin.RandomSubset(rng, len(universe), size, nil) {
		s.Add(universe[idx])
	}
	return s
}

func allNodes(g *graph.Graph) []int {
	nodes := make([]int, g.NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}

// ByName returns the named model; the recognized names are "uniform",
// "processors-only", "terminals-first", and "links" (Hayes link-fault
// reduction). Clustered and adversarial models need parameters and are
// constructed directly.
func ByName(name string) (Model, error) {
	switch name {
	case "uniform":
		return Uniform{}, nil
	case "processors-only":
		return ProcessorsOnly{}, nil
	case "terminals-first":
		return TerminalsFirst{}, nil
	case "links":
		return LinkModel{}, nil
	default:
		return nil, fmt.Errorf("faults: unknown model %q", name)
	}
}
