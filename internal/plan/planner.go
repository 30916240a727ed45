package plan

import (
	"fmt"

	"gdpn/internal/bitset"
	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/graph"
	"gdpn/internal/obs/span"
	"gdpn/internal/verify"
)

// Assignment is one tenant's granted placement: a contiguous segment of
// the global pipeline's interior. Because the segment is a subpath of a
// valid pipeline, it is automatically a simple path visiting every
// granted processor — the engine-side CheckSegment certificate holds by
// construction, and is still re-checked before the plan is returned.
type Assignment struct {
	Tenant string `json:"tenant"`
	Class  Class  `json:"class"`
	// Segment is the placement in pipeline order (processors only).
	Segment graph.Path `json:"segment"`
}

// Shed records a tenant left out of a plan and why.
type Shed struct {
	Tenant string `json:"tenant"`
	Class  Class  `json:"class"`
	Reason string `json:"reason"`
}

// Plan is one generation of placements over the shared pool for one fault
// set. Assignments appear in topology order and their segments partition
// the global pipeline's interior exactly: every healthy processor is
// granted to exactly one admitted tenant.
type Plan struct {
	// Gen numbers plan generations monotonically per planner.
	Gen int `json:"gen"`
	// Capacity is the healthy-processor count the plan distributed.
	Capacity int `json:"capacity"`
	// Global is the full terminal-to-terminal pipeline the segments were
	// carved from.
	Global graph.Path `json:"global"`
	// Assignments are the admitted tenants' placements.
	Assignments []Assignment `json:"assignments"`
	// Shed lists the tenants this plan could not place.
	Shed []Shed `json:"shed,omitempty"`
	// Expansions is the solver search work this plan cost (0 on a memo
	// hit — replans revisiting a known fault set are free).
	Expansions int64 `json:"expansions"`
}

// Assignment returns the named tenant's assignment, or nil if shed.
func (p *Plan) Assignment(tenant string) *Assignment {
	for i := range p.Assignments {
		if p.Assignments[i].Tenant == tenant {
			return &p.Assignments[i]
		}
	}
	return nil
}

// Planner compiles a Topology into placement Plans for successive fault
// sets. It owns the pool's only solver, configured with Options.Memo so
// repeated fault sets (churn, fault/repair cycles) replan from cache, and
// with the pool's Layout so the constructive planner stays on its fast path.
// Not safe for concurrent use; the executor serializes replans.
type Planner struct {
	g      *graph.Graph
	topo   *Topology
	solver *embed.Solver
	gen    int
}

// NewPlanner builds a planner for the topology over the given pool
// solution. The topology must already be validated (Load/Parse do this).
func NewPlanner(sol *construct.Solution, topo *Topology) *Planner {
	return &Planner{
		g:      sol.Graph,
		topo:   topo,
		solver: embed.NewSolver(sol.Graph, embed.Options{Layout: sol.Layout, Memo: true}),
	}
}

// Solver exposes the shared solver for warm/memo statistics.
func (p *Planner) Solver() *embed.Solver { return p.solver }

// Plan computes placements for the given pool fault set. exclude names
// tenants the caller has already shed (budget exhaustion, operator
// action); they are skipped before admission control runs. res, when
// non-nil, bounds the solver's search (cancellation and expansion budget)
// and parent becomes the causal parent of the "plan" span.
//
// Admission control: tenants are dropped lowest class first (Bronze
// before Silver before Gold), later topology index first within a class,
// until the min_procs floors fit the healthy capacity. The remaining
// capacity beyond the floors is split by weight using largest-remainder
// rounding (ties to the earlier tenant), so shares always sum exactly to
// capacity and the segments tile the global interior with no gap.
func (p *Planner) Plan(faults bitset.Set, exclude map[string]bool, res *embed.Resources, parent *span.S) (*Plan, error) {
	sp := span.Start(parent, "plan")
	sp.SetInt("gen", int64(p.gen))
	p.solver.SetResources(res)
	p.solver.SetSpan(sp)
	r := p.solver.Find(faults)
	if !r.Found {
		sp.SetStr("error", "no pipeline")
		if r.Unknown {
			sp.End(span.Deadline)
			return nil, fmt.Errorf("plan: solver budget exhausted before a pipeline was found (%d expansions)", r.Expansions)
		}
		sp.End(span.Errored)
		return nil, fmt.Errorf("plan: no pipeline exists for this fault set (beyond design tolerance)")
	}
	interior := r.Pipeline[1 : len(r.Pipeline)-1]
	capacity := len(interior)

	pl := &Plan{
		Gen:        p.gen,
		Capacity:   capacity,
		Global:     append(graph.Path(nil), r.Pipeline...),
		Expansions: r.Expansions,
	}

	// Admission: start from every non-excluded tenant, then shed until the
	// floors fit.
	type cand struct {
		idx int
		t   *TenantSpec
	}
	var admitted []cand
	for i := range p.topo.Tenants {
		t := &p.topo.Tenants[i]
		if exclude[t.Name] {
			pl.Shed = append(pl.Shed, Shed{Tenant: t.Name, Class: t.Class, Reason: "excluded"})
			continue
		}
		admitted = append(admitted, cand{i, t})
	}
	need := 0
	for _, c := range admitted {
		need += c.t.MinProcs
	}
	for need > capacity && len(admitted) > 0 {
		// Victim: lowest class; within a class, the later declaration.
		v := 0
		for i := 1; i < len(admitted); i++ {
			if admitted[i].t.Class > admitted[v].t.Class ||
				(admitted[i].t.Class == admitted[v].t.Class && admitted[i].idx > admitted[v].idx) {
				v = i
			}
		}
		t := admitted[v].t
		pl.Shed = append(pl.Shed, Shed{
			Tenant: t.Name, Class: t.Class,
			Reason: fmt.Sprintf("insufficient capacity: floors want %d, pool has %d", need, capacity),
		})
		need -= t.MinProcs
		admitted = append(admitted[:v], admitted[v+1:]...)
	}
	sp.SetInt("capacity", int64(capacity)).SetInt("admitted", int64(len(admitted))).SetInt("shed", int64(len(pl.Shed)))
	if len(admitted) == 0 {
		sp.End(span.OK)
		return pl, nil
	}

	// Distribute the surplus beyond the floors by weight, largest
	// remainder, ties to the earlier tenant.
	shares := make([]int, len(admitted))
	totalW := 0
	for i, c := range admitted {
		shares[i] = c.t.MinProcs
		totalW += c.t.Weight
	}
	surplus := capacity - need
	if surplus > 0 && totalW > 0 {
		given := 0
		rem := make([]int, len(admitted)) // remainder numerators, scale totalW
		for i, c := range admitted {
			exact := surplus * c.t.Weight
			shares[i] += exact / totalW
			given += exact / totalW
			rem[i] = exact % totalW
		}
		for given < surplus {
			best := -1
			for i := range rem {
				if rem[i] > 0 && (best < 0 || rem[i] > rem[best]) {
					best = i // strict >: ties stay with the earlier tenant
				}
			}
			if best < 0 {
				best = 0
			}
			shares[best]++
			rem[best] = 0
			given++
		}
	} else if surplus > 0 {
		shares[0] += surplus // all weights zero is impossible post-Validate, but stay total-preserving
	}

	// Carve the interior into contiguous segments, topology order.
	off := 0
	for i, c := range admitted {
		seg := append(graph.Path(nil), interior[off:off+shares[i]]...)
		off += shares[i]
		if err := verify.CheckSegment(p.g, faults, seg, seg); err != nil {
			sp.SetStr("error", err.Error())
			sp.End(span.Errored)
			return nil, fmt.Errorf("plan: tenant %q segment failed verification: %w", c.t.Name, err)
		}
		pl.Assignments = append(pl.Assignments, Assignment{Tenant: c.t.Name, Class: c.t.Class, Segment: seg})
	}
	if off != capacity {
		sp.End(span.Errored)
		return nil, fmt.Errorf("plan: shares sum to %d, capacity is %d", off, capacity)
	}
	p.gen++
	sp.End(span.OK)
	return pl, nil
}
