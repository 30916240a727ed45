package plan

import (
	"fmt"

	"gdpn/internal/bitset"
	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/graph"
	"gdpn/internal/obs/span"
	"gdpn/internal/reconfig"
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
	// Expansions is the solver search work of the full-remap fallbacks
	// this plan needed (0 when local repairs or memo hits settled it).
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
// sets. It keeps the pool's one global pipeline in a reconfig.Manager, so
// a replan repairs that pipeline locally (splice, rewire, endpoint swap,
// insert) and the manager's memo-warm solver runs only when no local
// tactic applies. Not safe for concurrent use; the executor serializes
// replans.
type Planner struct {
	sol  *construct.Solution
	topo *Topology
	mgr  *reconfig.Manager // built by the first Plan
	gen  int
}

// NewPlanner builds a planner for the topology over the given pool
// solution. The topology must already be validated (Load/Parse do this).
func NewPlanner(sol *construct.Solution, topo *Topology) *Planner {
	return &Planner{sol: sol, topo: topo}
}

// Tactics returns the manager's repair counts and per-tactic downtime
// ledger over every replan so far (zero before the first Plan).
func (p *Planner) Tactics() (reconfig.Stats, reconfig.DowntimeStats) {
	if p.mgr == nil {
		return reconfig.Stats{}, reconfig.DowntimeStats{}
	}
	return p.mgr.Stats(), p.mgr.Downtime()
}

// Plan computes placements for the given pool fault set. exclude names
// tenants the caller has already shed (budget exhaustion, operator
// action); they are skipped before admission control runs. res, when
// non-nil, bounds the solver's search (cancellation, deadline and
// expansion budget) and parent becomes the causal parent of the "plan"
// span, under which the manager's detect/plan/solve/audit phases hang.
//
// The manager moves to the fault set one node at a time, repairs first,
// so the fault count never exceeds the larger of the old and new sets. A
// step that fails (deadline, budget, beyond tolerance) is rolled back by
// the manager and Plan returns its error; steps before it stand, and the
// next Plan starts from there.
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
	expansions, err := p.follow(faults, res, sp)
	if err != nil {
		sp.SetStr("error", err.Error())
		reconfig.EndPhase(sp, err)
		return nil, fmt.Errorf("plan: %w", err)
	}
	global := p.mgr.Pipeline()
	interior := global[1 : len(global)-1]
	capacity := len(interior)

	pl := &Plan{
		Gen:        p.gen,
		Capacity:   capacity,
		Global:     append(graph.Path(nil), global...),
		Expansions: expansions,
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
		if err := verify.CheckSegment(p.sol.Graph, faults, seg, seg); err != nil {
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

// follow moves the manager to faults and returns the solver work its
// full-remap fallbacks cost, the initial mapping's on the first call.
func (p *Planner) follow(faults bitset.Set, res *embed.Resources, sp *span.S) (int64, error) {
	var before int64
	if p.mgr == nil {
		m, err := reconfig.New(p.sol)
		if err != nil {
			return 0, err
		}
		p.mgr = m
	} else {
		before = p.mgr.Stats().Expansions
	}
	m := p.mgr
	m.SetResources(res)
	m.SetSpan(sp)
	defer func() {
		m.SetResources(nil)
		m.SetSpan(nil)
	}()
	cur := m.Faults()
	for _, v := range cur.Slice() {
		if !faults.Contains(v) {
			if _, err := m.Repair(v); err != nil {
				return 0, err
			}
		}
	}
	for _, v := range faults.Slice() {
		if !cur.Contains(v) {
			if _, err := m.Fault(v); err != nil {
				return 0, err
			}
		}
	}
	return m.Stats().Expansions - before, nil
}
