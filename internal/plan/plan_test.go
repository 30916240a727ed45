package plan_test

import (
	"strings"
	"testing"

	"gdpn/internal/bitset"
	"gdpn/internal/construct"
	"gdpn/internal/plan"
	"gdpn/internal/verify"
)

const mixedTopo = `{
  "pool": {"n": 12, "k": 3},
  "tenants": [
    {"name": "gold-a", "class": "gold", "weight": 3, "min_procs": 3},
    {"name": "silver-b", "class": "silver", "weight": 2, "min_procs": 2},
    {"name": "bronze-c", "class": "bronze", "weight": 1, "min_procs": 1}
  ]
}`

func mustTopo(t *testing.T, src string) *plan.Topology {
	t.Helper()
	topo, err := plan.Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return topo
}

func mustPool(t *testing.T, n, k int) *construct.Solution {
	t.Helper()
	sol, err := construct.Design(n, k)
	if err != nil {
		t.Fatalf("Design(%d,%d): %v", n, k, err)
	}
	return sol
}

func TestParseValidation(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"no tenants", `{"pool":{"n":12,"k":3},"tenants":[]}`, "no tenants"},
		{"dup name", `{"pool":{"n":12,"k":3},"tenants":[{"name":"x"},{"name":"x"}]}`, "duplicate"},
		{"bad class", `{"pool":{"n":12,"k":3},"tenants":[{"name":"x","class":"platinum"}]}`, "unknown SLO class"},
		{"bad stage", `{"pool":{"n":12,"k":3},"tenants":[{"name":"x","stages":[{"kind":"warp"}]}]}`, "unknown stage"},
		{"unknown field", `{"pool":{"n":12,"k":3},"tenants":[{"name":"x","colour":"red"}]}`, "colour"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := plan.Parse([]byte(c.src))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want containing %q", err, c.wantErr)
			}
		})
	}
}

func TestParseDefaults(t *testing.T) {
	topo := mustTopo(t, `{"pool":{"n":12,"k":3},"tenants":[{"name":"x"}]}`)
	ten := topo.Tenants[0]
	if ten.Class != plan.Gold || ten.Weight != 1 || ten.MinProcs != 1 ||
		ten.FrameSamples != 256 || ten.MaxPending != 64 {
		t.Fatalf("defaults not applied: %+v", ten)
	}
	if len(ten.Stages) == 0 {
		t.Fatal("default stage chain not applied")
	}
	stgs, err := ten.BuildStages()
	if err != nil || len(stgs) != len(ten.Stages) {
		t.Fatalf("BuildStages: %v (%d stages)", err, len(stgs))
	}
}

// TestPlanPartition checks the core contract: admitted segments tile the
// global interior exactly (disjoint, ordered, covering), each passing
// CheckSegment, with shares honoring floors + weighted largest remainder.
func TestPlanPartition(t *testing.T) {
	sol := mustPool(t, 12, 3)
	topo := mustTopo(t, mixedTopo)
	p := plan.NewPlanner(sol, topo)

	empty := bitset.New(sol.Graph.NumNodes())
	pl, err := p.Plan(empty, nil, nil, nil)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if len(pl.Shed) != 0 {
		t.Fatalf("unexpected shed: %+v", pl.Shed)
	}
	if len(pl.Assignments) != 3 {
		t.Fatalf("assignments = %d, want 3", len(pl.Assignments))
	}
	// G(12,3) pool has 15 processors; floors 3/2/1 leave 9 for weights
	// 3/2/1 -> +4.5/+3/+1.5 -> largest remainder gives 8/5/2.
	if pl.Capacity != 15 {
		t.Fatalf("capacity = %d, want 15", pl.Capacity)
	}
	wantSizes := []int{8, 5, 2}
	interior := pl.Global[1 : len(pl.Global)-1]
	off := 0
	for i, a := range pl.Assignments {
		if len(a.Segment) != wantSizes[i] {
			t.Fatalf("tenant %s: %d procs, want %d", a.Tenant, len(a.Segment), wantSizes[i])
		}
		for j, v := range a.Segment {
			if interior[off+j] != v {
				t.Fatalf("tenant %s segment not contiguous at offset %d", a.Tenant, off+j)
			}
		}
		off += len(a.Segment)
		if err := verify.CheckSegment(sol.Graph, empty, a.Segment, a.Segment); err != nil {
			t.Fatalf("tenant %s segment invalid: %v", a.Tenant, err)
		}
	}
	if off != pl.Capacity {
		t.Fatalf("segments cover %d of %d", off, pl.Capacity)
	}
}

// TestPlanDegradesUnderFaults replans across fault sets and checks the
// partition shrinks gracefully and revisits are free.
func TestPlanDegradesUnderFaults(t *testing.T) {
	sol := mustPool(t, 12, 3)
	topo := mustTopo(t, mixedTopo)
	p := plan.NewPlanner(sol, topo)

	procs := sol.Graph.Processors()
	faults := bitset.New(sol.Graph.NumNodes())
	empty := bitset.New(sol.Graph.NumNodes())

	pl0, err := p.Plan(empty, nil, nil, nil)
	if err != nil {
		t.Fatalf("Plan gen0: %v", err)
	}
	faults.Add(procs[0])
	pl1, err := p.Plan(faults, nil, nil, nil)
	if err != nil {
		t.Fatalf("Plan gen1: %v", err)
	}
	if pl1.Capacity != pl0.Capacity-1 {
		t.Fatalf("capacity after 1 fault = %d, want %d", pl1.Capacity, pl0.Capacity-1)
	}
	total := 0
	for _, a := range pl1.Assignments {
		if err := verify.CheckSegment(sol.Graph, faults, a.Segment, a.Segment); err != nil {
			t.Fatalf("tenant %s segment invalid: %v", a.Tenant, err)
		}
		total += len(a.Segment)
	}
	if total != pl1.Capacity {
		t.Fatalf("faulted partition covers %d of %d", total, pl1.Capacity)
	}
	if pl1.Gen != pl0.Gen+1 {
		t.Fatalf("gen = %d, want %d", pl1.Gen, pl0.Gen+1)
	}

	// Repair back to the empty fault set: the revisit must cost no solver
	// work (the manager re-inserts the processor, or its memo answers).
	pl2, err := p.Plan(empty, nil, nil, nil)
	if err != nil {
		t.Fatalf("Plan gen2: %v", err)
	}
	if pl2.Expansions != 0 {
		t.Fatalf("revisit of a known fault set cost %d expansions", pl2.Expansions)
	}
}

// TestPlanAdmissionControl pins the shedding policy: lowest class first,
// later declaration first within a class, and explicit exclusion.
func TestPlanAdmissionControl(t *testing.T) {
	sol := mustPool(t, 12, 3) // 15 processors
	topo := mustTopo(t, `{
	  "pool": {"n": 12, "k": 3},
	  "tenants": [
	    {"name": "g", "class": "gold", "min_procs": 8},
	    {"name": "s", "class": "silver", "min_procs": 5},
	    {"name": "b1", "class": "bronze", "min_procs": 2},
	    {"name": "b2", "class": "bronze", "min_procs": 2}
	  ]
	}`)
	p := plan.NewPlanner(sol, topo)
	empty := bitset.New(sol.Graph.NumNodes())

	// Floors sum to 17 > 15: exactly one bronze must go, and it must be
	// the LATER bronze (b2).
	pl, err := p.Plan(empty, nil, nil, nil)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if len(pl.Shed) != 1 || pl.Shed[0].Tenant != "b2" {
		t.Fatalf("shed = %+v, want exactly b2", pl.Shed)
	}
	if pl.Assignment("b1") == nil || pl.Assignment("g") == nil || pl.Assignment("s") == nil {
		t.Fatalf("wrong survivors: %+v", pl.Assignments)
	}

	// Excluding the gold tenant readmits b2.
	pl2, err := p.Plan(empty, map[string]bool{"g": true}, nil, nil)
	if err != nil {
		t.Fatalf("Plan with exclude: %v", err)
	}
	if pl2.Assignment("g") != nil {
		t.Fatal("excluded tenant was placed")
	}
	if pl2.Assignment("b2") == nil {
		t.Fatal("b2 not readmitted after exclusion freed capacity")
	}
}
