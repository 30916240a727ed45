package control_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"gdpn/internal/construct"
	"gdpn/internal/control"
	"gdpn/internal/graph"
	"gdpn/internal/pipeline"
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

func mustExecutor(t *testing.T, topoSrc string) (*control.Executor, *construct.Solution) {
	t.Helper()
	sol, err := construct.Design(12, 3)
	if err != nil {
		t.Fatalf("Design: %v", err)
	}
	topo, err := plan.Parse([]byte(topoSrc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	x, err := control.New(sol, topo, control.Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return x, sol
}

// checkPartition asserts the live segments are disjoint valid placements
// covering every healthy processor exactly once.
func checkPartition(t *testing.T, x *control.Executor, sol *construct.Solution) {
	t.Helper()
	faults := x.Faults()
	segs := x.Segments()
	covered := make(map[int]string)
	for name, seg := range segs {
		if err := verify.CheckSegment(sol.Graph, faults, seg, seg); err != nil {
			t.Fatalf("tenant %s segment invalid: %v", name, err)
		}
		for _, v := range seg {
			if prev, dup := covered[v]; dup {
				t.Fatalf("processor %d granted to both %s and %s", v, prev, name)
			}
			covered[v] = name
		}
	}
	healthy := 0
	for _, p := range sol.Graph.Processors() {
		if !faults.Contains(p) {
			healthy++
		}
	}
	if len(covered) != healthy {
		t.Fatalf("partition covers %d processors, pool has %d healthy", len(covered), healthy)
	}
}

func TestExecutorBootstrapPartition(t *testing.T) {
	x, sol := mustExecutor(t, mixedTopo)
	defer x.Close()
	checkPartition(t, x, sol)
	if n, _ := x.Replans(); n != 1 {
		t.Fatalf("bootstrap replans = %d, want 1", n)
	}
	if err := x.Submit("nobody", pipeline.Frame{}); !errors.Is(err, control.ErrUnknownTenant) {
		t.Fatalf("Submit(nobody) = %v, want ErrUnknownTenant", err)
	}
}

// TestExecutorCoordinatedReplan drives traffic through all three tenants
// while pool faults and repairs arrive, and checks every replan keeps the
// partition valid and every tenant's lifetime audit clean.
func TestExecutorCoordinatedReplan(t *testing.T) {
	x, sol := mustExecutor(t, mixedTopo)
	tenants := []string{"gold-a", "silver-b", "bronze-c"}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, name := range tenants {
		wg.Add(1)
		go func(name string, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			seq := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf := x.GetBuffer(name, 128)
				for i := range buf {
					buf[i] = rng.NormFloat64()
				}
				err := x.Submit(name, pipeline.Frame{Seq: seq, Data: buf})
				switch {
				case err == nil:
					seq++
				case errors.Is(err, control.ErrBackpressure):
					// Bronze drop: seq NOT consumed, frame never entered.
				case errors.Is(err, control.ErrTenantShed):
					// Shed mid-run; keep polling for readmission.
				default:
					t.Errorf("Submit(%s): %v", name, err)
					return
				}
			}
		}(name, int64(len(name)))
	}

	procs := sol.Graph.Processors()
	faulted := []int{procs[1], procs[5], procs[9]}
	for _, node := range faulted {
		res, err := x.Inject(node)
		if err != nil {
			t.Fatalf("Inject(%d): %v", node, err)
		}
		if len(res.Affected)+len(res.Admitted)+len(res.Shed) == 0 {
			t.Fatalf("Inject(%d): replan moved no tenant", node)
		}
		checkPartition(t, x, sol)
	}
	for _, node := range faulted {
		if _, err := x.Repair(node); err != nil {
			t.Fatalf("Repair(%d): %v", node, err)
		}
		checkPartition(t, x, sol)
	}
	close(stop)
	wg.Wait()

	reports := x.Close()
	if len(reports) != 3 {
		t.Fatalf("reports = %d, want 3", len(reports))
	}
	for _, r := range reports {
		if !r.Stream.Clean() {
			t.Fatalf("tenant %s not clean: %+v", r.Tenant, r.Stream)
		}
		if r.Stream.Submitted == 0 {
			t.Fatalf("tenant %s moved no traffic", r.Tenant)
		}
	}
	if n, _ := x.Replans(); n != 7 { // bootstrap + 3 injects + 3 repairs
		t.Fatalf("replans = %d, want 7", n)
	}
}

// TestExecutorShedReadmit pins the capacity-shed cycle: floors that
// exactly fit the unfaulted pool force the lowest class out on the first
// fault and back in on the repair, on a fresh engine incarnation.
func TestExecutorShedReadmit(t *testing.T) {
	x, sol := mustExecutor(t, `{
	  "pool": {"n": 12, "k": 3},
	  "tenants": [
	    {"name": "g", "class": "gold", "min_procs": 8},
	    {"name": "s", "class": "silver", "min_procs": 5},
	    {"name": "b", "class": "bronze", "min_procs": 2}
	  ]
	}`)
	defer x.Close()
	node := sol.Graph.Processors()[0]

	res, err := x.Inject(node)
	if err != nil {
		t.Fatalf("Inject: %v", err)
	}
	found := false
	for _, name := range res.Shed {
		if name == "b" {
			found = true
		}
	}
	if !found {
		t.Fatalf("bronze not shed on capacity loss: %+v", res)
	}
	if err := x.Submit("b", pipeline.Frame{Seq: 0, Data: make([]float64, 8)}); !errors.Is(err, control.ErrTenantShed) {
		t.Fatalf("Submit(shed) = %v, want ErrTenantShed", err)
	}
	checkPartition(t, x, sol)

	res, err = x.Repair(node)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	found = false
	for _, name := range res.Admitted {
		if name == "b" {
			found = true
		}
	}
	if !found {
		t.Fatalf("bronze not readmitted after repair: %+v", res)
	}
	if err := x.Submit("b", pipeline.Frame{Seq: 0, Data: make([]float64, 8)}); err != nil {
		t.Fatalf("Submit after readmit: %v", err)
	}
	reports := x.Close()
	for _, r := range reports {
		if r.Tenant == "b" && r.Incarnations != 2 {
			t.Fatalf("bronze incarnations = %d, want 2", r.Incarnations)
		}
	}
}

// TestExecutorBudgetShed runs the planner without the asymptotic layout
// (so every solve costs real expansions) and gives one tenant a 1-node
// budget: its first charged replan must shed it permanently.
func TestExecutorBudgetShed(t *testing.T) {
	sol, err := construct.Design(12, 3)
	if err != nil {
		t.Fatalf("Design: %v", err)
	}
	bare := *sol
	bare.Layout = nil // force the searching tiers: expansions > 0
	topo, err := plan.Parse([]byte(`{
	  "pool": {"n": 12, "k": 3},
	  "tenants": [
	    {"name": "g", "class": "gold"},
	    {"name": "b", "class": "bronze", "budget": 1}
	  ]
	}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	x, err := control.New(&bare, topo, control.Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer x.Close()

	// Fresh fault sets until the budgeted tenant is charged past its
	// allowance (the bootstrap solve may already have done it).
	procs := sol.Graph.Processors()
	shed := false
	for i := 0; i < 3 && !shed; i++ {
		res, err := x.Inject(procs[i])
		if err != nil {
			t.Fatalf("Inject: %v", err)
		}
		for _, name := range res.Shed {
			if name == "b" {
				shed = true
			}
		}
		if _, ok := x.Segments()["b"]; !ok {
			shed = true
		}
	}
	if !shed {
		t.Fatal("budgeted tenant was never shed")
	}
	// Permanent: repairs do not readmit a budget-exhausted tenant.
	faults := x.Faults()
	for _, p := range procs {
		if faults.Contains(p) {
			if _, err := x.Repair(p); err != nil {
				t.Fatalf("Repair: %v", err)
			}
		}
	}
	if _, ok := x.Segments()["b"]; ok {
		t.Fatal("budget-exhausted tenant was readmitted")
	}
	var gSeg graph.Path
	for name, seg := range x.Segments() {
		if name == "g" {
			gSeg = seg
		}
	}
	if len(gSeg) != len(sol.Graph.Processors()) {
		t.Fatalf("surviving tenant holds %d procs, want the whole pool (%d)", len(gSeg), len(sol.Graph.Processors()))
	}
}
