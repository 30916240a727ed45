package control_test

import (
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gdpn/internal/construct"
	"gdpn/internal/control"
	"gdpn/internal/graph"
	"gdpn/internal/obs"
	"gdpn/internal/obs/span"
	"gdpn/internal/pipeline"
	"gdpn/internal/plan"
	"gdpn/internal/reconfig"
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
// partition valid and every tenant's lifetime audit clean. Traffic stops
// only once every tenant has had a Submit accepted, so a loaded host that
// starves one tenant's goroutine through the six events delays the stop
// instead of failing the audit.
func TestExecutorCoordinatedReplan(t *testing.T) {
	x, sol := mustExecutor(t, mixedTopo)
	tenants := []string{"gold-a", "silver-b", "bronze-c"}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	accepted := make([]atomic.Int64, len(tenants))
	for i, name := range tenants {
		wg.Add(1)
		go func(i int, name string, seed int64) {
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
					accepted[i].Add(1)
				case errors.Is(err, control.ErrBackpressure):
					// Bronze drop: seq NOT consumed, frame never entered.
				case errors.Is(err, control.ErrTenantShed):
					// Shed mid-run; keep polling for readmission.
				default:
					t.Errorf("Submit(%s): %v", name, err)
					return
				}
			}
		}(i, name, int64(len(name)))
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
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		idle := -1
		for i := range accepted {
			if accepted[i].Load() == 0 {
				idle = i
				break
			}
		}
		if idle < 0 {
			break
		}
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			x.Close()
			t.Fatalf("tenant %s had no Submit accepted within 10s", tenants[idle])
		}
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

// bareG123 is G(12,3) without its asymptotic layout, so every full remap
// runs the searching tiers.
func bareG123(t *testing.T) *construct.Solution {
	t.Helper()
	sol, err := construct.Design(12, 3)
	if err != nil {
		t.Fatalf("Design: %v", err)
	}
	bare := *sol
	bare.Layout = nil
	return &bare
}

// probeFault returns, for the fault-free pipeline every planner over sol
// starts from, one processor whose fault a local tactic settles and one
// node whose fault needs the full-remap fallback.
func probeFault(t *testing.T, sol *construct.Solution) (local, full int) {
	t.Helper()
	local, full = -1, -1
	m, err := reconfig.New(sol)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range m.Pipeline() {
		m, err := reconfig.New(sol)
		if err != nil {
			t.Fatal(err)
		}
		tac, err := m.Fault(v)
		if err != nil {
			t.Fatalf("Fault(%d): %v", v, err)
		}
		switch {
		case tac == reconfig.FullRemap && full < 0:
			full = v
		case (tac == reconfig.Splice || tac == reconfig.Rewire) && local < 0:
			local = v
		}
	}
	if local < 0 || full < 0 {
		t.Fatalf("no local (%d) or full-remap (%d) fault on the pipeline", local, full)
	}
	return local, full
}

// TestExecutorReplanDeadlineRollsBack: ReplanDeadline bounds the replans
// that faults trigger. Under a 1ns deadline an Inject that needs a full
// remap fails with reconfig.ErrDeadline, the fault is rolled back, every
// placement is unchanged and no tenant stream counts a remap. The
// bootstrap plan is not bounded, so New succeeds.
func TestExecutorReplanDeadlineRollsBack(t *testing.T) {
	sol := bareG123(t)
	_, full := probeFault(t, sol)
	topo, err := plan.Parse([]byte(mixedTopo))
	if err != nil {
		t.Fatal(err)
	}
	x, err := control.New(sol, topo, control.Config{ReplanDeadline: time.Nanosecond})
	if err != nil {
		t.Fatalf("New under a 1ns replan deadline: %v", err)
	}
	before := x.Segments()
	if _, err := x.Inject(full); !errors.Is(err, reconfig.ErrDeadline) {
		t.Fatalf("Inject(%d) = %v, want an error wrapping reconfig.ErrDeadline", full, err)
	}
	if x.Faults().Contains(full) {
		t.Fatalf("fault %d not rolled back", full)
	}
	if after := x.Segments(); !reflect.DeepEqual(before, after) {
		t.Fatalf("placements changed by a rolled-back replan:\n%v\n%v", before, after)
	}
	for _, r := range x.Close() {
		if r.Stream.Remaps != 0 || r.Stream.RemapFailures != 0 {
			t.Fatalf("tenant %s stream counted %d remaps, %d failures for a rolled-back replan",
				r.Tenant, r.Stream.Remaps, r.Stream.RemapFailures)
		}
	}
}

// TestExecutorOneTreePerEvent is the executor's form of the manager's
// TestApplyOneTreePerEvent. A deadline miss and a local repair each yield
// exactly one "replan" root. The planner's plan span carries the
// manager's detect/plan phases, and the successful root carries one
// remap per moved tenant with the engine's drain under it. The miss trips
// exactly one remap_deadline dump and never reaches an engine. The remap
// SLO sees each event once, and the SLO counts one processor down per
// applied fault, not two.
func TestExecutorOneTreePerEvent(t *testing.T) {
	tr, slo, rec, reg := span.Default(), span.DefaultSLO(), span.DefaultRecorder(), obs.Default()
	wasObserving := reg.Enabled()
	reg.SetEnabled(true) // the SLO gauges record only while the registry is on
	slo.SetEnabled(true)
	dir := t.TempDir()
	if err := rec.Arm(span.RecorderConfig{Dir: dir, Cooldown: time.Nanosecond}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		rec.Disarm()
		slo.SetEnabled(false)
		reg.SetEnabled(wasObserving)
		tr.SetEnabled(false)
		tr.Reset()
	}()
	sloCounts := func() (remaps int64, procsDown int) {
		h := slo.Snapshot()
		for _, o := range h.Objectives {
			if o.Name == "remap" {
				remaps = o.Count
			}
		}
		for _, c := range h.Availability {
			if c.Class == graph.Processor.String() {
				procsDown = c.DownNow
			}
		}
		return remaps, procsDown
	}

	sol := bareG123(t)
	local, full := probeFault(t, sol)
	topo, err := plan.Parse([]byte(mixedTopo))
	if err != nil {
		t.Fatal(err)
	}
	x, err := control.New(sol, topo, control.Config{ReplanDeadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	remaps0, down0 := sloCounts()
	tr.Reset() // only the events' spans count, not the bootstrap's

	if _, err := x.Inject(full); !errors.Is(err, reconfig.ErrDeadline) {
		t.Fatalf("Inject(%d) = %v, want ErrDeadline", full, err)
	}
	res, err := x.Inject(local)
	if err != nil {
		t.Fatalf("Inject(%d): %v", local, err)
	}
	if len(res.Affected) == 0 || res.Expansions != 0 {
		t.Fatalf("local repair moved %v at %d expansions, want some tenant at 0", res.Affected, res.Expansions)
	}
	remaps, down := sloCounts()
	if remaps-remaps0 != 2 {
		t.Fatalf("remap SLO observed %d times, want once per event (2)", remaps-remaps0)
	}
	if down-down0 != 1 {
		t.Fatalf("SLO counts %d processors down after one applied fault, want 1", down-down0)
	}
	if g := reg.Gauge("slo_nodes_down", obs.L("class", "processor")); g.Value() != int64(down) {
		t.Fatalf("slo_nodes_down{class=processor} = %d, ledger says %d", g.Value(), down)
	}
	if written, _ := rec.Dumps(); written != 1 {
		t.Fatalf("flight recorder wrote %d dumps, want 1 (the deadline miss)", written)
	}
	if dumps, _ := filepath.Glob(filepath.Join(dir, "flight-*-"+string(span.AnomalyDeadline)+".json")); len(dumps) != 1 {
		t.Fatalf("remap_deadline dumps = %v, want exactly one", dumps)
	}

	var roots []span.Span
	kids := map[uint64][]span.Span{}
	for _, sp := range tr.Snapshot() {
		if sp.Parent == 0 {
			roots = append(roots, sp)
		} else {
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		}
	}
	names := func(id uint64) []string {
		var out []string
		for _, sp := range kids[id] {
			out = append(out, sp.Name)
		}
		return out
	}
	if len(roots) != 2 {
		t.Fatalf("got %d root spans %v, want one replan root per event", len(roots), roots)
	}
	for _, root := range roots {
		var planSpan *span.Span
		var remapped []string
		for i, c := range kids[root.ID] {
			switch c.Name {
			case "plan":
				planSpan = &kids[root.ID][i]
			case "remap":
				if !slices.Contains(names(c.ID), "drain") {
					t.Fatalf("remap of %v lacks the engine's drain: %v", c, names(c.ID))
				}
				tenant, _ := c.Attr("tenant")
				remapped = append(remapped, tenant)
			}
		}
		if root.Name != "replan" || planSpan == nil {
			t.Fatalf("root %s has children %v, want a replan with a plan span", root.Name, names(root.ID))
		}
		if phases := names(planSpan.ID); !slices.Contains(phases, "detect") || !slices.Contains(phases, "plan") {
			t.Fatalf("plan span children %v lack the manager's detect/plan phases", phases)
		}
		switch root.Status {
		case span.OK:
			if !slices.Equal(remapped, res.Affected) {
				t.Fatalf("replan remapped %v, result says %v", remapped, res.Affected)
			}
		case span.Deadline:
			if reason, _ := root.Attr("cancel_reason"); reason != "deadline" || len(remapped) != 0 {
				t.Fatalf("deadline root cancel_reason=%q remapped %v, want deadline and none", reason, remapped)
			}
		default:
			t.Fatalf("replan root status %v", root.Status)
		}
	}
	for _, r := range x.Close() {
		want := int64(0)
		if slices.Contains(res.Affected, r.Tenant) {
			want = 1
		}
		if !r.Stream.Clean() || r.Stream.Remaps != want {
			t.Fatalf("tenant %s stream %+v, want clean with %d remaps", r.Tenant, r.Stream, want)
		}
	}
}
