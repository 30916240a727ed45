package reconfig_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/graph"
	"gdpn/internal/pipeline"
	"gdpn/internal/reconfig"
	"gdpn/internal/stages"
	"gdpn/internal/verify"
)

func manager(t testing.TB, n, k int) *reconfig.Manager {
	t.Helper()
	sol, err := construct.Design(n, k)
	if err != nil {
		t.Fatalf("Design(%d,%d): %v", n, k, err)
	}
	m, err := reconfig.New(sol)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustValid(t *testing.T, m *reconfig.Manager, g *graph.Graph) {
	t.Helper()
	if err := verify.CheckPipeline(g, m.Faults(), m.Pipeline()); err != nil {
		t.Fatalf("invalid pipeline after repair: %v", err)
	}
}

func TestFaultOffPipelineIsNoChange(t *testing.T) {
	sol, _ := construct.Design(8, 2)
	m, err := reconfig.New(sol)
	if err != nil {
		t.Fatal(err)
	}
	// Find a terminal not used by the current pipeline.
	used := map[int]bool{}
	for _, v := range m.Pipeline() {
		used[v] = true
	}
	victim := -1
	for _, ti := range sol.Graph.InputTerminals() {
		if !used[ti] {
			victim = ti
			break
		}
	}
	if victim == -1 {
		t.Fatal("no unused terminal")
	}
	tac, err := m.Fault(victim)
	if err != nil || tac != reconfig.NoChange {
		t.Fatalf("tactic %v err %v, want no-change", tac, err)
	}
	if m.Stats().NoChange != 1 {
		t.Fatalf("stats %+v", m.Stats())
	}
	mustValid(t, m, sol.Graph)
}

func TestInteriorFaultRepairs(t *testing.T) {
	sol, _ := construct.Design(12, 3)
	m, err := reconfig.New(sol)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p := m.Pipeline()
		victim := p[len(p)/2]
		tac, err := m.Fault(victim)
		if err != nil {
			t.Fatalf("fault %d: %v", i, err)
		}
		if tac == reconfig.NoChange {
			t.Fatalf("interior fault reported no-change")
		}
		mustValid(t, m, sol.Graph)
	}
	if got := len(m.Pipeline()) - 2; got != 12 {
		t.Fatalf("processors in use %d, want 12 (all healthy)", got)
	}
}

func TestEndpointTerminalSwap(t *testing.T) {
	sol, _ := construct.Design(10, 2)
	m, err := reconfig.New(sol)
	if err != nil {
		t.Fatal(err)
	}
	first := m.Pipeline()[0]
	if sol.Graph.Kind(first) != graph.InputTerminal && sol.Graph.Kind(first) != graph.OutputTerminal {
		t.Fatal("pipeline does not start with a terminal")
	}
	tac, err := m.Fault(first)
	if err != nil {
		t.Fatal(err)
	}
	mustValid(t, m, sol.Graph)
	// G(10,2) terminals have degree 1, so the border processor has exactly
	// one terminal of each kind; an endpoint swap is impossible and a full
	// remap (or rewire path) is expected — whatever happened must be valid.
	_ = tac
}

func TestRepairReinsertsProcessor(t *testing.T) {
	sol, _ := construct.Design(9, 2)
	m, err := reconfig.New(sol)
	if err != nil {
		t.Fatal(err)
	}
	victim := m.Pipeline()[4]
	if _, err := m.Fault(victim); err != nil {
		t.Fatal(err)
	}
	mustValid(t, m, sol.Graph)
	if len(m.Pipeline())-2 != 10 { // 11 processors − 1 fault
		t.Fatalf("coverage %d", len(m.Pipeline())-2)
	}
	tac, err := m.Repair(victim)
	if err != nil {
		t.Fatal(err)
	}
	if tac != reconfig.Insert && tac != reconfig.FullRemap {
		t.Fatalf("tactic %v", tac)
	}
	mustValid(t, m, sol.Graph)
	if len(m.Pipeline())-2 != 11 {
		t.Fatalf("repaired processor not reinstated: coverage %d", len(m.Pipeline())-2)
	}
}

// TestDesignAndPipelineLifecycle designs G(10,2), takes up to k faults
// on the pipeline and repairs one: every pipeline the manager holds is a
// certified one over all healthy processors.
func TestDesignAndPipelineLifecycle(t *testing.T) {
	sol, err := construct.Design(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sol.N != 10 || sol.K != 2 {
		t.Fatalf("N/K = %d/%d", sol.N, sol.K)
	}
	m, err := reconfig.New(sol)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Pipeline()
	if len(p) != 12+2 { // n+k processors + 2 terminals
		t.Fatalf("pipeline length %d", len(p))
	}
	victims := []int{p[1], p[5]}
	for i, v := range victims {
		if _, err := m.Fault(v); err != nil {
			t.Fatalf("after %d faults: %v", i+1, err)
		}
		mustValid(t, m, sol.Graph)
		if got := len(m.Pipeline()) - 2; got != 12-(i+1) {
			t.Fatalf("pipeline uses %d processors, %d healthy", got, 12-(i+1))
		}
	}
	if _, err := m.Repair(victims[0]); err != nil {
		t.Fatal(err)
	}
	mustValid(t, m, sol.Graph)
	if m.Faults().Count() != 1 || len(m.Pipeline())-2 != 11 {
		t.Fatalf("after a repair: %d faults, %d processors in the pipeline", m.Faults().Count(), len(m.Pipeline())-2)
	}
}

func TestFaultErrors(t *testing.T) {
	m := manager(t, 6, 2)
	if _, err := m.Fault(-1); err == nil {
		t.Fatal("negative accepted")
	}
	if _, err := m.Fault(1 << 20); err == nil {
		t.Fatal("out of range accepted")
	}
	if _, err := m.Fault(0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fault(0); err == nil {
		t.Fatal("double fault accepted")
	}
	if _, err := m.Repair(1); err == nil {
		t.Fatal("repair of healthy node accepted")
	}
}

func TestBeyondBudgetRollsBack(t *testing.T) {
	sol, _ := construct.Design(4, 1)
	m, err := reconfig.New(sol)
	if err != nil {
		t.Fatal(err)
	}
	ins := sol.Graph.InputTerminals() // k+1 = 2 terminals
	if _, err := m.Fault(ins[0]); err != nil {
		t.Fatal(err)
	}
	before := append(graph.Path(nil), m.Pipeline()...)
	if _, err := m.Fault(ins[1]); err == nil {
		t.Fatal("no error with all inputs dead")
	}
	// Rolled back: previous pipeline still valid, fault not recorded.
	if m.Faults().Contains(ins[1]) {
		t.Fatal("failed fault not rolled back")
	}
	mustValid(t, m, sol.Graph)
	if len(before) != len(m.Pipeline()) {
		t.Fatal("pipeline replaced despite failure")
	}
}

func TestRandomSoakAlwaysValid(t *testing.T) {
	// Fault/repair churn across several designs while frames stream
	// continuously through the live engine: every intermediate pipeline
	// must be a valid full-coverage pipeline AND the concurrent traffic
	// must come out with zero loss, duplication, or reordering.
	for _, c := range []struct{ n, k int }{{10, 2}, {14, 3}, {22, 4}, {40, 4}} {
		sol, err := construct.Design(c.n, c.k)
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := reconfig.New(sol)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := pipeline.NewPlaced(sol.Graph, mgr.Interior(), []stages.Stage{
			stages.NewFIR([]float64{0.5, 0.5}),
			stages.NewQuantize(-8, 8, 64),
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := eng.StartStream(pipeline.StreamConfig{MaxPending: 8})
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // producer: continuous traffic through every remap
			defer wg.Done()
			data := make([]float64, 64)
			for i := range data {
				data[i] = float64(i%7) - 3
			}
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				f := pipeline.Frame{Seq: seq, Data: append([]float64(nil), data...)}
				if st.Submit(f) != nil {
					return
				}
			}
		}()
		consumerDone := make(chan struct{})
		go func() {
			defer close(consumerDone)
			for range st.Out() {
			}
		}()

		rng := rand.New(rand.NewSource(int64(c.n)))
		for step := 0; step < 300; step++ {
			if mgr.Faults().Count() < c.k && rng.Intn(2) == 0 {
				v := rng.Intn(sol.Graph.NumNodes())
				if !mgr.Faults().Contains(v) {
					if err := mgr.Apply(reconfig.OpFault, v, eng.ApplyPlacement); err != nil {
						t.Fatalf("(%d,%d) step %d: %v", c.n, c.k, step, err)
					}
				}
			} else if mgr.Faults().Count() > 0 {
				fs := mgr.Faults().Slice()
				if err := mgr.Apply(reconfig.OpRepair, fs[rng.Intn(len(fs))], eng.ApplyPlacement); err != nil {
					t.Fatalf("(%d,%d) step %d: %v", c.n, c.k, step, err)
				}
			}
			if err := verify.CheckPipeline(sol.Graph, mgr.Faults(), mgr.Pipeline()); err != nil {
				t.Fatalf("(%d,%d) step %d: invalid pipeline: %v", c.n, c.k, step, err)
			}
		}

		close(stop)
		wg.Wait()
		rep := st.Close()
		<-consumerDone
		if !rep.Clean() {
			t.Fatalf("(%d,%d): stream not clean after churn: %+v", c.n, c.k, rep)
		}
		if rep.Submitted == 0 {
			t.Fatalf("(%d,%d): no traffic flowed during the soak", c.n, c.k)
		}

		stats := mgr.Stats()
		total := stats.NoChange + stats.Splice + stats.Rewire + stats.EndpointSwap + stats.Insert + stats.FullRemap
		if total == 0 {
			t.Fatalf("(%d,%d): no repairs recorded", c.n, c.k)
		}
		// Local tactics must carry a meaningful share.
		local := stats.Splice + stats.Rewire + stats.EndpointSwap + stats.Insert + stats.NoChange
		if local == 0 {
			t.Errorf("(%d,%d): every repair was a full remap: %+v", c.n, c.k, stats)
		}
	}
}

func TestAccessorsReturnDefensiveCopies(t *testing.T) {
	m := manager(t, 10, 2)
	if _, err := m.Fault(0); err != nil {
		t.Fatal(err)
	}
	f := m.Faults()
	f.Remove(0)
	f.Add(1)
	if !m.Faults().Contains(0) {
		t.Fatal("mutating the set returned by Faults() removed a fault from the manager")
	}
	if m.Faults().Contains(1) {
		t.Fatal("mutating the set returned by Faults() added a fault to the manager")
	}
	before := m.Stats()
	s := m.Stats()
	s.FullRemap += 100
	s.NoChange += 100
	if m.Stats() != before {
		t.Fatal("mutating the Stats() result changed the manager's counters")
	}
}

func TestRemapDeadlineRollsBack(t *testing.T) {
	// G(10,2) terminals have degree 1, so faulting a pipeline endpoint
	// cannot be endpoint-swapped and must go through the full solver —
	// which a 1ns deadline always fails, forcing the rollback path.
	sol, err := construct.Design(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := reconfig.New(sol)
	if err != nil {
		t.Fatal(err)
	}
	m.SetResources(embed.Scoped(nil, time.Nanosecond))
	before := append(graph.Path(nil), m.Pipeline()...)
	victim := before[0]
	_, err = m.Fault(victim)
	if !errors.Is(err, reconfig.ErrDeadline) {
		t.Fatalf("Fault(%d) = %v, want ErrDeadline", victim, err)
	}
	// Rolled back: fault bit reverted, previous pipeline still live+valid.
	if m.Faults().Contains(victim) {
		t.Fatal("deadline rollback left the fault recorded")
	}
	mustValid(t, m, sol.Graph)
	if len(m.Pipeline()) != len(before) {
		t.Fatal("pipeline replaced despite deadline rollback")
	}
	ds := m.Downtime()
	if ds.Rollbacks < 1 || ds.RollbackTime <= 0 {
		t.Fatalf("rollback not accounted: %+v", ds)
	}
	// With the bound lifted the same fault must succeed.
	m.SetResources(nil)
	if _, err := m.Fault(victim); err != nil {
		t.Fatalf("retry after lifting deadline: %v", err)
	}
	mustValid(t, m, sol.Graph)
	if m.Downtime().PerTactic[reconfig.FullRemap] <= 0 {
		t.Fatalf("full-remap downtime not recorded: %+v", m.Downtime())
	}
	// A generous deadline does not get in the way.
	m.SetResources(embed.Scoped(nil, time.Hour))
	if _, err := m.Repair(victim); err != nil {
		t.Fatalf("repair under generous deadline: %v", err)
	}
	mustValid(t, m, sol.Graph)
}

func TestTacticString(t *testing.T) {
	names := map[reconfig.Tactic]string{
		reconfig.NoChange: "no-change", reconfig.Splice: "splice",
		reconfig.Rewire: "rewire", reconfig.EndpointSwap: "endpoint-swap",
		reconfig.Insert: "insert", reconfig.FullRemap: "full-remap",
		reconfig.Tactic(77): "tactic(77)",
	}
	for tac, want := range names {
		if tac.String() != want {
			t.Errorf("%d.String() = %q, want %q", tac, tac.String(), want)
		}
	}
}
