// Scale and endurance tests: large-n construction and reconfiguration,
// concurrent solver pools, and a long fault/repair soak on the streaming
// runtime. Skipped under -short.
package gdpn_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gdpn/internal/bitset"
	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/pipeline"
	"gdpn/internal/reconfig"
	"gdpn/internal/stages"
	"gdpn/internal/verify"
)

func TestStressLargeNetworkReconfiguration(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	// 100k-stage pipeline tolerating 8 faults: build once, reconfigure
	// under many random fault sets, certificate-check everything.
	g, lay, err := construct.Asymptotic(100_000, 8)
	if err != nil {
		t.Fatal(err)
	}
	s := embed.NewSolver(g, embed.Options{Layout: lay})
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		faults := bitset.New(g.NumNodes())
		for faults.Count() < 8 {
			faults.Add(rng.Intn(g.NumNodes()))
		}
		r := s.Find(faults)
		if !r.Found {
			t.Fatalf("trial %d: no pipeline (unknown=%v)", trial, r.Unknown)
		}
		if err := verify.CheckPipeline(g, faults, r.Pipeline); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	st := s.Stats()
	if st.Planner != st.Total() {
		t.Logf("planner handled %d/%d (rest fell through)", st.Planner, st.Total())
	}
}

func TestStressConcurrentSolvers(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	// One shared graph, many goroutines with private solvers — exercises
	// the concurrent-reader guarantee of the graph substrate.
	sol, err := construct.Design(200, 6)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := embed.NewSolver(sol.Graph, embed.Options{Layout: sol.Layout})
			rng := rand.New(rand.NewSource(int64(w)))
			for trial := 0; trial < 300; trial++ {
				faults := bitset.New(sol.Graph.NumNodes())
				for faults.Count() < rng.Intn(7) {
					faults.Add(rng.Intn(sol.Graph.NumNodes()))
				}
				r := s.Find(faults)
				if !r.Found {
					errs <- fmt.Errorf("worker %d trial %d: not found", w, trial)
					return
				}
				if err := verify.CheckPipeline(sol.Graph, faults, r.Pipeline); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestStressFaultRepairSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	// Long soak: inject up to k faults, repair some, inject again — the
	// manager must always hold a certified pipeline over every healthy
	// processor while within budget.
	sol, err := construct.Design(50, 4)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := reconfig.New(sol)
	if err != nil {
		t.Fatal(err)
	}
	g := sol.Graph
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 2000; step++ {
		faults := mgr.Faults()
		if faults.Count() < 4 && rng.Intn(2) == 0 {
			if v := rng.Intn(g.NumNodes()); !faults.Contains(v) {
				if _, err := mgr.Fault(v); err != nil {
					t.Fatalf("step %d (faults %v): %v", step, faults.Slice(), err)
				}
			}
		} else if faults.Count() > 0 {
			f := faults.Slice()
			if _, err := mgr.Repair(f[rng.Intn(len(f))]); err != nil {
				t.Fatal(err)
			}
		}
		faults = mgr.Faults()
		if err := verify.CheckPipeline(g, faults, mgr.Pipeline()); err != nil {
			t.Fatalf("step %d (faults %v): %v", step, faults.Slice(), err)
		}
		healthy := 0
		for _, p := range g.Processors() {
			if !faults.Contains(p) {
				healthy++
			}
		}
		if len(mgr.Pipeline())-2 != healthy {
			t.Fatalf("step %d: coverage %d != healthy %d", step, len(mgr.Pipeline())-2, healthy)
		}
	}
}

func TestStressStreamingSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	sol, err := construct.Design(30, 4)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := reconfig.New(sol)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pipeline.NewPlaced(sol.Graph, mgr.Interior(), []stages.Stage{
		stages.NewSubsample(2),
		stages.NewFIR([]float64{0.3, 0.4, 0.3}),
		stages.NewQuantize(-8, 8, 128),
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	total := 0
	for epoch := 0; epoch < 40; epoch++ {
		frames := make([]pipeline.Frame, 8)
		for i := range frames {
			data := make([]float64, 256)
			for j := range data {
				data[j] = rng.NormFloat64()
			}
			frames[i] = pipeline.Frame{Seq: total + i, Data: data}
		}
		out := eng.Process(frames)
		if len(out) != len(frames) {
			t.Fatalf("epoch %d: lost frames", epoch)
		}
		total += len(out)
		// Every 10th epoch, inject a processor fault if budget remains.
		if epoch%10 == 9 && mgr.Faults().Count() < 4 {
			victims := mgr.Pipeline()
			v := victims[1+rng.Intn(len(victims)-2)]
			if err := mgr.Apply(reconfig.OpFault, v, eng.ApplyPlacement); err != nil {
				t.Fatalf("epoch %d: %v", epoch, err)
			}
		}
	}
	if eng.Metrics().FramesProcessed != int64(total) || total != 320 {
		t.Fatalf("metrics %+v, total %d", eng.Metrics(), total)
	}
}
