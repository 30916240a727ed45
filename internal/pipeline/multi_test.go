package pipeline_test

import (
	"sync"
	"testing"

	"gdpn/internal/graph"
	"gdpn/internal/pipeline"
)

// TestMultiTenantDisjointStreams runs two placed engines concurrently over
// disjoint segments of one shared pool — the multi-tenant executor's
// steady state — and checks, under the race detector, that (a) each
// stream's sequence audit stays clean independently, (b) the delivered
// data of each tenant is bit-identical to its own sequential reference
// (a buffer leaked between the engines' free lists would corrupt content,
// not just counters), and (c) a coordinated boundary swap that
// remaps BOTH engines mid-traffic preserves all of the above.
func TestMultiTenantDisjointStreams(t *testing.T) {
	sol, interior := poolInterior(t, 12, 3)
	if len(interior) < 10 {
		t.Fatalf("interior too short: %d", len(interior))
	}
	cut := len(interior) / 2

	segsA := [2]graph.Path{interior[:cut], interior[:cut-2]} // initial, post-swap
	segsB := [2]graph.Path{interior[cut:], interior[cut-2:]} // disjoint complements
	engA, err := pipeline.NewPlaced(sol.Graph, segsA[0], testStages(), pipeline.WithTenant("a"))
	if err != nil {
		t.Fatalf("NewPlaced a: %v", err)
	}
	engB, err := pipeline.NewPlaced(sol.Graph, segsB[0], testStages(), pipeline.WithTenant("b"))
	if err != nil {
		t.Fatalf("NewPlaced b: %v", err)
	}

	const nFrames = 80
	// Distinct seeds per tenant: identical payloads would mask leakage.
	framesA := genFrames(nFrames, 256, 101)
	framesB := genFrames(nFrames, 256, 202)
	wantA := mustEngine(t, 12, 3).ProcessSequential(copyFrames(framesA))
	wantB := mustEngine(t, 12, 3).ProcessSequential(copyFrames(framesB))

	run := func(eng *pipeline.Engine, frames []pipeline.Frame, swapSeg graph.Path, swapAt int,
		gotOut *[]pipeline.Frame, repOut *pipeline.StreamReport, wg *sync.WaitGroup) {
		defer wg.Done()
		st, err := eng.StartStream(pipeline.StreamConfig{MaxPending: 16})
		if err != nil {
			t.Errorf("StartStream(%s): %v", eng.Tenant(), err)
			return
		}
		sink := make(chan []pipeline.Frame, 1)
		go func() {
			var got []pipeline.Frame
			for f := range st.Out() {
				// Copy out and recycle: exercises the lease cycle that a
				// cross-tenant leak would poison.
				got = append(got, pipeline.Frame{Seq: f.Seq, Data: append([]float64(nil), f.Data...)})
				eng.Recycle(f)
			}
			sink <- got
		}()
		for i, f := range frames {
			if i == swapAt {
				if err := eng.ApplyPlacement(swapSeg, nil); err != nil {
					t.Errorf("ApplyPlacement(%s): %v", eng.Tenant(), err)
					break
				}
			}
			buf := eng.GetBuffer(len(f.Data))
			copy(buf, f.Data)
			if err := st.Submit(pipeline.Frame{Seq: f.Seq, Data: buf}); err != nil {
				t.Errorf("Submit(%s): %v", eng.Tenant(), err)
				break
			}
		}
		*repOut = st.Close()
		*gotOut = <-sink
	}

	var gotA, gotB []pipeline.Frame
	var repA, repB pipeline.StreamReport
	var wg sync.WaitGroup
	wg.Add(2)
	// Staggered swap points: tenant B remaps while tenant A is mid-drain
	// some of the time, approximating a coordinated replan's overlap.
	go run(engA, framesA, segsA[1], nFrames/2, &gotA, &repA, &wg)
	go run(engB, framesB, segsB[1], nFrames/2+3, &gotB, &repB, &wg)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if !repA.Clean() {
		t.Fatalf("tenant a not clean: %+v", repA)
	}
	if !repB.Clean() {
		t.Fatalf("tenant b not clean: %+v", repB)
	}
	if repA.Remaps != 1 || repB.Remaps != 1 {
		t.Fatalf("remaps = %d/%d, want 1/1", repA.Remaps, repB.Remaps)
	}
	assertSameFrames(t, gotA, wantA)
	assertSameFrames(t, gotB, wantB)
}
