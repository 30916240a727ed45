package pipeline_test

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"gdpn/internal/construct"
	"gdpn/internal/pipeline"
	"gdpn/internal/reconfig"
	"gdpn/internal/stages"
)

// testStages builds a fresh copy of the full stage chain; FIR and LZ78
// carry internal state, so any frame lost, duplicated, or reordered by
// the stream shows up as diverging output, not just a miscount.
func testStages() []stages.Stage {
	return []stages.Stage{
		stages.NewSubsample(2),
		&stages.Rescale{Gain: 1.5, Offset: 0.1},
		stages.NewFIR([]float64{0.25, 0.5, 0.25}),
		stages.NewQuantize(-16, 16, 256),
		stages.NewLZ78(4096),
	}
}

func genFrames(n, size int, seed int64) []pipeline.Frame {
	rng := rand.New(rand.NewSource(seed))
	fs := make([]pipeline.Frame, n)
	for i := range fs {
		d := make([]float64, size)
		for j := range d {
			d[j] = rng.NormFloat64() * 4
		}
		fs[i] = pipeline.Frame{Seq: i, Data: d}
	}
	return fs
}

func copyFrames(fs []pipeline.Frame) []pipeline.Frame {
	out := make([]pipeline.Frame, len(fs))
	for i, f := range fs {
		out[i] = pipeline.Frame{Seq: f.Seq, Data: append([]float64(nil), f.Data...)}
	}
	return out
}

// managed returns a reconfig.Manager over sol and a placed engine on its
// interior: the single-pipeline pairing in which the manager plans each
// fault's pipeline and the engine runs it.
func managed(t testing.TB, sol *construct.Solution, stgs []stages.Stage, opts ...pipeline.Option) (*pipeline.Engine, *reconfig.Manager) {
	t.Helper()
	mgr, err := reconfig.New(sol)
	if err != nil {
		t.Fatalf("reconfig.New: %v", err)
	}
	eng, err := pipeline.NewPlaced(sol.Graph, mgr.Interior(), stgs, opts...)
	if err != nil {
		t.Fatalf("NewPlaced: %v", err)
	}
	return eng, mgr
}

// fault and repair apply one event: mgr plans it, eng runs the result.
func fault(mgr *reconfig.Manager, eng *pipeline.Engine, node int) error {
	return mgr.Apply(reconfig.OpFault, node, eng.ApplyPlacement)
}

func repair(mgr *reconfig.Manager, eng *pipeline.Engine, node int) error {
	return mgr.Apply(reconfig.OpRepair, node, eng.ApplyPlacement)
}

func mustEngine(t *testing.T, n, k int) *pipeline.Engine {
	t.Helper()
	sol, err := construct.Design(n, k)
	if err != nil {
		t.Fatalf("Design(%d,%d): %v", n, k, err)
	}
	eng, _ := managed(t, sol, testStages())
	return eng
}

func assertSameFrames(t *testing.T, got, want []pipeline.Frame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq {
			t.Fatalf("frame %d: seq %d, want %d", i, got[i].Seq, want[i].Seq)
		}
		if len(got[i].Data) != len(want[i].Data) {
			t.Fatalf("frame %d: %d samples, want %d", i, len(got[i].Data), len(want[i].Data))
		}
		for j := range want[i].Data {
			if got[i].Data[j] != want[i].Data[j] {
				t.Fatalf("frame %d sample %d: %v, want %v", i, j, got[i].Data[j], want[i].Data[j])
			}
		}
	}
}

// TestStreamMatchesSequentialReference streams frames with no faults and
// checks the output is bit-identical to the sequential reference engine.
func TestStreamMatchesSequentialReference(t *testing.T) {
	eng := mustEngine(t, 12, 3)
	ref := mustEngine(t, 12, 3)
	frames := genFrames(40, 256, 5)
	want := ref.ProcessSequential(copyFrames(frames))

	st, err := eng.StartStream(pipeline.StreamConfig{})
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}
	done := make(chan []pipeline.Frame)
	go func() {
		var got []pipeline.Frame
		for f := range st.Out() {
			got = append(got, f)
		}
		done <- got
	}()
	for _, f := range frames {
		if err := st.Submit(f); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	rep := st.Close()
	got := <-done
	if !rep.Clean() {
		t.Fatalf("stream not clean: %+v", rep)
	}
	assertSameFrames(t, got, want)
}

// TestStreamZeroLossAcrossRemaps interleaves live faults and repairs with
// traffic and checks (a) the zero-loss ledger and (b) that the delivered
// data is bit-identical to an unfaulted sequential run — which holds only
// if every requeued frame resumed at exactly the right stage, in order.
func TestStreamZeroLossAcrossRemaps(t *testing.T) {
	sol, err := construct.Design(12, 3)
	if err != nil {
		t.Fatalf("Design(12,3): %v", err)
	}
	eng, mgr := managed(t, sol, testStages())
	ref := mustEngine(t, 12, 3)
	frames := genFrames(120, 256, 9)
	want := ref.ProcessSequential(copyFrames(frames))

	st, err := eng.StartStream(pipeline.StreamConfig{MaxPending: 8})
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}
	done := make(chan []pipeline.Frame)
	go func() {
		var got []pipeline.Frame
		for f := range st.Out() {
			got = append(got, f)
		}
		done <- got
	}()

	procs := sol.Graph.Processors()
	remap := map[int]func() error{
		20:  func() error { return fault(mgr, eng, procs[0]) },
		40:  func() error { return fault(mgr, eng, procs[3]) },
		60:  func() error { return repair(mgr, eng, procs[0]) },
		80:  func() error { return fault(mgr, eng, procs[5]) },
		100: func() error { return repair(mgr, eng, procs[3]) },
	}
	for i, f := range frames {
		if err := st.Submit(f); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if op, ok := remap[i]; ok {
			if err := op(); err != nil {
				t.Fatalf("remap at frame %d: %v", i, err)
			}
		}
	}
	rep := st.Close()
	got := <-done
	if !rep.Clean() {
		t.Fatalf("stream not clean after remaps: %+v", rep)
	}
	if rep.Remaps != 5 {
		t.Fatalf("remaps = %d, want 5", rep.Remaps)
	}
	assertSameFrames(t, got, want)
}

// TestStreamBackpressure checks that with a tiny pending bound and a
// stalled consumer, Submit stops accepting rather than buffering without
// limit — and that everything still drains cleanly once the consumer
// starts.
func TestStreamBackpressure(t *testing.T) {
	eng := mustEngine(t, 10, 2)
	st, err := eng.StartStream(pipeline.StreamConfig{MaxPending: 2})
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}
	const total = 400
	frames := genFrames(total, 64, 3)
	producerDone := make(chan struct{})
	go func() {
		defer close(producerDone)
		for _, f := range frames {
			if st.Submit(f) != nil {
				return
			}
		}
	}()
	// No consumer yet: the producer must stall well short of total once the
	// pending bound, chain buffers, and delivery buffer are all full.
	deadline := time.Now().Add(2 * time.Second)
	var stalled int64
	for time.Now().Before(deadline) {
		a := st.Report().Submitted
		time.Sleep(50 * time.Millisecond)
		if b := st.Report().Submitted; b == a && b < total {
			stalled = b
			break
		}
	}
	if stalled == 0 || stalled >= total {
		t.Fatalf("producer never stalled (submitted=%d of %d)", st.Report().Submitted, total)
	}

	var got int
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for range st.Out() {
			got++
		}
	}()
	<-producerDone
	rep := st.Close()
	<-consumerDone
	if !rep.Clean() || rep.Delivered != total {
		t.Fatalf("after draining: delivered=%d (want %d), report %+v", rep.Delivered, total, rep)
	}
	if got != total {
		t.Fatalf("consumer saw %d frames, want %d", got, total)
	}
}

// TestStreamLifecycleErrors covers the exclusivity and closed-stream
// errors, and that a fresh stream can start after Close.
func TestStreamLifecycleErrors(t *testing.T) {
	eng := mustEngine(t, 10, 2)
	st, err := eng.StartStream(pipeline.StreamConfig{})
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}
	if _, err := eng.StartStream(pipeline.StreamConfig{}); !errors.Is(err, pipeline.ErrStreamActive) {
		t.Fatalf("second StartStream: %v, want ErrStreamActive", err)
	}
	go func() {
		for range st.Out() {
		}
	}()
	rep := st.Close()
	if !rep.Clean() {
		t.Fatalf("empty stream not clean: %+v", rep)
	}
	if err := st.Submit(pipeline.Frame{Seq: 0}); !errors.Is(err, pipeline.ErrStreamClosed) {
		t.Fatalf("Submit after Close: %v, want ErrStreamClosed", err)
	}
	// The engine is back in epoch mode and a new stream may start.
	st2, err := eng.StartStream(pipeline.StreamConfig{})
	if err != nil {
		t.Fatalf("StartStream after Close: %v", err)
	}
	go func() {
		for range st2.Out() {
		}
	}()
	if rep := st2.Close(); !rep.Clean() {
		t.Fatalf("second stream not clean: %+v", rep)
	}
}
