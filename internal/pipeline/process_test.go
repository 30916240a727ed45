package pipeline_test

import (
	"errors"
	"testing"

	"gdpn/internal/construct"
	"gdpn/internal/graph"
	"gdpn/internal/pipeline"
	"gdpn/internal/stages"
)

// TestProcessBackToBackDetachesStream runs Process epochs back to back
// (the race detector watches the stream handoff) and checks that each
// call has detached its stream before returning: a stream starts right
// after every call, and the epochs together equal the sequential
// reference, stage state included.
func TestProcessBackToBackDetachesStream(t *testing.T) {
	eng := mustEngine(t, 12, 3)
	ref := mustEngine(t, 12, 3)
	frames := genFrames(60, 128, 31)
	want := ref.ProcessSequential(copyFrames(frames))
	var got []pipeline.Frame
	for i := 0; i < len(frames); i += 6 {
		got = append(got, eng.Process(frames[i:i+6])...)
		st, err := eng.StartStream(pipeline.StreamConfig{})
		if err != nil {
			t.Fatalf("StartStream after Process epoch %d: %v", i/6, err)
		}
		if rep := st.Close(); !rep.Clean() {
			t.Fatalf("empty stream not clean: %+v", rep)
		}
	}
	assertSameFrames(t, got, want)
}

// TestProcessLeavesInputsUntouched checks that Process copies its inputs
// before the chain touches them: even a first stage that rewrites its
// input in place leaves the caller's frames byte-identical, so callers
// may reuse them.
func TestProcessLeavesInputsUntouched(t *testing.T) {
	scribble := func() []stages.Stage {
		return append([]stages.Stage{&stages.Func{Label: "negate-in-place", Fn: func(in []float64) []float64 {
			for i := range in {
				in[i] = -in[i]
			}
			return in
		}}}, testStages()...)
	}
	sol, err := construct.Design(10, 2)
	if err != nil {
		t.Fatalf("Design(10,2): %v", err)
	}
	eng, _ := managed(t, sol, scribble())
	ref, _ := managed(t, sol, scribble())
	frames := genFrames(24, 96, 17)
	orig := copyFrames(frames)
	got := eng.Process(frames)
	assertSameFrames(t, frames, orig)
	assertSameFrames(t, got, ref.ProcessSequential(copyFrames(orig)))
}

// TestProcessAfterPlacementMatchesSequential grows, shrinks and shifts a
// placed engine's segment between Process epochs; the concatenated output
// must equal the sequential reference, which ignores placement.
func TestProcessAfterPlacementMatchesSequential(t *testing.T) {
	sol, interior := poolInterior(t, 12, 3)
	eng, err := pipeline.NewPlaced(sol.Graph, interior[:4], testStages())
	if err != nil {
		t.Fatalf("NewPlaced: %v", err)
	}
	ref := mustEngine(t, 12, 3)
	frames := genFrames(50, 128, 41)
	want := ref.ProcessSequential(copyFrames(frames))
	placements := []graph.Path{interior, interior[6:9], interior[3:]}
	var got []pipeline.Frame
	for i, seg := range placements {
		got = append(got, eng.Process(frames[i*10:(i+1)*10])...)
		if err := eng.ApplyPlacement(seg, nil); err != nil {
			t.Fatalf("ApplyPlacement %d: %v", i, err)
		}
	}
	got = append(got, eng.Process(frames[len(placements)*10:])...)
	assertSameFrames(t, got, want)
	if m := eng.Metrics(); m.Remaps != len(placements) || m.FramesProcessed != int64(len(frames)) {
		t.Fatalf("metrics %+v", m)
	}
}

// TestProcessPoolMissesFlat recycles every output and checks that free
// list misses stop growing after the first epoch: Process keeps the
// engine's lists across calls instead of resizing (and so emptying) them.
func TestProcessPoolMissesFlat(t *testing.T) {
	eng := mustEngineOpts(t, 12, 3)
	frames := genFrames(32, 64, 5)
	epoch := func() {
		for _, f := range eng.Process(frames) {
			eng.Recycle(f)
		}
	}
	epoch()
	_, warm := eng.PoolStats()
	for i := 0; i < 50; i++ {
		epoch()
	}
	if _, misses := eng.PoolStats(); misses != warm {
		t.Fatalf("pool misses grew from %d after the first epoch to %d after 50 more", warm, misses)
	}
}

// TestProcessPanicsOnLiveStream pins Process's exclusivity with a
// caller-run stream.
func TestProcessPanicsOnLiveStream(t *testing.T) {
	eng := mustEngine(t, 10, 2)
	st, err := eng.StartStream(pipeline.StreamConfig{})
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}
	defer st.Close()
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, pipeline.ErrStreamActive) {
			t.Fatalf("Process during a live stream: recovered %v, want ErrStreamActive", err)
		}
	}()
	eng.Process(genFrames(1, 8, 1))
}
