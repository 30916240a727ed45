package pipeline_test

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"gdpn/internal/construct"
	"gdpn/internal/pipeline"
	"gdpn/internal/reconfig"
	"gdpn/internal/stages"
)

// mustEngineOpts is mustEngine with transport options.
func mustEngineOpts(t *testing.T, n, k int, opts ...pipeline.Option) *pipeline.Engine {
	t.Helper()
	sol, err := construct.Design(n, k)
	if err != nil {
		t.Fatalf("Design(%d,%d): %v", n, k, err)
	}
	eng, _ := managed(t, sol, testStages(), opts...)
	return eng
}

// TestStreamRemapAtEveryBatchOffset forces a remap after j frames for
// every batch offset j in {0, 1, mid, last} (batch size 4), so a live
// drain catches partially assembled and partially traveled batches at
// each alignment, and asserts the delivered frames are bit-identical to
// the sequential reference. The same remap points split an epoch-mode
// Process run. Each chain has a stateful FIR, so any skipped, repeated,
// or reordered frame is visible in the data. The chains cover every way
// a worker places a stage's output: copied back into the token's own
// buffer (full), a leased larger buffer when an FFT doubles the frame and
// a copy back when the IFFT halves it (spectral), and a stage returning
// its own input, which the stream copies onto itself and Process copies
// out of the caller's frame (identity).
func TestStreamRemapAtEveryBatchOffset(t *testing.T) {
	const batch = 4
	identity := func() stages.Stage {
		return &stages.Func{Label: "identity", Fn: func(in []float64) []float64 { return in }}
	}
	chains := []struct {
		name  string
		build func() []stages.Stage
	}{
		{"full", testStages},
		{"spectral", func() []stages.Stage {
			return []stages.Stage{
				stages.NewFIR([]float64{0.25, 0.5, 0.25}),
				stages.NewFFT(),
				&stages.SpectralGate{Threshold: 2},
				stages.NewIFFT(),
			}
		}},
		{"identity", func() []stages.Stage {
			return []stages.Stage{
				identity(),
				stages.NewFIR([]float64{0.25, 0.5, 0.25}),
				identity(),
				stages.NewQuantize(-16, 16, 256),
			}
		}},
	}
	sol, err := construct.Design(12, 3)
	if err != nil {
		t.Fatalf("Design(12,3): %v", err)
	}
	procs := sol.Graph.Processors()
	newEngine := func(build func() []stages.Stage) (*pipeline.Engine, *reconfig.Manager) {
		return managed(t, sol, build(), pipeline.WithBatchSize(batch))
	}
	// keep copies a delivered frame out and recycles its buffer, so later
	// leases reuse storage of every size the chain produced.
	keep := func(eng *pipeline.Engine, f pipeline.Frame) pipeline.Frame {
		c := pipeline.Frame{Seq: f.Seq, Data: append([]float64(nil), f.Data...)}
		eng.Recycle(f)
		return c
	}
	for _, ch := range chains {
		for _, offset := range []int{0, 1, batch / 2, batch - 1} {
			frames := genFrames(3*batch+batch/2, 128, int64(11+offset))
			ref, _ := newEngine(ch.build)
			want := ref.ProcessSequential(copyFrames(frames))
			inject, repairAt := offset, offset+batch+1

			eng, mgr := newEngine(ch.build)
			st, err := eng.StartStream(pipeline.StreamConfig{MaxPending: 2 * batch})
			if err != nil {
				t.Fatalf("StartStream: %v", err)
			}
			done := make(chan []pipeline.Frame)
			go func() {
				var got []pipeline.Frame
				for f := range st.Out() {
					got = append(got, keep(eng, f))
				}
				done <- got
			}()
			for i, f := range copyFrames(frames) {
				if err := st.Submit(f); err != nil {
					t.Fatalf("%s offset %d: Submit %d: %v", ch.name, offset, i, err)
				}
				switch i {
				case inject:
					if err := fault(mgr, eng, procs[1]); err != nil {
						t.Fatalf("%s offset %d: inject: %v", ch.name, offset, err)
					}
				case repairAt:
					if err := repair(mgr, eng, procs[1]); err != nil {
						t.Fatalf("%s offset %d: repair: %v", ch.name, offset, err)
					}
				}
			}
			rep := st.Close()
			got := <-done
			if !rep.Clean() {
				t.Fatalf("%s offset %d: stream not clean: %+v", ch.name, offset, rep)
			}
			if rep.Remaps != 2 {
				t.Fatalf("%s offset %d: remaps = %d, want 2", ch.name, offset, rep.Remaps)
			}
			assertSameFrames(t, got, want)

			// Epoch mode: the same remap points fall between Process calls,
			// and the input frames stay caller-owned.
			eng, mgr = newEngine(ch.build)
			in := copyFrames(frames)
			got = nil
			for _, epoch := range [][]pipeline.Frame{in[:inject+1], in[inject+1 : repairAt+1], in[repairAt+1:]} {
				for _, f := range eng.Process(epoch) {
					got = append(got, keep(eng, f))
				}
				if len(got) == inject+1 {
					if err := fault(mgr, eng, procs[1]); err != nil {
						t.Fatalf("%s offset %d: epoch inject: %v", ch.name, offset, err)
					}
				} else if len(got) == repairAt+1 {
					if err := repair(mgr, eng, procs[1]); err != nil {
						t.Fatalf("%s offset %d: epoch repair: %v", ch.name, offset, err)
					}
				}
			}
			assertSameFrames(t, got, want)
			assertSameFrames(t, in, frames)
		}
	}
}

// TestBufferPoolRoundTrip pins the GetBuffer/Recycle contract: a recycled
// buffer satisfies the next lease without allocating new storage.
func TestBufferPoolRoundTrip(t *testing.T) {
	eng := mustEngineOpts(t, 10, 2)
	d := eng.GetBuffer(256)
	if len(d) != 256 {
		t.Fatalf("GetBuffer(256) returned len %d", len(d))
	}
	eng.Recycle(pipeline.Frame{Seq: 0, Data: d})
	d2 := eng.GetBuffer(128)
	if len(d2) != 128 {
		t.Fatalf("GetBuffer(128) returned len %d", len(d2))
	}
	if &d[0] != &d2[0] {
		t.Fatalf("recycled storage was not reused")
	}
	hits, misses := eng.PoolStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("PoolStats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
}

// TestStreamSteadyStateZeroAlloc is the zero-allocation contract of the
// batched transport, measured on the engine: with the producer leasing
// buffers from the engine and the consumer recycling delivered frames,
// every free-list miss creates a buffer that stays in circulation, so
// lifetime misses can never exceed the frames the stream can have
// outstanding at once. That bound B is computed from the same constants
// StartStream uses. The run is long enough (30·B frames) that a leak of
// even one buffer per 30 frames would cross it. A second assertion checks
// the process: allocations must not grow with frame count, so a 20·B-frame
// window may allocate no more than the 10·B-frame window before it (which
// includes the warm-up) plus a fixed slack for runtime noise. The chain is
// the light one — LZ78 allocates inside its own dictionary, which is
// stage compute, not transport.
func TestStreamSteadyStateZeroAlloc(t *testing.T) {
	sol, err := construct.Design(12, 3)
	if err != nil {
		t.Fatalf("Design(12,3): %v", err)
	}
	eng, _ := managed(t, sol, lightStages())
	const maxPending = 64
	st, err := eng.StartStream(pipeline.StreamConfig{MaxPending: maxPending})
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for f := range st.Out() {
			eng.Recycle(f)
		}
	}()

	// One frame in the producer's hand, the submit buffer (one batch), the
	// pending backlog, the in-flight bound (two batches per position, plus
	// the last admitted batch), the Out buffer (backlog plus in-flight
	// bound), one frame in the consumer's hand.
	const bs = pipeline.DefaultBatchSize
	inflight := 2 * (len(sol.Graph.Processors()) + 1) * bs
	bound := 1 + bs + maxPending + inflight + bs + maxPending + inflight + 1

	const size = 256
	template := genFrames(1, size, 7)[0].Data
	seq := 0
	pump := func(n int) (allocs uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			d := eng.GetBuffer(size)
			copy(d, template)
			if err := st.Submit(pipeline.Frame{Seq: seq, Data: d}); err != nil {
				t.Fatalf("Submit: %v", err)
			}
			seq++
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	short := pump(10 * bound)
	long := pump(20 * bound)

	rep := st.Close()
	<-consumed
	if !rep.Clean() {
		t.Fatalf("stream not clean: %+v", rep)
	}
	_, misses := eng.PoolStats()
	t.Logf("bound %d: %d misses over %d frames; allocs %d (10·B window), %d (20·B window)",
		bound, misses, seq, short, long)
	if misses > int64(bound) {
		t.Errorf("%d free-list misses over %d frames, want <= %d (the outstanding-frame bound)",
			misses, seq, bound)
	}
	const slack = 64
	if long > short+slack {
		t.Errorf("allocations grow with frame count: %d over %d frames vs %d over %d frames (slack %d)",
			long, 20*bound, short, 10*bound, slack)
	}
}

// TestStreamShortSegmentPoolBound checks that a placed engine's in-flight
// bound, and so its free lists, follow its own chain rather than the
// pool: a 3-processor segment of G(12,3) keeps lifetime free-list misses
// within the outstanding-frame bound of a 3-processor chain over 30 times
// that many frames, even with a consumer that pauses long enough for
// every buffer on the way (Out included) to fill. The segment then grows
// to the full interior mid-stream; the bound grows with it, and the
// stream stays clean and within the sum of both bounds.
func TestStreamShortSegmentPoolBound(t *testing.T) {
	sol, interior := poolInterior(t, 12, 3)
	eng, err := pipeline.NewPlaced(sol.Graph, interior[:3], lightStages())
	if err != nil {
		t.Fatalf("NewPlaced: %v", err)
	}
	const maxPending = 64
	st, err := eng.StartStream(pipeline.StreamConfig{MaxPending: maxPending})
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		n := 0
		for f := range st.Out() {
			eng.Recycle(f)
			if n++; n%2000 == 0 {
				time.Sleep(5 * time.Millisecond) // let Out and the chain fill up
			}
		}
	}()
	// The outstanding-frame bound of StartStream's sizing for a chain of
	// procs processors: producer's hand, submit buffer, backlog, in-flight
	// bound plus the last admitted batch, Out buffer (sized at start from
	// the initial bound), consumer's hand.
	const bs = pipeline.DefaultBatchSize
	outCap := maxPending + 2*(3+1)*bs
	bound := func(procs int) int {
		return 1 + bs + maxPending + 2*(procs+1)*bs + bs + outCap + 1
	}
	short, full := bound(3), bound(len(interior))

	const size = 64
	seq := 0
	pump := func(n int) {
		for i := 0; i < n; i++ {
			d := eng.GetBuffer(size)
			if err := st.Submit(pipeline.Frame{Seq: seq, Data: d}); err != nil {
				t.Fatalf("Submit: %v", err)
			}
			seq++
		}
	}
	pump(30 * short)
	if _, misses := eng.PoolStats(); misses > int64(short) {
		t.Fatalf("%d free-list misses over %d frames on a 3-processor segment, want <= %d", misses, seq, short)
	}
	if err := eng.ApplyPlacement(interior, nil); err != nil {
		t.Fatalf("ApplyPlacement: %v", err)
	}
	pump(30 * full)
	rep := st.Close()
	<-consumed
	if !rep.Clean() || rep.Remaps != 1 {
		t.Fatalf("stream report %+v, want clean with one remap", rep)
	}
	if _, misses := eng.PoolStats(); misses > int64(short+full) {
		t.Fatalf("%d free-list misses over %d frames after growing to %d processors, want <= %d",
			misses, seq, len(interior), short+full)
	}
}

// TestNoPerFrameAllocIdiom scans the package's non-test sources for the
// append([]float64(nil), ...) per-frame copy idiom that the batched
// transport exists to remove; reintroducing it on a hot path fails here
// (and in the CI lint) before it fails a benchmark gate.
func TestNoPerFrameAllocIdiom(t *testing.T) {
	ents, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Clean(name))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(src), "append([]float64(nil)") {
			t.Errorf("%s: contains append([]float64(nil), ...): per-frame copies belong in leased buffers (see batch.go)", name)
		}
	}
}

// TestBatchSizeOne pins that batch size 1 (the per-frame baseline the
// benchmarks compare against) still satisfies the reference equality.
func TestBatchSizeOne(t *testing.T) {
	sol, err := construct.Design(10, 2)
	if err != nil {
		t.Fatalf("Design(10,2): %v", err)
	}
	eng, _ := managed(t, sol, testStages(),
		pipeline.WithBatchSize(1), pipeline.WithChannelDepth(1))
	ref := mustEngine(t, 10, 2)
	frames := genFrames(25, 96, 13)
	want := ref.ProcessSequential(copyFrames(frames))
	got := eng.Process(frames)
	assertSameFrames(t, got, want)
}

// lightStages is a cheap chain (no compression) used by the transport
// benchmarks so channel synchronization, not stage compute, dominates.
func lightStages() []stages.Stage {
	return []stages.Stage{
		stages.NewSubsample(2),
		&stages.Rescale{Gain: 1.5, Offset: 0.1},
		stages.NewFIR([]float64{0.25, 0.5, 0.25}),
		stages.NewQuantize(-16, 16, 256),
	}
}
