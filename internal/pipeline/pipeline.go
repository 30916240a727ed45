// Package pipeline is the streaming runtime that the paper's constructions
// exist to serve (§1): it runs a sequence of signal-processing stages on a
// placement — a processor path of a gracefully degradable pipeline
// network — and pumps frames through a goroutine-per-processor channel
// chain.
//
// The runtime only executes placements. Finding the new pipeline after a
// fault is the planner's job: internal/reconfig for a single pipeline,
// internal/plan and internal/control for tenants sharing a pool. The
// planner hands the result to ApplyPlacement, and a live stream moves
// onto it without losing, duplicating or reordering a frame.
//
// Graceful degradation is visible directly in the runtime: after f ≤ k
// faults the planner's pipeline still uses every healthy processor, so
// per-processor load grows by only n/(n−f) rather than dropping
// processors wholesale.
//
// The engine is instrumented through internal/obs (disabled by default, so
// hot paths pay one atomic load): per-frame end-to-end latency
// (pipeline_frame_latency_ns), per-position stage processing time
// (pipeline_stage_ns), channel-send stall time (pipeline_send_stall_ns),
// per-epoch wall time and throughput (pipeline_epoch_ns,
// pipeline_epoch_throughput_bps), and placement install latency
// (pipeline_remap_ns{op="replan"}).
package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gdpn/internal/graph"
	"gdpn/internal/obs"
	"gdpn/internal/obs/span"
	"gdpn/internal/stages"
)

// Frame is one block of samples moving through the pipeline.
type Frame struct {
	Seq  int
	Data []float64
}

// Metrics aggregates runtime behaviour across the engine's lifetime.
type Metrics struct {
	// FramesProcessed counts frames that exited the pipeline.
	FramesProcessed int64
	// Remaps counts placements installed after construction.
	Remaps int
	// RemapTime accumulates the time spent installing them.
	RemapTime time.Duration
}

// Engine runs a stage chain on a placement: a processor segment of the
// pool graph, handed down by a planner and changed only via
// ApplyPlacement.
type Engine struct {
	g      *graph.Graph
	path   graph.Path // the current placement: processors only, in pipeline order
	tenant string     // optional tenant label
	stages []stages.Stage
	assign [][]int // per pipeline position (processors only): logical stage indices

	// frames is read by Metrics() while streams write it, so it lives
	// outside the mutex as an atomic.
	frames atomic.Int64
	mu     sync.Mutex // guards the remaining Metrics fields
	m      Metrics

	// stream is the live Stream instance, if any; ApplyPlacement routes
	// through it so remaps drain and requeue in-flight frames.
	stream atomic.Pointer[Stream]

	// Batched-transport tuning and the free lists behind the
	// zero-allocation steady state (see batch.go). StartStream resizes the
	// lists while producers may hold the engine, hence the atomic pointer.
	batchSize  int
	chanDepth  int
	free       atomic.Pointer[freeLists]
	poolHits   atomic.Int64
	poolMisses atomic.Int64
	poolHitC   *obs.Counter
	poolMissC  *obs.Counter

	reg            *obs.Registry
	framesTotal    *obs.Counter
	framesRequeued *obs.Counter
	frameLat       *obs.Histogram
	stageTime      *obs.Histogram
	sendStall      *obs.Histogram
	batchOcc       *obs.Histogram
	epochTime      *obs.Histogram
	epochTput      *obs.Gauge
	procsInUse     *obs.Gauge
	frameLoss      *obs.Gauge
	remapDowntime  *obs.Histogram
	remapLat       *obs.Histogram
}

// WithTenant labels the engine with its tenant name.
func WithTenant(name string) Option {
	return func(e *Engine) { e.tenant = name }
}

// NewPlaced builds an engine over the pool graph g running on the given
// placement segment (processors only, in pipeline order). The engine does
// not solve or repair: placements come from a planner, and faults reach
// it only as ApplyPlacement calls. The stage instances are owned by the
// engine: their internal state survives placement changes, as a
// checkpoint-restore would in a real array. Options tune the batched
// transport (WithBatchSize, WithChannelDepth).
func NewPlaced(g *graph.Graph, seg graph.Path, stgs []stages.Stage, opts ...Option) (*Engine, error) {
	if len(stgs) == 0 {
		return nil, fmt.Errorf("pipeline: need at least one stage")
	}
	reg := obs.Default()
	e := &Engine{
		g: g, stages: stgs,
		batchSize:      DefaultBatchSize,
		chanDepth:      DefaultChannelDepth,
		reg:            reg,
		framesTotal:    reg.Counter("pipeline_frames_total"),
		framesRequeued: reg.Counter("pipeline_frames_requeued_total"),
		frameLat:       reg.Histogram("pipeline_frame_latency_ns"),
		stageTime:      reg.Histogram("pipeline_stage_ns"),
		sendStall:      reg.Histogram("pipeline_send_stall_ns"),
		batchOcc:       reg.Histogram("pipeline_batch_occupancy"),
		epochTime:      reg.Histogram("pipeline_epoch_ns"),
		epochTput:      reg.Gauge("pipeline_epoch_throughput_bps"),
		procsInUse:     reg.Gauge("pipeline_procs_in_use"),
		frameLoss:      reg.Gauge("pipeline_frame_loss"),
		remapDowntime:  reg.Histogram("pipeline_remap_downtime_ns"),
		remapLat:       reg.Histogram("pipeline_remap_ns", obs.L("op", "replan")),
		poolHitC:       reg.Counter("pipeline_pool_total", obs.L("result", "hit")),
		poolMissC:      reg.Counter("pipeline_pool_total", obs.L("result", "miss")),
	}
	for _, o := range opts {
		o(e)
	}
	if err := e.checkPlacement(seg); err != nil {
		return nil, err
	}
	e.path = append(graph.Path(nil), seg...)
	e.assignStages()
	e.procsInUse.Set(int64(e.ProcessorsInUse()))
	inflight := e.maxInflight()
	e.sizeFreeLists(defaultMaxPending, inflight, defaultMaxPending+inflight)
	return e, nil
}

// Tenant returns the engine's tenant label ("" when unset).
func (e *Engine) Tenant() string { return e.tenant }

// Pipeline returns the current placement segment: processors only, no
// terminals (aliased; do not modify).
func (e *Engine) Pipeline() graph.Path { return e.path }

// ProcessorsInUse returns the number of processors in the current placement.
func (e *Engine) ProcessorsInUse() int { return len(e.path) }

// Metrics returns a consistent snapshot of the engine's counters. It is
// safe to call while a stream runs on another goroutine.
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	m := e.m
	e.mu.Unlock()
	m.FramesProcessed = e.frames.Load()
	return m
}

// StagesOn returns the logical stage indices assigned to pipeline position
// pos (0-based over processors), or nil when pos is out of range.
func (e *Engine) StagesOn(pos int) []int {
	if pos < 0 || pos >= len(e.assign) {
		return nil
	}
	return e.assign[pos]
}

// checkPlacement is the engine-side structural audit of a segment: a
// non-empty simple path of processors in the pool graph. Fault- and
// coverage-level validation (verify.CheckSegment) is the planner's job —
// the engine does not track the pool fault set, so the segment is checked
// as its own placement with no faults.
func (e *Engine) checkPlacement(seg graph.Path) error {
	if len(seg) == 0 {
		return fmt.Errorf("pipeline: empty placement")
	}
	return graph.CheckSegment(e.g, "pipeline: placement", nil, seg, seg)
}

// ApplyPlacement remaps the engine onto a new segment. While a stream is
// active the placement routes through the pump: in-flight frames are
// drained with their stage progress, requeued ahead of the backlog, and
// resumed on the new segment, so nothing is lost, duplicated or
// reordered. The drain/requeue/rewire phases hang under parent, the
// caller's remap span (nil outside traced runs). On error the previous
// placement stays live.
func (e *Engine) ApplyPlacement(seg graph.Path, parent *span.S) error {
	if s := e.stream.Load(); s != nil {
		return s.remap(seg, parent)
	}
	return e.applyPlace(seg, parent)
}

// applyPlace installs a new placement on a quiesced engine (no frames in
// flight) and updates the remap metrics. The segment is defensively
// copied; an invalid segment leaves the previous placement in place.
func (e *Engine) applyPlace(seg graph.Path, parent *span.S) error {
	start := time.Now()
	if err := e.checkPlacement(seg); err != nil {
		parent.SetStr("error", err.Error())
		return err
	}
	e.path = append(e.path[:0:0], seg...)
	e.assignStages()
	elapsed := time.Since(start)
	e.mu.Lock()
	e.m.Remaps++
	e.m.RemapTime += elapsed
	e.mu.Unlock()
	e.remapLat.ObserveDuration(elapsed)
	e.procsInUse.Set(int64(e.ProcessorsInUse()))
	parent.SetInt("procs", int64(len(seg)))
	return nil
}

// assignStages redistributes the logical stages contiguously over the
// current placement's processors.
func (e *Engine) assignStages() {
	L := e.ProcessorsInUse()
	S := len(e.stages)
	e.assign = make([][]int, L)
	for i := 0; i < L; i++ {
		lo := i * S / L
		hi := (i + 1) * S / L
		for s := lo; s < hi; s++ {
			e.assign[i] = append(e.assign[i], s)
		}
	}
	// When there are more processors than stages, trailing processors act
	// as pass-through relays (assign[i] empty) — they still carry the
	// stream, which is exactly the paper's model of a pipeline using all
	// healthy processors.
}

// Process runs the frames through the current placement as one stream —
// submit them all, then close — and returns the transformed frames in
// order with their original Seq. Stages with internal state carry it
// across calls; placements change between calls (epoch model).
//
// Inputs stay caller-owned: each is copied into a leased buffer before
// submission, so callers may reuse the same input frames across calls.
// Output buffers come from the engine's free list; returning them via
// Recycle keeps the path allocation-free. Process must not overlap
// another stream on the same engine; it panics with ErrStreamActive if
// one is live.
func (e *Engine) Process(frames []Frame) []Frame {
	st, err := e.StartStream(StreamConfig{})
	if err != nil {
		panic(err)
	}
	// Sampled once per epoch: the per-frame clock reads below key off this
	// local, so a disabled registry costs no time.Now() calls in the loop.
	observing := e.reg.Enabled()
	var epochStart time.Time
	var starts []time.Time
	if observing {
		epochStart = time.Now()
		starts = make([]time.Time, len(frames))
	}
	go func() {
		for i, f := range frames {
			if observing {
				// Written before the submit; the stream's channel chain
				// makes it visible to the collector below.
				starts[i] = time.Now()
			}
			d := e.GetBuffer(len(f.Data))
			copy(d, f.Data)
			// The stream audits strictly increasing seqs, so submit the
			// position; the caller's Seq is restored on the way out. The
			// stream closes only after every frame is delivered, so
			// Submit cannot fail.
			_ = st.Submit(Frame{Seq: i, Data: d})
		}
	}()
	out := make([]Frame, len(frames))
	for i := range out {
		f := <-st.Out()
		if observing {
			e.frameLat.ObserveSince(starts[i])
		}
		out[i] = Frame{Seq: frames[i].Seq, Data: f.Data}
	}
	st.Close()
	if observing {
		e.observeEpoch(frames, time.Since(epochStart))
	}
	return out
}

// ProcessSequential applies the stage chain to the frames on the calling
// goroutine — the reference implementation Process is tested against.
func (e *Engine) ProcessSequential(frames []Frame) []Frame {
	observing := e.reg.Enabled()
	var epochStart time.Time
	if observing {
		epochStart = time.Now()
	}
	out := make([]Frame, 0, len(frames))
	for _, f := range frames {
		var start time.Time
		if observing {
			start = time.Now()
		}
		data := f.Data
		for _, owned := range e.assign {
			for _, si := range owned {
				data = e.stages[si].Process(data)
			}
		}
		// Detach from the last stage's scratch. The reference path allocates
		// plainly on purpose: it is what the batched transport is audited
		// against, not part of the hot path.
		cp := make([]float64, len(data))
		copy(cp, data)
		out = append(out, Frame{Seq: f.Seq, Data: cp})
		if observing {
			e.frameLat.ObserveSince(start)
		}
	}
	e.frames.Add(int64(len(out)))
	e.framesTotal.Add(int64(len(out)))
	if observing {
		e.observeEpoch(frames, time.Since(epochStart))
	}
	return out
}

// observeEpoch records the epoch wall time and input throughput (bytes of
// float64 samples per second).
func (e *Engine) observeEpoch(frames []Frame, elapsed time.Duration) {
	e.epochTime.ObserveDuration(elapsed)
	if elapsed <= 0 {
		return
	}
	samples := 0
	for _, f := range frames {
		samples += len(f.Data)
	}
	e.epochTput.Set(int64(float64(samples*8) / elapsed.Seconds()))
}
