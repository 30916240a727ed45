// Package pipeline is the streaming runtime that the paper's constructions
// exist to serve (§1): it maps a sequence of signal-processing stages onto
// the processors of a gracefully degradable pipeline network, pumps frames
// through a goroutine-per-processor channel chain, and — when a fault is
// injected — asks the embedding solver for a new pipeline over the
// remaining healthy processors and remaps the stages onto it.
//
// Graceful degradation is visible directly in the runtime: after f ≤ k
// faults the pipeline still uses every healthy processor (verified on each
// remap), so per-processor load grows by only n/(n−f) rather than dropping
// processors wholesale.
//
// The engine is instrumented through internal/obs (disabled by default, so
// hot paths pay one atomic load): per-frame end-to-end latency
// (pipeline_frame_latency_ns), per-position stage processing time
// (pipeline_stage_ns), channel-send stall time (pipeline_send_stall_ns),
// per-epoch wall time and throughput (pipeline_epoch_ns,
// pipeline_epoch_throughput_bps), and remap latency by operation
// (pipeline_remap_ns{op="inject"|"repair"}).
package pipeline

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gdpn/internal/bitset"
	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/graph"
	"gdpn/internal/obs"
	"gdpn/internal/obs/span"
	"gdpn/internal/reconfig"
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
	// Remaps counts successful reconfigurations.
	Remaps int
	// RemapTime accumulates the time spent computing new pipelines.
	RemapTime time.Duration
	// FaultsInjected counts Inject calls that added a fault.
	FaultsInjected int
	// Repairs breaks reconfigurations down by tactic (splice / rewire /
	// endpoint swap / full remap) — see internal/reconfig.
	Repairs reconfig.Stats
}

// Engine drives one pipeline network. It runs in one of two modes:
// self-planned (New), where it owns a reconfig.Manager over the whole
// solution and repairs itself on Inject/Repair; or placed (NewPlaced),
// where the pipeline is a processor segment handed down by an external
// planner and remapped only via ApplyPlacement — see placed.go.
type Engine struct {
	g      *graph.Graph
	mgr    *reconfig.Manager // nil in placed mode
	placed bool
	path   graph.Path // placed mode only: the current placement segment
	tenant string     // optional tenant label carried on remap spans
	stages []stages.Stage
	assign [][]int // per pipeline position (processors only): logical stage indices

	// frames is read by Metrics() while Process/ProcessSequential write it,
	// so it lives outside the mutex as an atomic.
	frames atomic.Int64
	mu     sync.Mutex // guards the remaining Metrics fields
	m      Metrics

	// stream is the live Stream instance, if any; Inject/Repair route
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
	remapLat       [3]*obs.Histogram // indexed by opInject/opRepair/opReplan
}

const (
	opInject = 0
	opRepair = 1
	opReplan = 2
)

// New builds an engine over a designed solution and the given logical
// stage chain, and maps the initial (fault-free) pipeline. The stage
// instances are owned by the engine: their internal state survives
// remapping, as a checkpoint-restore would in a real array. Options
// tune the batched transport (WithBatchSize, WithChannelDepth).
func New(sol *construct.Solution, stgs []stages.Stage, opts ...Option) (*Engine, error) {
	if len(stgs) == 0 {
		return nil, fmt.Errorf("pipeline: need at least one stage")
	}
	mgr, err := reconfig.New(sol)
	if err != nil {
		return nil, err
	}
	e := newEngine(sol.Graph, stgs, opts)
	e.mgr = mgr
	e.assignStages()
	e.procsInUse.Set(int64(e.ProcessorsInUse()))
	return e, nil
}

// newEngine builds the mode-independent engine shell: stages, transport
// tuning, free lists sized for a default stream, and the instrumentation
// surface.
func newEngine(g *graph.Graph, stgs []stages.Stage, opts []Option) *Engine {
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
		remapLat: [3]*obs.Histogram{
			reg.Histogram("pipeline_remap_ns", obs.L("op", "inject")),
			reg.Histogram("pipeline_remap_ns", obs.L("op", "repair")),
			reg.Histogram("pipeline_remap_ns", obs.L("op", "replan")),
		},
	}
	e.poolHitC = reg.Counter("pipeline_pool_total", obs.L("result", "hit"))
	e.poolMissC = reg.Counter("pipeline_pool_total", obs.L("result", "miss"))
	for _, o := range opts {
		o(e)
	}
	e.sizeFreeLists(defaultMaxPending)
	return e
}

// Pipeline returns the current pipeline path (aliased; do not modify).
// In placed mode this is the placement segment: processors only, no
// terminals.
func (e *Engine) Pipeline() graph.Path {
	if e.placed {
		return e.path
	}
	return e.mgr.Pipeline()
}

// ProcessorsInUse returns the number of processors in the current pipeline.
func (e *Engine) ProcessorsInUse() int {
	if e.placed {
		return len(e.path)
	}
	return len(e.mgr.Pipeline()) - 2
}

// Metrics returns a consistent snapshot of the engine's counters. It is
// safe to call while Process runs on another goroutine.
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

// Inject marks a node faulty and repairs the pipeline — locally when one
// of the reconfig tactics applies, by full recompute otherwise. It returns
// an error (leaving the previous mapping in place) when the node is
// already faulty, when a remap deadline set via SetRemapDeadline expires
// (errors.Is reconfig.ErrDeadline; the fault is rolled back), or when no
// pipeline survives — the latter only happens beyond the design fault
// budget k. While a Stream is active the injection routes through it:
// in-flight frames are drained and requeued around the remap so none is
// lost or duplicated.
func (e *Engine) Inject(node int) error {
	if e.placed {
		return ErrPlaced
	}
	if s := e.stream.Load(); s != nil {
		return s.remap(false, node)
	}
	return e.applyFault(node)
}

// applyFault performs the fault injection on a quiesced engine (no frames
// in flight): epoch-mode callers come here directly; a Stream's pump goes
// through applyRemap under its own root span after draining its chain.
func (e *Engine) applyFault(node int) error {
	start := time.Now()
	root := startRemapSpan("inject", "epoch", node)
	err := e.applyRemap(false, node, root)
	finishRemapSpan(root, start, err)
	return err
}

// applyRepair performs the repair on a quiesced engine; see applyFault.
func (e *Engine) applyRepair(node int) error {
	start := time.Now()
	root := startRemapSpan("repair", "epoch", node)
	err := e.applyRemap(true, node, root)
	finishRemapSpan(root, start, err)
	return err
}

// applyRemap runs the fault or repair on the quiesced engine under root
// (the causal parent of the manager's detect/plan/solve/audit phase spans;
// nil outside traced runs) and updates the engine's remap metrics.
func (e *Engine) applyRemap(repair bool, node int, root *span.S) error {
	start := time.Now()
	e.mgr.SetActiveSpan(root)
	var err error
	if repair {
		_, err = e.mgr.Repair(node)
	} else {
		_, err = e.mgr.Fault(node)
	}
	e.mgr.SetActiveSpan(nil)
	if err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	elapsed := time.Since(start)
	e.mu.Lock()
	e.m.RemapTime += elapsed
	if !repair {
		e.m.FaultsInjected++
	}
	e.m.Remaps++
	e.m.Repairs = e.mgr.Stats()
	e.mu.Unlock()
	e.assignStages()
	op := opInject
	if repair {
		op = opRepair
	}
	e.remapLat[op].ObserveDuration(elapsed)
	e.procsInUse.Set(int64(e.ProcessorsInUse()))
	return nil
}

// startRemapSpan opens the root span of one remap (nil when tracing is
// off). op is "inject" or "repair"; mode is "epoch" (quiesced engine) or
// "stream" (live drain/requeue around the remap).
func startRemapSpan(op, mode string, node int) *span.S {
	return span.Start(nil, "remap").
		SetStr("op", op).SetStr("mode", mode).SetInt("node", int64(node))
}

// startPlaceSpan opens the root span of one placement remap, hung under
// the executor's replan span (parent; nil outside coordinated replans)
// and labeled with the engine's tenant.
func (e *Engine) startPlaceSpan(parent *span.S, mode string) *span.S {
	sp := span.Start(parent, "remap").SetStr("op", "replan").SetStr("mode", mode)
	if e.tenant != "" {
		sp.SetStr("tenant", e.tenant)
	}
	return sp
}

// finishRemapSpan ends a root remap span with the status and cancellation
// reason derived from err, feeds the SLO remap-latency objective, and —
// after the span is in the ring, so a dump contains the whole tree —
// trips the flight recorder on deadline misses and rollbacks. Deliberate
// cancellations (shutdown) are not anomalies and do not trip.
func finishRemapSpan(root *span.S, start time.Time, err error) {
	st, reason := reconfig.RemapStatus(err)
	if reason != "" {
		root.SetStr("cancel_reason", reason)
	}
	root.End(st)
	if slo := span.DefaultSLO(); slo.Enabled() {
		slo.Observe("remap", time.Since(start))
	}
	switch {
	case err == nil || errors.Is(err, embed.ErrCanceled):
	case errors.Is(err, reconfig.ErrDeadline) || errors.Is(err, embed.ErrDeadline):
		span.Trip(span.AnomalyDeadline, err.Error())
	case errors.Is(err, embed.ErrBudget):
		span.Trip(span.AnomalyBudget, err.Error())
	default:
		span.Trip(span.AnomalyRollback, err.Error())
	}
}

// Repair marks a node healthy again and reinstates it in the pipeline.
// While a Stream is active the repair routes through it, like Inject.
func (e *Engine) Repair(node int) error {
	if e.placed {
		return ErrPlaced
	}
	if s := e.stream.Load(); s != nil {
		return s.remap(true, node)
	}
	return e.applyRepair(node)
}

// assignStages redistributes the logical stages contiguously over the
// current pipeline's processors.
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

// Process streams the frames through the current mapping using one
// goroutine per pipeline processor connected by channels carrying
// recycled frame batches, and returns the transformed frames in order.
// Stages with internal state carry it across calls. Faults are injected
// between Process calls (epoch model).
//
// Input buffers stay caller-owned (the first processing position copies
// into a leased buffer), so callers may reuse the same input frames
// across calls. Output buffers come from the engine's free list;
// returning them via Recycle after use keeps the path allocation-free.
func (e *Engine) Process(frames []Frame) []Frame {
	// Sampled once per epoch: the per-frame clock reads below key off this
	// local, so a disabled registry costs no time.Now() calls in the loop.
	observing := e.reg.Enabled()
	var epochStart time.Time
	var starts []time.Time
	if observing {
		epochStart = time.Now()
		starts = make([]time.Time, len(frames))
	}

	c := e.newChain()
	go func() {
		for i := 0; i < len(frames); {
			n := len(frames) - i
			if n > e.batchSize {
				n = e.batchSize
			}
			b := e.getBatch()
			for j := 0; j < n; j++ {
				if observing {
					// Written before the send; the channel chain's
					// happens-before edges make it visible to the collector.
					starts[i+j] = time.Now()
				}
				f := frames[i+j]
				b.toks = append(b.toks, token{seq: f.Seq, data: f.Data})
			}
			e.batchOcc.Observe(int64(n))
			c.head <- b
			i += n
		}
		close(c.head)
	}()
	out := make([]Frame, 0, len(frames))
	for b := range c.tail {
		for i := range b.toks {
			t := b.toks[i]
			if observing {
				// Frames exit in input order, so out position == input index.
				e.frameLat.ObserveSince(starts[len(out)])
			}
			out = append(out, Frame{Seq: t.seq, Data: t.data})
		}
		e.putBatch(b)
	}
	e.frames.Add(int64(len(out)))
	e.framesTotal.Add(int64(len(out)))
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

// SetRemapDeadline bounds every reconfiguration's full-remap solve to d
// of wall-clock time: a remap that misses it is rolled back — the previous
// pipeline stays live and Inject/Repair report reconfig.ErrDeadline so the
// caller can retry. 0 disables the bound. No-op in placed mode, where the
// planner owns the solve (and its deadline).
func (e *Engine) SetRemapDeadline(d time.Duration) {
	if e.mgr != nil {
		e.mgr.SetDeadline(d)
	}
}

// SetRemapResources attaches an ambient cancellation/budget token to the
// reconfiguration manager: canceling it aborts an in-flight remap solve
// (the fault or repair rolls back, and the live pipeline keeps streaming
// on the previous mapping). nil detaches. No-op in placed mode.
func (e *Engine) SetRemapResources(r *embed.Resources) {
	if e.mgr != nil {
		e.mgr.SetResources(r)
	}
}

// Downtime returns the reconfiguration manager's per-tactic downtime
// ledger (a copy). In placed mode the ledger is empty — downtime lives in
// the stream report and the executor's replan accounting.
func (e *Engine) Downtime() reconfig.DowntimeStats {
	if e.mgr == nil {
		return reconfig.DowntimeStats{}
	}
	return e.mgr.Downtime()
}

// Faults returns a defensive copy of the currently injected fault set. A
// placed engine tracks no faults of its own (the pool fault set lives in
// the executor); it reports an empty set.
func (e *Engine) Faults() bitset.Set {
	if e.mgr == nil {
		return bitset.New(e.g.NumNodes())
	}
	return e.mgr.Faults()
}
