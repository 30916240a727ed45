package pipeline

// This file is the placed-engine mode behind the multi-tenant control
// plane (internal/plan + internal/control): instead of owning a whole
// construct.Solution and repairing itself, a placed engine runs on a
// *placement* — a contiguous processor segment of the global pipeline,
// computed by an external planner — and is remapped only when the
// planner hands it a new segment via ApplyPlacement.
//
// Everything else is shared with the self-planned mode: the batched
// zero-allocation transport, the stream pump, and — critically — the
// drain/requeue live-remap machinery. A coordinated replan drains the
// tenant's in-flight frames with their stage progress, installs the new
// segment, requeues the unfinished frames ahead of the backlog, and
// rebuilds the chain, so a cross-tenant remap loses, duplicates, and
// reorders nothing, exactly like a single-tenant fault remap.

import (
	"errors"
	"fmt"
	"time"

	"gdpn/internal/graph"
	"gdpn/internal/obs/span"
	"gdpn/internal/stages"
)

// ErrPlaced is returned by Inject/Repair on a placed engine: faults are
// pool-level events handled by the executor's coordinated replan, not by
// individual engines.
var ErrPlaced = errors.New("pipeline: engine is externally placed; route faults through the control plane")

// ErrNotPlaced is returned by ApplyPlacement on a self-planned engine.
var ErrNotPlaced = errors.New("pipeline: engine plans its own pipeline; ApplyPlacement requires NewPlaced")

// WithTenant labels the engine with its tenant name; remap spans carry it
// as the "tenant" attribute.
func WithTenant(name string) Option {
	return func(e *Engine) { e.tenant = name }
}

// NewPlaced builds an engine over the shared pool graph g running on the
// given placement segment (processors only, in pipeline order). The
// engine does not solve or repair: placements come from the planner, and
// faults reach it only as ApplyPlacement calls. The stage instances are
// owned by the engine and keep their state across placement changes.
func NewPlaced(g *graph.Graph, seg graph.Path, stgs []stages.Stage, opts ...Option) (*Engine, error) {
	if len(stgs) == 0 {
		return nil, fmt.Errorf("pipeline: need at least one stage")
	}
	e := newEngine(g, stgs, opts)
	e.placed = true
	if err := e.checkPlacement(seg); err != nil {
		return nil, err
	}
	e.path = append(graph.Path(nil), seg...)
	e.assignStages()
	e.procsInUse.Set(int64(e.ProcessorsInUse()))
	return e, nil
}

// Tenant returns the engine's tenant label ("" when unset).
func (e *Engine) Tenant() string { return e.tenant }

// checkPlacement is the engine-side structural audit of a segment: a
// non-empty simple path of processors in the pool graph. Fault- and
// coverage-level validation (verify.CheckSegment) is the planner's job —
// the engine does not track the pool fault set.
func (e *Engine) checkPlacement(seg graph.Path) error {
	if len(seg) == 0 {
		return fmt.Errorf("pipeline: empty placement")
	}
	if !seg.Distinct() {
		return fmt.Errorf("pipeline: placement revisits a node")
	}
	if !seg.IsWalk(e.g) {
		return fmt.Errorf("pipeline: placement uses a non-edge")
	}
	for _, v := range seg {
		if e.g.Kind(v) != graph.Processor {
			return fmt.Errorf("pipeline: placement node %d is a %v, not a processor", v, e.g.Kind(v))
		}
	}
	return nil
}

// ApplyPlacement remaps a placed engine onto a new segment. While a
// stream is active the placement routes through the pump: in-flight
// frames are drained with their stage progress, requeued ahead of the
// backlog, and resumed on the new segment — the same zero-loss contract
// as a fault remap. parent (nil outside coordinated replans) becomes the
// causal parent of the remap span, so one replan's per-tenant remaps
// share a root. On error the previous placement stays live.
func (e *Engine) ApplyPlacement(seg graph.Path, parent *span.S) error {
	if !e.placed {
		return ErrNotPlaced
	}
	if s := e.stream.Load(); s != nil {
		return s.remapPlace(seg, parent)
	}
	start := time.Now()
	root := e.startPlaceSpan(parent, "epoch")
	err := e.applyPlace(seg, root)
	finishRemapSpan(root, start, err)
	return err
}

// applyPlace installs a new placement on a quiesced engine (no frames in
// flight) and updates the remap metrics. The segment is defensively
// copied; an invalid segment leaves the previous placement in place.
func (e *Engine) applyPlace(seg graph.Path, root *span.S) error {
	start := time.Now()
	if err := e.checkPlacement(seg); err != nil {
		root.SetStr("error", err.Error())
		return err
	}
	e.path = append(e.path[:0:0], seg...)
	e.assignStages()
	elapsed := time.Since(start)
	e.mu.Lock()
	e.m.Remaps++
	e.m.RemapTime += elapsed
	e.mu.Unlock()
	e.remapLat[opReplan].ObserveDuration(elapsed)
	e.procsInUse.Set(int64(e.ProcessorsInUse()))
	root.SetInt("procs", int64(len(seg)))
	return nil
}
