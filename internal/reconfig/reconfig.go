// Package reconfig maintains a live pipeline across fault arrivals and
// repairs with minimal disruption. The paper guarantees that after any
// ≤ k faults SOME pipeline exists; a deployed array additionally cares how
// much of the old mapping survives a fault — every moved stage means state
// migration. This package repairs incrementally:
//
//   - splice: the failed processor's neighbors on the pipeline happen to
//     be adjacent — drop the node, nothing else moves;
//   - 2-opt rewire: reverse one segment of the pipeline to route around
//     the failed node — only the segment's direction changes;
//   - endpoint swap: a failed terminal is replaced by another healthy
//     terminal attached to the same border processor;
//   - insert: a repaired processor is spliced back between two adjacent
//     pipeline neighbors;
//
// falling back to a full solver recompute only when no local tactic
// applies. Every repaired pipeline is certificate-checked; an invalid
// local repair degrades to the full recompute, never to a wrong result.
//
// The manager only plans. Apply hands each new pipeline's interior to a
// runtime (pipeline.Engine.ApplyPlacement), which moves the stream onto it.
package reconfig

import (
	"errors"
	"fmt"
	"time"

	"gdpn/internal/bitset"
	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/graph"
	"gdpn/internal/obs"
	"gdpn/internal/obs/span"
	"gdpn/internal/verify"
)

// Tactic identifies how a repair was accomplished.
type Tactic int

const (
	// NoChange means the failed node was not part of the pipeline.
	NoChange Tactic = iota
	// Splice removed the failed node; its pipeline neighbors were adjacent.
	Splice
	// Rewire routed around the failed node by reversing one segment.
	Rewire
	// EndpointSwap replaced a failed terminal with a sibling terminal.
	EndpointSwap
	// Insert spliced a repaired processor back into the pipeline.
	Insert
	// FullRemap recomputed the pipeline with the solver.
	FullRemap
)

// String names the tactic.
func (t Tactic) String() string {
	switch t {
	case NoChange:
		return "no-change"
	case Splice:
		return "splice"
	case Rewire:
		return "rewire"
	case EndpointSwap:
		return "endpoint-swap"
	case Insert:
		return "insert"
	case FullRemap:
		return "full-remap"
	default:
		return fmt.Sprintf("tactic(%d)", int(t))
	}
}

// Stats counts repairs by tactic.
type Stats struct {
	NoChange     int `json:"no_change"`
	Splice       int `json:"splice"`
	Rewire       int `json:"rewire"`
	EndpointSwap int `json:"endpoint_swap"`
	Insert       int `json:"insert"`
	FullRemap    int `json:"full_remap"`
	// MovedStages accumulates |positions whose processor changed| across
	// repairs — the state-migration cost a deployment would pay.
	MovedStages int `json:"moved_stages"`
	// Expansions is the solver search work of every full remap, the
	// initial mapping's included; local tactics add nothing.
	Expansions int64 `json:"expansions"`
}

// ErrDeadline is wrapped into the error returned by Fault/Repair when a
// full-remap solve misses the deadline of the manager's token
// (SetResources). The operation is rolled back: the previous pipeline
// stays live and the node's fault state is unchanged, so the caller can
// retry later.
var ErrDeadline = errors.New("remap deadline exceeded")

// DowntimeStats is the per-tactic downtime ledger: how long the pipeline
// was unavailable (from fault arrival to the new mapping being installed)
// under each repair tactic, plus the time burnt on rolled-back attempts.
type DowntimeStats struct {
	// PerTactic accumulates repair latency by the tactic that resolved it.
	PerTactic [FullRemap + 1]time.Duration `json:"per_tactic_ns"`
	// Total is the sum over PerTactic (rollback time excluded).
	Total time.Duration `json:"total_ns"`
	// Rollbacks counts operations undone after a deadline miss or an
	// unsolvable (beyond-budget) fault set.
	Rollbacks int `json:"rollbacks"`
	// RollbackTime accumulates the time spent on rolled-back attempts.
	RollbackTime time.Duration `json:"rollback_ns"`
}

// Manager holds the live pipeline of one network.
type Manager struct {
	g      *graph.Graph
	solver *embed.Solver
	faults bitset.Set
	path   graph.Path
	stats  Stats
	// k is the design fault budget of the solution this manager guards;
	// the SLO degradation gauge reports faults-in-flight against it.
	k int

	// downtime/rollbacks feed DowntimeStats.
	downtime     [FullRemap + 1]time.Duration
	rollbacks    int
	rollbackTime time.Duration
	// res is the ambient token (SetResources): every full-remap solve runs
	// under it, and its deadline, if any, bounds the remap.
	res *embed.Resources

	reg          *obs.Registry
	repairLat    [FullRemap + 1]*obs.Histogram // per-tactic repair latency
	repairCount  [FullRemap + 1]*obs.Counter   // per-tactic repair counts
	downtimeHist [FullRemap + 1]*obs.Histogram // per-tactic downtime ledger export
	rollbackNum  *obs.Counter                  // rolled-back operations
	rollbackHist *obs.Histogram                // time burnt on rolled-back attempts
	certFailures *obs.Counter                  // invalid local repairs caught by the certificate check
	fallbacks    *obs.Counter                  // local tactics exhausted → full recompute

	// remapSpan is the causal parent for this remap's phase spans
	// (detect/plan/solve/audit): Apply's root "remap" span while it runs,
	// or the parent set by SetSpan. Remaps are serialized by the manager's
	// single owner, so one slot suffices. nil (untraced runs) makes every
	// phase span a no-op or a root.
	remapSpan *span.S
}

// New computes the initial (fault-free) pipeline for a designed solution.
func New(sol *construct.Solution) (*Manager, error) {
	m := &Manager{
		g:      sol.Graph,
		solver: embed.NewSolver(sol.Graph, embed.Options{Layout: sol.Layout, Memo: true}),
		faults: bitset.New(sol.Graph.NumNodes()),
		k:      sol.K,
		reg:    obs.Default(),
	}
	for t := NoChange; t <= FullRemap; t++ {
		lbl := obs.L("tactic", t.String())
		m.repairLat[t] = m.reg.Histogram("reconfig_repair_ns", lbl)
		m.repairCount[t] = m.reg.Counter("reconfig_repairs_total", lbl)
		m.downtimeHist[t] = m.reg.Histogram("reconfig_downtime_ns", lbl)
	}
	m.rollbackNum = m.reg.Counter("reconfig_rollbacks_total")
	m.rollbackHist = m.reg.Histogram("reconfig_rollback_ns")
	m.certFailures = m.reg.Counter("reconfig_cert_failures_total")
	m.fallbacks = m.reg.Counter("reconfig_full_remap_fallback_total")
	if slo := span.DefaultSLO(); slo.Enabled() {
		for _, kind := range []graph.Kind{graph.Processor, graph.InputTerminal, graph.OutputTerminal} {
			slo.RegisterClass(kind.String(), m.g.CountKind(kind))
		}
		slo.SetDegradation(0, m.k)
	}
	// The initial mapping is one "remap" root, op=bootstrap, so that its
	// solve and audit phases are not left as orphan roots in a trace.
	boot := span.Start(nil, "remap").SetStr("op", "bootstrap")
	m.remapSpan = boot
	err := m.fullRemap()
	m.remapSpan = nil
	EndPhase(boot, err)
	if err != nil {
		return nil, err
	}
	m.stats = Stats{Expansions: m.stats.Expansions} // the initial mapping is not a repair
	return m, nil
}

// Pipeline returns the current pipeline (aliased; do not modify).
func (m *Manager) Pipeline() graph.Path { return m.path }

// Stats returns a copy of the repair counters; mutating the result does
// not affect the manager.
func (m *Manager) Stats() Stats { return m.stats }

// Faults returns a defensive copy of the current fault set; mutating the
// result does not affect the manager.
func (m *Manager) Faults() bitset.Set { return m.faults.Clone() }

// SetResources attaches an ambient cancellation/budget token: canceling
// it aborts any in-flight full-remap solve — the repair rolls back, with
// errors.Is(err, embed.ErrCanceled) true — and makes subsequent remaps
// fail fast until the token is replaced. nil detaches.
//
// The token's own deadline (embed.Scoped) is the remap bound: a full
// remap that starts after it, or whose solve ends after it, rolls back
// with ErrDeadline, and a valid solution that arrives late is discarded —
// a deployment would already have declared the remap failed. The token's
// timer stops the solver mid-search; its hot loops never read the clock.
// Local tactics are microsecond-scale and are not bounded. Callers bound
// each event with a fresh scope, e.g. SetResources(embed.Scoped(tok, d)).
func (m *Manager) SetResources(r *embed.Resources) { m.res = r }

// Resources returns the ambient token (nil when unset).
func (m *Manager) Resources() *embed.Resources { return m.res }

// SetSpan attaches the causal parent for the detect/plan/solve/audit
// phase spans of subsequent Fault and Repair calls, as Solver.SetSpan does
// for solve spans. nil detaches. Apply parents its phases on the event's
// own "remap" root instead.
func (m *Manager) SetSpan(sp *span.S) { m.remapSpan = sp }

// Interior returns the current pipeline's processors: the pipeline
// without its two terminals, which is the placement a runtime executes
// (aliased; do not modify).
func (m *Manager) Interior() graph.Path { return m.path[1 : len(m.path)-1] }

// Op is the fault-set change Apply performs.
type Op int

const (
	// OpFault marks a node faulty (Fault).
	OpFault Op = iota
	// OpRepair marks a node healthy again (Repair).
	OpRepair
)

// Apply runs one fault event end to end under a single "remap" root span.
// The manager plans first: Fault or Repair, whose detect/plan/solve/audit
// phases hang under the root. Only if that succeeds does place install
// the new interior on the runtime (pipeline.Engine.ApplyPlacement), which
// hangs its drain/requeue/rewire phases under the root it is passed. A
// rolled-back plan (deadline, budget, beyond-k) never reaches place, so a
// live stream keeps flowing on the previous pipeline untouched. The root
// feeds the "remap" SLO once per event, and its error trips the flight
// recorder; see FinishRemap.
func (m *Manager) Apply(op Op, node int, place func(seg graph.Path, parent *span.S) error) error {
	start := time.Now()
	name, plan := "inject", m.Fault
	if op == OpRepair {
		name, plan = "repair", m.Repair
	}
	root := span.Start(nil, "remap").SetStr("op", name).SetInt("node", int64(node))
	m.SetSpan(root)
	_, err := plan(node)
	m.SetSpan(nil)
	if err == nil {
		err = place(m.Interior(), root)
	}
	FinishRemap(root, start, err)
	return err
}

// FinishRemap ends the root span of one fault event with the status and
// cancellation reason derived from err, feeds the SLO remap-latency
// objective, and — after the span is in the ring, so a dump contains the
// whole tree — trips the flight recorder on deadline misses, budget
// exhaustion and rollbacks. Deliberate cancellations (shutdown) are not
// anomalies and do not trip. Apply and the multi-tenant executor's replan
// both end their roots here.
func FinishRemap(root *span.S, start time.Time, err error) {
	EndPhase(root, err)
	if slo := span.DefaultSLO(); slo.Enabled() {
		slo.Observe("remap", time.Since(start))
	}
	switch {
	case err == nil || errors.Is(err, embed.ErrCanceled):
	case errors.Is(err, ErrDeadline) || errors.Is(err, embed.ErrDeadline):
		span.Trip(span.AnomalyDeadline, err.Error())
	case errors.Is(err, embed.ErrBudget):
		span.Trip(span.AnomalyBudget, err.Error())
	default:
		span.Trip(span.AnomalyRollback, err.Error())
	}
}

// remapStatus maps a remap error to the span status and the
// cancellation-reason attribute ("" = none) the remap's spans carry.
func remapStatus(err error) (span.Status, string) {
	switch {
	case err == nil:
		return span.OK, ""
	case errors.Is(err, ErrDeadline) || errors.Is(err, embed.ErrDeadline):
		return span.Deadline, "deadline"
	case errors.Is(err, embed.ErrCanceled):
		return span.Canceled, "canceled"
	case errors.Is(err, embed.ErrBudget):
		return span.Rollback, "budget"
	default:
		return span.Rollback, ""
	}
}

// EndPhase finishes a span with the status and cancel_reason attribute
// that err maps to (see remapStatus).
func EndPhase(sp *span.S, err error) {
	st, reason := remapStatus(err)
	if reason != "" {
		sp.SetStr("cancel_reason", reason)
	}
	sp.End(st)
}

// pastDeadline returns an error wrapping ErrDeadline once the deadline of
// the manager's token has passed, nil otherwise (or without a deadline).
func (m *Manager) pastDeadline() error {
	if m.res == nil {
		return nil
	}
	if dl, ok := m.res.Deadline(); ok && !time.Now().Before(dl) {
		return fmt.Errorf("reconfig: %w (%v past)", ErrDeadline, time.Since(dl).Round(time.Microsecond))
	}
	return nil
}

// Downtime returns a copy of the per-tactic downtime ledger.
func (m *Manager) Downtime() DowntimeStats {
	ds := DowntimeStats{
		PerTactic:    m.downtime,
		Rollbacks:    m.rollbacks,
		RollbackTime: m.rollbackTime,
	}
	for _, d := range m.downtime {
		ds.Total += d
	}
	return ds
}

// Fault marks a node faulty and repairs the pipeline, preferring local
// tactics. It returns the tactic used, or an error when no pipeline
// survives (beyond-budget fault sets) — in that case the fault is rolled
// back and the previous pipeline remains valid.
func (m *Manager) Fault(node int) (Tactic, error) {
	if node < 0 || node >= m.g.NumNodes() {
		return 0, fmt.Errorf("reconfig: node %d out of range", node)
	}
	if m.faults.Contains(node) {
		return 0, fmt.Errorf("reconfig: node %d already faulty", node)
	}
	observing := m.reg.Enabled()
	start := time.Now() // always sampled: downtime accounting is not gated on obs
	m.faults.Add(node)

	detect := span.Start(m.remapSpan, "detect")
	idx := -1
	for i, v := range m.path {
		if v == node {
			idx = i
			break
		}
	}
	detect.SetStr("op", "fault").SetInt("node", int64(node)).SetInt("path_idx", int64(idx))
	detect.End(span.OK)
	if idx == -1 {
		// Not on the pipeline: only unused terminals qualify (every healthy
		// processor is on the pipeline by definition).
		m.stats.NoChange++
		m.account(NoChange, start)
		m.observeRepair(NoChange, start, observing)
		m.markDown(node)
		return NoChange, nil
	}

	plan := span.Start(m.remapSpan, "plan")
	var tactic Tactic
	var repaired graph.Path
	switch {
	case idx == 0 || idx == len(m.path)-1:
		repaired, tactic = m.repairEndpoint(idx, plan)
	default:
		repaired, tactic = m.repairInterior(idx, plan)
	}
	if repaired != nil {
		plan.SetStr("tactic", tactic.String())
	} else {
		plan.SetStr("tactic", "exhausted")
	}
	plan.End(span.OK)
	if repaired != nil {
		audit := span.Start(m.remapSpan, "audit")
		if err := verify.CheckPipeline(m.g, m.faults, repaired); err == nil {
			audit.End(span.OK)
			m.stats.MovedStages += movedStages(m.path, repaired)
			m.path = repaired
			m.bump(tactic)
			m.account(tactic, start)
			m.observeRepair(tactic, start, observing)
			m.markDown(node)
			return tactic, nil
		} else {
			audit.SetStr("error", err.Error()).End(span.Errored)
		}
		// A local tactic produced an invalid pipeline; the certificate
		// check caught it and we degrade to the full recompute.
		m.certFailures.Inc()
		m.remapSpan.Eventf("cert_check_failed", "node=%d tactic=%s", node, tactic)
	}
	// Local tactics failed (or produced something invalid): full remap.
	m.fallbacks.Inc()
	m.remapSpan.Eventf("full_remap_fallback", "node=%d", node)
	if err := m.fullRemap(); err != nil {
		m.faults.Remove(node)
		m.rollback(start)
		return 0, err
	}
	m.account(FullRemap, start)
	m.observeRepair(FullRemap, start, observing)
	m.markDown(node)
	return FullRemap, nil
}

// account folds one completed repair's latency into the per-tactic
// downtime ledger and its exported histogram.
func (m *Manager) account(t Tactic, start time.Time) {
	d := time.Since(start)
	m.downtime[t] += d
	m.downtimeHist[t].ObserveDuration(d)
}

// SolverCache reports the solver's memo traffic accumulated across this
// manager's remaps — the observable effect of keeping one Solver (and its
// memo) alive for the whole soak.
func (m *Manager) SolverCache() (memoHits, memoMisses int64) {
	return m.solver.Memo()
}

// rollback records one rolled-back operation in the ledger and metrics.
func (m *Manager) rollback(start time.Time) {
	d := time.Since(start)
	m.rollbacks++
	m.rollbackTime += d
	m.rollbackNum.Inc()
	m.rollbackHist.ObserveDuration(d)
}

// markDown feeds the SLO availability ledger and degradation gauge after
// a successful Fault (the node is now genuinely out of service).
func (m *Manager) markDown(node int) {
	if slo := span.DefaultSLO(); slo.Enabled() {
		slo.NodeDown(m.g.Kind(node).String())
		slo.SetDegradation(m.faults.Count(), m.k)
	}
}

// markUp is markDown's inverse, after a successful Repair.
func (m *Manager) markUp(node int) {
	if slo := span.DefaultSLO(); slo.Enabled() {
		slo.NodeUp(m.g.Kind(node).String())
		slo.SetDegradation(m.faults.Count(), m.k)
	}
}

// observeRepair records the latency histogram and per-tactic counter for
// one completed repair.
func (m *Manager) observeRepair(t Tactic, start time.Time, observing bool) {
	if !observing {
		return
	}
	m.repairLat[t].ObserveSince(start)
	m.repairCount[t].Inc()
}

// Repair marks a node healthy again and re-inserts it into the pipeline
// (graceful degradation works in both directions: a repaired processor
// must be used again).
func (m *Manager) Repair(node int) (Tactic, error) {
	if node < 0 || node >= m.g.NumNodes() || !m.faults.Contains(node) {
		return 0, fmt.Errorf("reconfig: node %d is not faulty", node)
	}
	observing := m.reg.Enabled()
	start := time.Now() // always sampled: downtime accounting is not gated on obs
	m.faults.Remove(node)

	detect := span.Start(m.remapSpan, "detect")
	detect.SetStr("op", "repair").SetInt("node", int64(node))
	detect.SetStr("kind", m.g.Kind(node).String())
	detect.End(span.OK)
	if m.g.Kind(node) != graph.Processor {
		// A repaired terminal changes nothing until an endpoint needs it.
		m.stats.NoChange++
		m.account(NoChange, start)
		m.observeRepair(NoChange, start, observing)
		m.markUp(node)
		return NoChange, nil
	}
	// Insert between some adjacent pipeline pair.
	plan := span.Start(m.remapSpan, "plan")
	for i := 0; i+1 < len(m.path); i++ {
		if m.g.HasEdge(m.path[i], node) && m.g.HasEdge(node, m.path[i+1]) {
			repaired := make(graph.Path, 0, len(m.path)+1)
			repaired = append(repaired, m.path[:i+1]...)
			repaired = append(repaired, node)
			repaired = append(repaired, m.path[i+1:]...)
			audit := span.Start(m.remapSpan, "audit")
			if err := verify.CheckPipeline(m.g, m.faults, repaired); err == nil {
				audit.End(span.OK)
				plan.SetStr("tactic", Insert.String()).SetInt("insert_at", int64(i+1))
				plan.End(span.OK)
				m.path = repaired
				m.stats.Insert++
				m.account(Insert, start)
				m.observeRepair(Insert, start, observing)
				m.markUp(node)
				return Insert, nil
			} else {
				audit.SetStr("error", err.Error()).End(span.Errored)
			}
		}
	}
	plan.SetStr("tactic", "exhausted")
	plan.End(span.OK)
	m.fallbacks.Inc()
	m.remapSpan.Eventf("full_remap_fallback", "node=%d", node)
	if err := m.fullRemap(); err != nil {
		m.faults.Add(node)
		m.rollback(start)
		return 0, err
	}
	m.account(FullRemap, start)
	m.observeRepair(FullRemap, start, observing)
	m.markUp(node)
	return FullRemap, nil
}

// attempt opens a tactic-attempt span under the plan phase.
func attempt(plan *span.S, name string) *span.S {
	return span.Start(plan, "tactic").SetStr("tactic", name)
}

// endAttempt closes a tactic-attempt span with its hit/miss outcome.
func endAttempt(sp *span.S, hit bool) {
	if hit {
		sp.SetStr("result", "hit")
	} else {
		sp.SetStr("result", "miss")
	}
	sp.End(span.OK)
}

// repairInterior handles a failed interior processor at position idx. Each
// local tactic scan is recorded as a child "tactic" span of the plan phase.
func (m *Manager) repairInterior(idx int, plan *span.S) (graph.Path, Tactic) {
	a, b := m.path[idx-1], m.path[idx+1]
	// Splice: neighbors already adjacent.
	sp := attempt(plan, "splice")
	if m.g.HasEdge(a, b) {
		endAttempt(sp, true)
		out := make(graph.Path, 0, len(m.path)-1)
		out = append(out, m.path[:idx]...)
		out = append(out, m.path[idx+1:]...)
		return out, Splice
	}
	endAttempt(sp, false)
	// 2-opt rewire: reverse path[idx+1..j] so that a—path[j] and
	// path[idx+1]—path[j+1] become the new links.
	sp = attempt(plan, "rewire-right")
	for j := idx + 1; j+1 < len(m.path); j++ {
		if m.g.HasEdge(a, m.path[j]) && m.g.HasEdge(m.path[idx+1], m.path[j+1]) {
			endAttempt(sp, true)
			out := make(graph.Path, 0, len(m.path)-1)
			out = append(out, m.path[:idx]...)
			for x := j; x >= idx+1; x-- {
				out = append(out, m.path[x])
			}
			out = append(out, m.path[j+1:]...)
			return out, Rewire
		}
	}
	endAttempt(sp, false)
	// Mirror: reverse path[i..idx-1] on the left side.
	sp = attempt(plan, "rewire-left")
	for i := idx - 1; i > 0; i-- {
		if m.g.HasEdge(m.path[i-1], m.path[idx-1]) && m.g.HasEdge(m.path[i], b) {
			endAttempt(sp, true)
			out := make(graph.Path, 0, len(m.path)-1)
			out = append(out, m.path[:i]...)
			for x := idx - 1; x >= i; x-- {
				out = append(out, m.path[x])
			}
			out = append(out, m.path[idx+1:]...)
			return out, Rewire
		}
	}
	endAttempt(sp, false)
	return nil, FullRemap
}

// repairEndpoint handles a failed terminal at either end.
func (m *Manager) repairEndpoint(idx int, plan *span.S) (graph.Path, Tactic) {
	var border int
	var kind graph.Kind
	if idx == 0 {
		border = m.path[1]
		kind = graph.InputTerminal
	} else {
		border = m.path[len(m.path)-2]
		kind = graph.OutputTerminal
	}
	sp := attempt(plan, "endpoint-swap")
	for _, u := range m.g.Neighbors(border) {
		if m.g.Kind(int(u)) == kind && !m.faults.Contains(int(u)) {
			endAttempt(sp, true)
			out := append(graph.Path(nil), m.path...)
			if idx == 0 {
				out[0] = int(u)
			} else {
				out[len(out)-1] = int(u)
			}
			return out, EndpointSwap
		}
	}
	endAttempt(sp, false)
	return nil, FullRemap
}

// fullRemap recomputes the pipeline with the solver, under the manager's
// token. The token's deadline is checked against the clock before and
// after the solve: a remap that starts late fails without running the
// solver, and a result that lands late — even a valid one — is discarded.
func (m *Manager) fullRemap() error {
	solve := span.Start(m.remapSpan, "solve")
	m.solver.SetSpan(solve)
	defer m.solver.SetSpan(nil)
	if err := m.pastDeadline(); err != nil {
		EndPhase(solve, err)
		return err
	}
	if m.res != nil && m.res.Stopped() {
		err := fmt.Errorf("reconfig: remap aborted: %w", m.res.Err())
		EndPhase(solve, err)
		return err
	}
	m.solver.SetResources(m.res)
	res := m.solver.Find(m.faults)
	m.stats.Expansions += res.Expansions
	solve.SetInt("expansions", res.Expansions)
	if err := m.pastDeadline(); err != nil {
		if res.Found {
			// A valid late result is discarded, not merely missing.
			solve.SetStr("late_result", "discarded")
		}
		EndPhase(solve, err)
		return err
	}
	if !res.Found {
		var err error
		if res.Unknown && m.res != nil && m.res.Stopped() {
			err = fmt.Errorf("reconfig: remap canceled: %w", m.res.Err())
		} else {
			err = fmt.Errorf("reconfig: no pipeline (unknown=%v, faults=%v)", res.Unknown, m.faults.Slice())
		}
		EndPhase(solve, err)
		return err
	}
	solve.End(span.OK)
	audit := span.Start(m.remapSpan, "audit")
	if err := verify.CheckPipeline(m.g, m.faults, res.Pipeline); err != nil {
		audit.SetStr("error", err.Error()).End(span.Errored)
		span.Trip(span.AnomalySolverBug, err.Error())
		return fmt.Errorf("reconfig: solver returned invalid pipeline: %w", err)
	}
	audit.End(span.OK)
	if m.path != nil {
		m.stats.MovedStages += movedStages(m.path, res.Pipeline)
	}
	m.path = res.Pipeline
	m.stats.FullRemap++
	return nil
}

func (m *Manager) bump(t Tactic) {
	switch t {
	case Splice:
		m.stats.Splice++
	case Rewire:
		m.stats.Rewire++
	case EndpointSwap:
		m.stats.EndpointSwap++
	}
}

// movedStages counts pipeline positions whose processor changed between
// two mappings (positions are compared over the shorter interior; a pure
// splice moves only the positions after the removed node... which still
// count, since their stage assignment shifts).
func movedStages(old, new graph.Path) int {
	oi, ni := old[1:len(old)-1], new[1:len(new)-1]
	moved := 0
	for i := 0; i < len(ni); i++ {
		if i >= len(oi) || oi[i] != ni[i] {
			moved++
		}
	}
	return moved
}
