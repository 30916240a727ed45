// Package control is the executor layer of the multi-tenant control
// plane: it turns the planner's placement plans into live pipeline.Stream
// engines and supervises them — admission, per-tenant solver budgets,
// class-aware load shedding, and the coordinated replan that remaps every
// affected tenant when the shared pool degrades.
//
// The layering contract: the planner (internal/plan) decides WHERE each
// tenant runs, the executor decides WHO runs and moves the frames, and
// the runtime (internal/pipeline) preserves the zero-loss drain/requeue
// semantics across each placement change. Pool faults enter through
// Executor.Inject/Repair only; engines know nothing of faults and change
// pipelines only when handed a placement (Engine.ApplyPlacement).
package control

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gdpn/internal/bitset"
	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/graph"
	"gdpn/internal/obs"
	"gdpn/internal/obs/span"
	"gdpn/internal/pipeline"
	"gdpn/internal/plan"
	"gdpn/internal/reconfig"
)

var (
	// ErrUnknownTenant is returned for a tenant name not in the topology.
	ErrUnknownTenant = errors.New("control: unknown tenant")
	// ErrTenantShed is returned by Submit for a tenant the control plane
	// has shed (admission, budget exhaustion); its traffic has no engine.
	ErrTenantShed = errors.New("control: tenant is shed")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("control: executor is closed")
	// ErrBackpressure mirrors pipeline.ErrBackpressure for Bronze-class
	// submissions dropped instead of blocking.
	ErrBackpressure = pipeline.ErrBackpressure
)

// Config tunes the executor.
type Config struct {
	// Budget is the pool-wide solver expansion allowance shared by every
	// replan (0 = unlimited). Per-tenant budgets from the topology nest
	// under it.
	Budget int64
	// ReplanDeadline bounds the full-remap fallback of each replan a fault
	// or repair triggers (0 = none); a miss rolls the event back with an
	// error wrapping reconfig.ErrDeadline. Local repairs and the bootstrap
	// plan are not bounded.
	ReplanDeadline time.Duration
	// Batch / ChannelDepth tune every tenant engine's batched transport
	// (frames per carrier batch, per-stage channel depth). ≤ 0 keeps the
	// defaults.
	Batch, ChannelDepth int
}

// tenant is the executor's live state for one topology entry.
type tenant struct {
	spec *plan.TenantSpec
	res  *embed.Resources

	// Guarded by Executor.mu.
	running      bool
	shedReason   string
	eng          *pipeline.Engine
	st           *pipeline.Stream
	segment      graph.Path
	incarnations int
	agg          pipeline.StreamReport // closed incarnations, summed
	consumerWG   sync.WaitGroup

	submitShed atomic.Int64

	// Per-tenant metrics (created once, survive incarnations).
	procsG  *obs.Gauge
	upG     *obs.Gauge
	shedC   *obs.Counter
	framesC *obs.Counter
}

// ReplanResult describes one coordinated replan.
type ReplanResult struct {
	// Gen is the plan generation applied.
	Gen int `json:"gen"`
	// Affected tenants had their placement changed live (drain/requeue).
	Affected []string `json:"affected,omitempty"`
	// Admitted tenants (re)started on a fresh engine incarnation.
	Admitted []string `json:"admitted,omitempty"`
	// Shed tenants were stopped (capacity, budget, exclusion).
	Shed []string `json:"shed,omitempty"`
	// Unchanged tenants kept their exact segment.
	Unchanged []string `json:"unchanged,omitempty"`
	// Expansions is the solver work this replan cost (0 on memo hit).
	Expansions int64 `json:"expansions"`
}

// TenantReport is a tenant's lifetime accounting across incarnations.
type TenantReport struct {
	Tenant string     `json:"tenant"`
	Class  plan.Class `json:"class"`
	// Running / ShedReason reflect the state at Close.
	Running    bool   `json:"running"`
	ShedReason string `json:"shed_reason,omitempty"`
	// Stream sums the per-incarnation stream reports; Clean() on it is the
	// tenant's zero-loss sink audit.
	Stream pipeline.StreamReport `json:"stream"`
	// SubmitShed counts Bronze frames dropped at intake by backpressure
	// (never admitted, so excluded from the loss audit by design).
	SubmitShed int64 `json:"submit_shed"`
	// Incarnations counts engine (re)starts: initial admission plus every
	// readmission after a shed.
	Incarnations int `json:"incarnations"`
	// Procs is the final placement width (0 when shed).
	Procs int `json:"procs"`
}

// Executor runs a Topology on one shared pool. All methods are safe for
// concurrent use; Inject/Repair serialize replans against each other and
// against tenant state changes, while Submit blocks outside the lock so
// backpressure never stalls a replan.
type Executor struct {
	g       *graph.Graph
	cfg     Config
	topo    *plan.Topology
	planner *plan.Planner
	root    *embed.Resources

	mu       sync.Mutex
	closed   bool
	faults   bitset.Set
	excluded map[string]bool // shed for good (budget); skipped by the planner
	tenants  map[string]*tenant
	order    []string // topology order, for deterministic iteration

	replans      atomic.Int64
	maxAffected  int // max tenants remapped+admitted+shed by one replan, under mu
	replanLat    *obs.Histogram
	replanC      *obs.Counter
	faultsG      *obs.Gauge
	tenantsUpG   *obs.Gauge
	tenantsShedG *obs.Gauge
	classShedG   map[plan.Class]*obs.Gauge
}

// New builds an executor over the pool solution, computes the initial
// plan, and starts every admitted tenant. The topology must come from
// plan.Load/Parse (validated, defaults filled).
func New(sol *construct.Solution, topo *plan.Topology, cfg Config) (*Executor, error) {
	reg := obs.Default()
	x := &Executor{
		g:        sol.Graph,
		cfg:      cfg,
		topo:     topo,
		planner:  plan.NewPlanner(sol, topo),
		root:     embed.NewResources(nil, cfg.Budget, 0),
		faults:   bitset.New(sol.Graph.NumNodes()),
		excluded: make(map[string]bool),
		tenants:  make(map[string]*tenant),

		replanLat:    reg.Histogram("control_replan_ns"),
		replanC:      reg.Counter("control_replans_total"),
		faultsG:      reg.Gauge("control_pool_faults"),
		tenantsUpG:   reg.Gauge("control_tenants", obs.L("state", "running")),
		tenantsShedG: reg.Gauge("control_tenants", obs.L("state", "shed")),
		classShedG:   make(map[plan.Class]*obs.Gauge),
	}
	for _, c := range []plan.Class{plan.Gold, plan.Silver, plan.Bronze} {
		x.classShedG[c] = reg.Gauge("control_class_shed", obs.L("class", c.String()))
	}
	for i := range topo.Tenants {
		spec := &topo.Tenants[i]
		x.order = append(x.order, spec.Name)
		x.tenants[spec.Name] = &tenant{
			spec:    spec,
			res:     x.root.BudgetedChild(spec.Budget),
			procsG:  reg.Gauge("control_tenant_procs", obs.L("tenant", spec.Name)),
			upG:     reg.Gauge("control_tenant_up", obs.L("tenant", spec.Name)),
			shedC:   reg.Counter("control_submit_shed_total", obs.L("tenant", spec.Name)),
			framesC: reg.Counter("control_frames_total", obs.L("tenant", spec.Name)),
		}
	}

	x.mu.Lock()
	defer x.mu.Unlock()
	if _, err := x.replanLocked(0, "bootstrap", -1); err != nil {
		x.releaseLocked()
		return nil, err
	}
	return x, nil
}

// Submit routes one frame to the tenant's stream under its class policy:
// Gold and Silver block on backpressure (the producer is flow-controlled,
// nothing drops), Bronze tries once and returns ErrBackpressure on a full
// intake — the executor counts the drop as shed load. Ownership of f.Data
// transfers to the stream only on nil return.
func (x *Executor) Submit(name string, f pipeline.Frame) error {
	for {
		x.mu.Lock()
		if x.closed {
			x.mu.Unlock()
			return ErrClosed
		}
		t, ok := x.tenants[name]
		if !ok {
			x.mu.Unlock()
			return ErrUnknownTenant
		}
		if !t.running {
			x.mu.Unlock()
			return ErrTenantShed
		}
		st, class := t.st, t.spec.Class
		x.mu.Unlock()

		var err error
		if class == plan.Bronze {
			err = st.TrySubmit(f)
			if errors.Is(err, pipeline.ErrBackpressure) {
				t.submitShed.Add(1)
				t.shedC.Inc()
				return ErrBackpressure
			}
		} else {
			err = st.Submit(f)
		}
		if err == nil {
			t.framesC.Inc()
			return nil
		}
		if errors.Is(err, pipeline.ErrStreamClosed) {
			// The incarnation ended under us (shed or close); loop to
			// re-resolve the tenant's state.
			continue
		}
		return err
	}
}

// GetBuffer leases a frame buffer from the tenant's engine pool (falling
// back to a plain allocation while the tenant is shed, so producers can
// keep a steady loop without branching).
func (x *Executor) GetBuffer(name string, n int) []float64 {
	x.mu.Lock()
	t, ok := x.tenants[name]
	var eng *pipeline.Engine
	if ok && t.running {
		eng = t.eng
	}
	x.mu.Unlock()
	if eng == nil {
		return make([]float64, n)
	}
	return eng.GetBuffer(n)
}

// Inject faults one pool node and runs a coordinated replan: the
// planner's reconfig.Manager repairs the global pipeline (locally when it
// can, with the memo-warm solver otherwise), and every tenant whose
// segment moved is remapped live under a single "replan" root span, with
// per-tenant drain/requeue preserving the zero-loss contract. On error
// (fault beyond tolerance, solver budget, ReplanDeadline) the fault is
// rolled back and every placement is left untouched — the caller decides
// whether to force the issue (it cannot, via this API) or deny the event.
func (x *Executor) Inject(node int) (*ReplanResult, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return nil, ErrClosed
	}
	if node < 0 || node >= x.g.NumNodes() {
		return nil, fmt.Errorf("control: node %d out of range", node)
	}
	if x.faults.Contains(node) {
		return nil, fmt.Errorf("control: node %d already faulty", node)
	}
	x.faults.Add(node)
	res, err := x.replanLocked(x.cfg.ReplanDeadline, "inject", node)
	if err != nil {
		x.faults.Remove(node)
		return nil, err
	}
	x.faultsG.Set(int64(x.faults.Count()))
	return res, nil
}

// Repair heals one pool node and replans; placements grow back and shed
// tenants are readmitted when capacity allows. Symmetric with Inject.
func (x *Executor) Repair(node int) (*ReplanResult, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return nil, ErrClosed
	}
	if node < 0 || node >= x.g.NumNodes() || !x.faults.Contains(node) {
		return nil, fmt.Errorf("control: node %d is not faulty", node)
	}
	x.faults.Remove(node)
	res, err := x.replanLocked(x.cfg.ReplanDeadline, "repair", node)
	if err != nil {
		x.faults.Add(node)
		return nil, err
	}
	x.faultsG.Set(int64(x.faults.Count()))
	return res, nil
}

// replanLocked is the coordinated replan under one "replan" root span:
// plan, charge budgets, diff, and apply. Caller holds x.mu. A fault-driven
// replan ends its root as Manager.Apply ends a remap root (status, remap
// SLO sample, flight-recorder trip on failure); the bootstrap is not a
// fault event and only ends its root.
func (x *Executor) replanLocked(deadline time.Duration, cause string, node int) (*ReplanResult, error) {
	start := time.Now()
	root := span.Start(nil, "replan")
	root.SetStr("cause", cause)
	if node >= 0 {
		root.SetInt("node", int64(node))
	}
	root.SetInt("faults", int64(x.faults.Count()))
	res, err := x.applyPlanLocked(deadline, root)
	if err != nil {
		root.SetStr("error", err.Error())
	} else {
		// Only fault-driven replans count toward the coordination
		// high-water mark; the bootstrap admits everyone by definition.
		if moved := len(res.Affected) + len(res.Admitted) + len(res.Shed); cause != "bootstrap" && moved > x.maxAffected {
			x.maxAffected = moved
		}
		x.replans.Add(1)
		x.replanC.Inc()
		x.replanLat.ObserveDuration(time.Since(start))
		x.refreshGaugesLocked()
		root.SetInt("affected", int64(len(res.Affected))).
			SetInt("admitted", int64(len(res.Admitted))).
			SetInt("shed", int64(len(res.Shed))).
			SetInt("expansions", res.Expansions)
	}
	if cause == "bootstrap" {
		reconfig.EndPhase(root, err)
	} else {
		reconfig.FinishRemap(root, start, err)
	}
	return res, err
}

// applyPlanLocked plans the current fault set and moves the tenants onto
// it. The budget-shed loop is bounded: a tenant whose token stops is added
// to the persistent exclusion set, and the planner re-plans (the fault set
// is unchanged, so the manager does no work) without it.
func (x *Executor) applyPlanLocked(deadline time.Duration, root *span.S) (*ReplanResult, error) {
	var pl *plan.Plan
	for {
		scope := embed.Scoped(x.root, deadline)
		var err error
		pl, err = x.planner.Plan(x.faults, x.excluded, scope, root)
		scope.Release()
		if err != nil {
			return nil, err
		}
		// Charge the solver work to the tenants whose placement it
		// (re)computed: everyone admitted by this plan, equal shares.
		if pl.Expansions > 0 && len(pl.Assignments) > 0 {
			share := (pl.Expansions + int64(len(pl.Assignments)) - 1) / int64(len(pl.Assignments))
			stopped := false
			for _, a := range pl.Assignments {
				t := x.tenants[a.Tenant]
				if t.spec.Budget > 0 && !t.res.Charge(share) && !x.excluded[a.Tenant] {
					x.excluded[a.Tenant] = true
					root.Eventf("budget", "tenant %s exhausted its solver budget", a.Tenant)
					stopped = true
				}
			}
			if stopped {
				continue // re-plan without the exhausted tenants
			}
		}
		break
	}

	res := &ReplanResult{Gen: pl.Gen, Expansions: pl.Expansions}
	// Stop tenants the plan shed.
	assigned := make(map[string]graph.Path, len(pl.Assignments))
	for _, a := range pl.Assignments {
		assigned[a.Tenant] = a.Segment
	}
	for _, name := range x.order {
		t := x.tenants[name]
		seg, ok := assigned[name]
		if !ok {
			reason := "insufficient capacity"
			if x.excluded[name] {
				reason = "budget exhausted"
			}
			if t.running {
				x.stopTenantLocked(t, reason)
				res.Shed = append(res.Shed, name)
			} else {
				t.shedReason = reason // never-admitted tenants carry the reason too
			}
			continue
		}
		switch {
		case !t.running:
			if err := x.startTenantLocked(t, seg, root); err != nil {
				return nil, fmt.Errorf("control: starting tenant %q: %w", name, err)
			}
			res.Admitted = append(res.Admitted, name)
		case slices.Equal(t.segment, seg):
			res.Unchanged = append(res.Unchanged, name)
		default:
			// The tenant's remap span: the engine hangs its
			// drain/requeue/rewire phases under it.
			sp := span.Start(root, "remap").SetStr("op", "replan").SetStr("tenant", name)
			err := t.eng.ApplyPlacement(seg, sp)
			reconfig.EndPhase(sp, err)
			if err != nil {
				return nil, fmt.Errorf("control: remapping tenant %q: %w", name, err)
			}
			t.segment = append(t.segment[:0:0], seg...)
			t.procsG.Set(int64(len(seg)))
			res.Affected = append(res.Affected, name)
		}
	}
	return res, nil
}

// startTenantLocked brings up a fresh engine incarnation on seg. Stage
// state does NOT survive a shed/readmit cycle: a readmitted tenant starts
// its chain (FIR history, LZ78 dictionary) from zero, like a restarted
// process.
func (x *Executor) startTenantLocked(t *tenant, seg graph.Path, parent *span.S) error {
	stgs, err := t.spec.BuildStages()
	if err != nil {
		return err
	}
	eng, err := pipeline.NewPlaced(x.g, seg, stgs, pipeline.WithTenant(t.spec.Name),
		pipeline.WithBatchSize(x.cfg.Batch), pipeline.WithChannelDepth(x.cfg.ChannelDepth))
	if err != nil {
		return err
	}
	st, err := eng.StartStream(pipeline.StreamConfig{MaxPending: t.spec.MaxPending})
	if err != nil {
		return err
	}
	t.eng, t.st = eng, st
	t.segment = append(graph.Path(nil), seg...)
	t.running = true
	t.shedReason = ""
	t.incarnations++
	t.procsG.Set(int64(len(seg)))
	t.upG.Set(1)
	sp := span.Start(parent, "admit")
	sp.SetStr("tenant", t.spec.Name).SetInt("procs", int64(len(seg)))
	sp.End(span.OK)
	// The consumer drains deliveries and recycles their buffers; the sink
	// audit lives in the stream's own ledger.
	t.consumerWG.Add(1)
	go func(eng *pipeline.Engine, st *pipeline.Stream) {
		defer t.consumerWG.Done()
		for f := range st.Out() {
			eng.Recycle(f)
		}
	}(eng, st)
	return nil
}

// stopTenantLocked closes the tenant's stream (flushing every in-flight
// frame), folds the incarnation's report into the lifetime aggregate, and
// marks the tenant shed.
func (x *Executor) stopTenantLocked(t *tenant, reason string) {
	rep := t.st.Close()
	t.consumerWG.Wait()
	t.agg = sumReports(t.agg, rep)
	t.eng, t.st = nil, nil
	t.segment = nil
	t.running = false
	t.shedReason = reason
	t.procsG.Set(0)
	t.upG.Set(0)
}

// refreshGaugesLocked recomputes the tenant-population gauges.
func (x *Executor) refreshGaugesLocked() {
	up, shed := 0, 0
	classShed := map[plan.Class]int{}
	for _, t := range x.tenants {
		if t.running {
			up++
		} else {
			shed++
			classShed[t.spec.Class]++
		}
	}
	x.tenantsUpG.Set(int64(up))
	x.tenantsShedG.Set(int64(shed))
	for c, g := range x.classShedG {
		g.Set(int64(classShed[c]))
	}
}

// Replans returns the number of coordinated replans applied (including
// the bootstrap plan) and the largest tenant count one fault-driven
// replan moved (remapped + admitted + shed; the bootstrap is excluded).
func (x *Executor) Replans() (n int64, maxAffected int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.replans.Load(), x.maxAffected
}

// Tactics returns the planner's repair counts and per-tactic downtime
// ledger: how the global pipeline was repaired across every replan.
func (x *Executor) Tactics() (reconfig.Stats, reconfig.DowntimeStats) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.planner.Tactics()
}

// Faults returns a copy of the current pool fault set.
func (x *Executor) Faults() bitset.Set {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.faults.Clone()
}

// Segments returns each running tenant's current placement — the live
// partition of the pool, for invariant checks.
func (x *Executor) Segments() map[string]graph.Path {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make(map[string]graph.Path)
	for name, t := range x.tenants {
		if t.running {
			out[name] = append(graph.Path(nil), t.segment...)
		}
	}
	return out
}

// Close stops every tenant, releases the resource tree, and returns the
// per-tenant lifetime reports in topology order.
func (x *Executor) Close() []TenantReport {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return nil
	}
	x.closed = true
	var out []TenantReport
	for _, name := range x.order {
		t := x.tenants[name]
		procs := 0
		wasRunning := t.running
		if t.running {
			procs = len(t.segment)
			x.stopTenantLocked(t, "")
		}
		out = append(out, TenantReport{
			Tenant:       name,
			Class:        t.spec.Class,
			Running:      wasRunning,
			ShedReason:   t.shedReason,
			Stream:       t.agg,
			SubmitShed:   t.submitShed.Load(),
			Incarnations: t.incarnations,
			Procs:        procs,
		})
	}
	x.refreshGaugesLocked()
	x.releaseLocked()
	return out
}

func (x *Executor) releaseLocked() {
	for _, t := range x.tenants {
		t.res.Release()
	}
	x.root.Release()
}

// sumReports folds incarnation reports: counters add, MaxDowntime takes
// the max.
func sumReports(a, b pipeline.StreamReport) pipeline.StreamReport {
	a.Submitted += b.Submitted
	a.Delivered += b.Delivered
	a.Requeued += b.Requeued
	a.Lost += b.Lost
	a.Duplicated += b.Duplicated
	a.OutOfOrder += b.OutOfOrder
	a.Remaps += b.Remaps
	a.RemapFailures += b.RemapFailures
	a.TotalDowntime += b.TotalDowntime
	if b.MaxDowntime > a.MaxDowntime {
		a.MaxDowntime = b.MaxDowntime
	}
	return a
}
