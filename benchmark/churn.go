package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gdpn/internal/bitset"
	"gdpn/internal/construct"
	"gdpn/internal/control"
	"gdpn/internal/faults"
	"gdpn/internal/obs"
	"gdpn/internal/obs/span"
	"gdpn/internal/pipeline"
	"gdpn/internal/plan"
	"gdpn/internal/verify"
	"gdpn/internal/workload"
)

// The churn workload: the gold and silver tenants of the mixed topology
// share the G(12,3) pool through control.Executor. One goroutine submits
// round-robin (closed loop: Gold and Silver submissions block on
// backpressure) and, after every churnFramesPerEvent frames, applies the
// next event of the seeded fault schedule. Events are triggered by frame
// count and their timestamps ignored, so every run at a seed does the same
// work in the same order. Bronze is left out: its TrySubmit drops depend on
// timing.
const (
	churnTopology       = "examples/topologies/mixed.json"
	churnFramesPerEvent = 1024
	churnWarmupFrames   = 16384
	churnTemplates      = 16 // distinct input frames per tenant, cycled by seq
	churnMTBF           = 3 * time.Second
	churnMTTR           = 800 * time.Millisecond
	// churnMinEvents gives replan_p90_ms at least ten samples beyond it.
	churnMinEvents = 100
)

// churnEvent is one applied schedule event and the replan it caused.
type churnEvent struct {
	Node     int
	Repair   bool
	Affected []string
	Admitted []string
	Shed     []string
}

// churnLog is what the exact-repeat test compares between two runs.
type churnLog struct {
	Events    []churnEvent
	Delivered map[string]int64
	Replans   int64
}

type churnRig struct {
	sol    *construct.Solution
	topo   *plan.Topology
	x      *control.Executor
	inputs [][][]float64 // per tenant, churnTemplates frames
	seqs   []int         // next seq per tenant
	sent   int64

	timeSubmit bool
	submitNS   int64
}

// loadChurnTopology parses the mixed topology and keeps its gold and
// silver tenants.
func loadChurnTopology(root string) (*plan.Topology, error) {
	data, err := os.ReadFile(filepath.Join(root, churnTopology))
	if err != nil {
		return nil, err
	}
	topo, err := plan.Parse(data)
	if err != nil {
		return nil, err
	}
	var kept []plan.TenantSpec
	for _, t := range topo.Tenants {
		if t.Class != plan.Bronze {
			kept = append(kept, t)
		}
	}
	if len(kept) != 2 {
		return nil, fmt.Errorf("%s: want one gold and one silver tenant, found %d non-bronze tenants", churnTopology, len(kept))
	}
	topo.Tenants = kept
	return topo, nil
}

func churnInputs(topo *plan.Topology, seed int64) [][][]float64 {
	out := make([][][]float64, len(topo.Tenants))
	for i, t := range topo.Tenants {
		gen := workload.Video(t.FrameSamples/4, seed+int64(i))
		for j := 0; j < churnTemplates; j++ {
			d := make([]float64, t.FrameSamples)
			workload.Fill(gen, d)
			out[i] = append(out[i], d)
		}
	}
	return out
}

func newChurnRig(topo *plan.Topology, inputs [][][]float64) (*churnRig, error) {
	sol, err := construct.Design(topo.Pool.N, topo.Pool.K)
	if err != nil {
		return nil, err
	}
	x, err := control.New(sol, topo, control.Config{})
	if err != nil {
		return nil, err
	}
	return &churnRig{sol: sol, topo: topo, x: x, inputs: inputs, seqs: make([]int, len(topo.Tenants))}, nil
}

// submit sends n frames round-robin across the tenants.
func (c *churnRig) submit(r *run, n int) {
	for i := 0; i < n; i++ {
		t := int(c.sent % int64(len(c.topo.Tenants)))
		spec := &c.topo.Tenants[t]
		d := c.x.GetBuffer(spec.Name, spec.FrameSamples)
		copy(d, c.inputs[t][c.seqs[t]%churnTemplates])
		var s int64
		if c.timeSubmit {
			s = nanotime()
		}
		err := c.x.Submit(spec.Name, pipeline.Frame{Seq: c.seqs[t], Data: d})
		if c.timeSubmit {
			c.submitNS += nanotime() - s
		}
		if err != nil {
			r.fail("churn: submit %s seq %d: %v", spec.Name, c.seqs[t], err)
			return
		}
		c.seqs[t]++
		c.sent++
	}
}

// close stops the executor and checks every tenant's sink audit. It
// returns delivered frames per tenant.
func (c *churnRig) close(r *run) map[string]int64 {
	reps := c.x.Close()
	delivered := map[string]int64{}
	for i, t := range reps {
		delivered[t.Tenant] = t.Stream.Delivered
		r.check(t.Stream.Clean() && t.Stream.Submitted == int64(c.seqs[i]),
			"churn: tenant %s not clean: submitted=%d (sent %d) delivered=%d lost=%d dup=%d ooo=%d",
			t.Tenant, t.Stream.Submitted, c.seqs[i], t.Stream.Delivered, t.Stream.Lost, t.Stream.Duplicated, t.Stream.OutOfOrder)
	}
	return delivered
}

// checkPartition re-proves the placement invariants after an event: the
// pool fault set is the schedule's, every running segment passes
// CheckSegment, segments are disjoint and together cover every healthy
// processor.
func (c *churnRig) checkPartition(r *run, want bitset.Set) {
	f := c.x.Faults()
	ok := f.Equal(want)
	covered := map[int]bool{}
	for _, seg := range c.x.Segments() {
		if verify.CheckSegment(c.sol.Graph, f, seg, seg) != nil {
			ok = false
		}
		for _, v := range seg {
			if covered[v] {
				ok = false
			}
			covered[v] = true
		}
	}
	healthy := 0
	for _, p := range c.sol.Graph.Processors() {
		if !f.Contains(p) {
			healthy++
		}
	}
	r.check(ok && len(covered) == healthy, "churn: placements after event do not partition the %d healthy processors (faults %v)", healthy, f.Slice())
}

func runChurn(cfg config, r *run) e2e {
	m, _ := churn(cfg, r, 0)
	return m
}

// churn runs the workload: cfg.setups set-ups, then a window of frames
// and schedule events. maxEvents > 0 ends the window after that many
// events instead of after cfg.window (the exact-repeat test).
func churn(cfg config, r *run, maxEvents int) (e2e, *churnLog) {
	topo, err := loadChurnTopology(cfg.root)
	if err != nil {
		r.fail("churn: %v", err)
		return nil, nil
	}
	inputs := churnInputs(topo, cfg.seed)
	var col *collector
	if cfg.traced {
		col = collect(nil)
		defer col.finish()
	}

	var setups []float64
	var rig *churnRig
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		rg, err := newChurnRig(topo, inputs)
		if err != nil {
			r.fail("churn: set-up: %v", err)
			return nil, nil
		}
		rg.submit(r, churnWarmupFrames)
		setups = append(setups, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			rg.close(r)
		} else {
			rig = rg
		}
	}
	sch, err := faults.NewSchedule(rig.sol.Graph, faults.ScheduleConfig{
		MTBF: churnMTBF, MTTR: churnMTTR, MaxFaults: rig.sol.K,
	}, cfg.seed)
	if err != nil {
		r.fail("churn: schedule: %v", err)
		rig.close(r)
		return nil, nil
	}

	log := &churnLog{}
	var replanMS []float64
	var faultSeq []bitset.Set // pool fault set after each event, for the planner replay
	cur := bitset.New(rig.sol.Graph.NumNodes())
	rig.timeSubmit = cfg.traced
	warm := rig.sent
	cpu0, t0 := cpuTime(), nanotime()
	for {
		rig.submit(r, churnFramesPerEvent)
		for _, ev := range sch.Next() {
			sp := span.Start(nil, "bench.replan")
			s := nanotime()
			var res *control.ReplanResult
			if ev.Repair {
				res, err = rig.x.Repair(ev.Node)
			} else {
				res, err = rig.x.Inject(ev.Node)
			}
			d := nanotime() - s
			sp.End(span.OK)
			r.attempted++
			if err != nil {
				r.fail("churn: event node=%d repair=%v: %v", ev.Node, ev.Repair, err)
				continue
			}
			replanMS = append(replanMS, float64(d)/1e6)
			log.Events = append(log.Events, churnEvent{Node: ev.Node, Repair: ev.Repair, Affected: res.Affected, Admitted: res.Admitted, Shed: res.Shed})
			if ev.Repair {
				cur.Remove(ev.Node)
			} else {
				cur.Add(ev.Node)
			}
			faultSeq = append(faultSeq, cur.Clone())
		}
		rig.checkPartition(r, sch.Faulty())
		if maxEvents > 0 && len(log.Events) >= maxEvents || maxEvents == 0 && nanotime()-t0 >= int64(cfg.window) {
			break
		}
	}
	// The live heap is read with every tenant still running; the forced
	// collection is kept out of the window's wall and CPU time.
	g0, gc0 := nanotime(), cpuTime()
	heap := liveHeapMB()
	gcWall, gcCPU := nanotime()-g0, cpuTime()-gc0
	log.Delivered = rig.close(r)
	elapsed := time.Duration(nanotime() - t0 - gcWall)
	cpu := cpuTime() - cpu0 - gcCPU
	log.Replans, _ = rig.x.Replans()

	var delivered int64
	for _, n := range log.Delivered {
		delivered += n
	}
	frames := delivered - warm
	r.attempted += frames
	if !cfg.short && maxEvents == 0 {
		r.check(len(replanMS) >= churnMinEvents, "churn: only %d events in the window, want at least %d", len(replanMS), churnMinEvents)
	}
	m := e2e{
		"setup_s":         {median(setups), "s"},
		"items_per_s":     {float64(frames) / elapsed.Seconds(), "1/s"},
		"latency_p50_ms":  {quantile(replanMS, 0.5), "ms"},
		"latency_p99_ms":  {quantile(replanMS, 0.99), "ms"},
		"replan_p90_ms":   {quantile(replanMS, 0.9), "ms"},
		"cpu_us_per_item": {float64(cpu.Microseconds()) / float64(max(frames, 1)), "us"},
		"live_heap_mb":    {heap, "MB"},
	}
	if cfg.traced {
		col.finish()
		churnLayers(r, col.spans, log, rig, faultSeq, float64(rig.submitNS)/float64(max(rig.sent-warm, 1)))
		stageKernels(r, topo, inputs)
	}
	return m, log
}

// churnLayers derives the control, plan, embed and remap layer metrics of
// a traced churn window from its spans, and the layer-sum check.
func churnLayers(r *run, spans []span.Span, log *churnLog, rig *churnRig, faultSeq []bitset.Set, submitNS float64) {
	t := newSpanTree(spans)
	var drain, requeue, rewire, requeued, controlSelf, planSelf []float64
	var totals, layerSums []float64
	solve := map[string][]float64{}
	for _, sp := range t.spans {
		switch sp.Name {
		case "drain":
			drain = append(drain, us(sp.Duration()))
		case "requeue":
			requeue = append(requeue, us(sp.Duration()))
			if v, ok := sp.Attr("frames"); ok {
				var n float64
				fmt.Sscan(v, &n)
				requeued = append(requeued, n)
			}
		case "rewire":
			rewire = append(rewire, us(sp.Duration()))
		case "solve":
			tier, ok := sp.Attr("tier")
			if !ok {
				tier = "memo"
			}
			solve[tier] = append(solve[tier], us(sp.Duration()))
		case "plan":
			planSelf = append(planSelf, us(t.self(sp)))
		}
	}
	// Each event is one bench.replan span around Executor.Inject/Repair and
	// one replan root inside it, in the same order.
	var bench, roots []span.Span
	for _, sp := range t.spans {
		if sp.Name == "bench.replan" {
			bench = append(bench, sp)
		}
		if c, _ := sp.Attr("cause"); sp.Name == "replan" && c != "bootstrap" {
			roots = append(roots, sp)
		}
	}
	for i := 0; i < len(roots) && i < len(bench); i++ {
		root := roots[i]
		controlSelf = append(controlSelf, us(t.self(root)))
		layers := t.self(root)
		for _, c := range t.children[root.ID] {
			switch c.Name {
			case "plan":
				layers += c.Duration()
			case "remap":
				for _, cc := range t.children[c.ID] {
					layers += cc.Duration() // drain, requeue, rewire
				}
			}
		}
		totals = append(totals, us(bench[i].Duration()))
		layerSums = append(layerSums, us(layers))
	}
	r.check(len(roots) == len(log.Events) && len(bench) == len(log.Events),
		"churn: %d events but %d replan spans and %d bench.replan spans", len(log.Events), len(roots), len(bench))

	r.layer("pipeline.remap.drain_us", median(drain), "us")
	r.layer("pipeline.remap.requeue_us", median(requeue), "us")
	r.layer("pipeline.remap.rewire_us", median(rewire), "us")
	r.layer("pipeline.requeued_per_remap", mean(requeued), "count")
	r.layer("control.replan_self_us", median(controlSelf), "us")
	r.layer("control.submit_us", submitNS/1e3, "us")
	moved := 0
	for _, ev := range log.Events {
		moved += len(ev.Affected) + len(ev.Admitted) + len(ev.Shed)
	}
	r.layer("control.tenants_moved_per_replan", float64(moved)/float64(max(len(log.Events), 1)), "count")
	r.layer("plan.plan_self_us", median(planSelf), "us")
	for _, tier := range churnTiers {
		r.layer("embed.solve_us."+tier, median(solve[tier]), "us")
	}
	reg := obs.Default()
	hits, misses := reg.Counter("embed_memo_hit_total").Value(), reg.Counter("embed_memo_miss_total").Value()
	r.layer("embed.memo_lookups", float64(hits+misses), "count")
	r.layer("embed.memo_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	total, layers := mean(totals), mean(layerSums)
	r.layer("sum.churn.replan_us", total, "us")
	r.layer("sum.churn.layers_us", layers, "us")
	r.layer("sum.churn.gap_us", total-layers, "us")

	// Replay the window's fault sequence straight through a fresh planner:
	// the plan layer without the executor and the engines.
	p := plan.NewPlanner(rig.sol, rig.topo)
	sp := span.Start(nil, "bench.plan-replay")
	s := nanotime()
	for _, f := range faultSeq {
		_, err := p.Plan(f, nil, nil, nil)
		r.check(err == nil, "churn: planner replay on faults %v: %v", f.Slice(), err)
	}
	d := nanotime() - s
	sp.End(span.OK)
	r.layer("plan.replay_us", float64(d)/1e3/float64(max(len(faultSeq), 1)), "us")
}

// churnTiers are where churn's replans resolve: memo hits, and the exact
// Held–Karp engine on the 15-processor pool (G(12,3) has no asymptotic
// layout, so the structured planner never runs there).
var churnTiers = []string{"memo", "dp"}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
