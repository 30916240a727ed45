package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"gdpn/internal/baseline"
	"gdpn/internal/bitset"
	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/faults"
	"gdpn/internal/locality"
	"gdpn/internal/pipeline"
	"gdpn/internal/reconfig"
	"gdpn/internal/stages"
	"gdpn/internal/verify"
	"gdpn/internal/workload"
)

func init() {
	register("S1", "Streaming pipeline survives fault injection (§1 motivation)", runS1)
	register("S2", "Utilization: graceful vs spare-based; degree vs naive Hayes labeling (§2)", runS2)
	register("S3", "Batched zero-allocation transport vs per-frame baseline", runS3)
	register("P1", "Ablation: solver engines on the asymptotic family", runP1)
	register("P2", "Ablation: bisector edges are necessary for odd k", runP2)
	register("P3", "Ablation: portfolio tier hit rates", runP3)
	register("E1", "Extension: link faults via Hayes' endpoint reduction (§2)", runE1)
	register("P4", "Extension: incremental repair vs full recompute", runP4)
	register("E2", "Extension: physical locality of reconfigured pipelines", runE2)
}

// runP4 measures the incremental reconfiguration manager: which local
// tactic repaired each arriving fault, and how often the full solver was
// needed. A deployment cares because every full remap migrates stage
// state across the whole array, while a splice or rewire touches a
// segment at most.
func runP4(cfg Config) *Table {
	t := &Table{
		Claim: "(extension) most single-fault arrivals are repairable locally (splice / rewire / endpoint swap)",
		Cols:  []string{"graph", "faults", "no-change", "splice", "rewire", "endpoint", "full remap", "avg repair"},
	}
	t.OK = true
	rounds := 300
	if cfg.Quick {
		rounds = 60
	}
	for _, c := range []struct{ n, k int }{{22, 4}, {100, 6}, {500, 6}} {
		sol, err := construct.Design(c.n, c.k)
		if err != nil {
			t.OK = false
			continue
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		var agg reconfig.Stats
		var total time.Duration
		faultsInjected := 0
		for round := 0; round < rounds; round++ {
			mgr, err := reconfig.New(sol)
			if err != nil {
				t.Note("%v", err)
				t.OK = false
				break
			}
			for f := 0; f < c.k; f++ {
				v := rng.Intn(sol.Graph.NumNodes())
				if mgr.Faults().Contains(v) {
					continue
				}
				start := time.Now()
				if _, err := mgr.Fault(v); err != nil {
					t.Note("fault rejected: %v", err)
					t.OK = false
					break
				}
				total += time.Since(start)
				faultsInjected++
			}
			st := mgr.Stats()
			agg.NoChange += st.NoChange
			agg.Splice += st.Splice
			agg.Rewire += st.Rewire
			agg.EndpointSwap += st.EndpointSwap
			agg.FullRemap += st.FullRemap
		}
		if faultsInjected == 0 {
			continue
		}
		t.AddRow(sol.Graph.Name(), fmt.Sprint(faultsInjected),
			fmt.Sprint(agg.NoChange), fmt.Sprint(agg.Splice), fmt.Sprint(agg.Rewire),
			fmt.Sprint(agg.EndpointSwap), fmt.Sprint(agg.FullRemap),
			(total / time.Duration(faultsInjected)).Round(time.Microsecond).String())
		local := agg.NoChange + agg.Splice + agg.Rewire + agg.EndpointSwap
		if local*2 < agg.FullRemap {
			t.Note("full remaps dominate on %s", sol.Graph.Name())
			t.OK = false
		}
	}
	return t
}

// runE1 verifies the §2 remark that Hayes' graph model — which the paper
// adopts — handles communication-link faults by viewing an adjacent
// processor as faulty: any k broken links reduce to ≤ k node faults, so a
// k-GD network tolerates them, and the surviving pipeline never crosses a
// broken link.
func runE1(cfg Config) *Table {
	t := &Table{
		Claim: "k link faults reduce to ≤ k node faults (Hayes), so every k-GD network tolerates them",
		Cols:  []string{"n", "k", "link sets", "max node faults", "tolerated", "no faulty link used"},
	}
	t.OK = true
	trials := 500
	if cfg.Quick {
		trials = 150
	}
	for _, c := range []struct{ n, k int }{{8, 2}, {9, 3}, {22, 4}} {
		sol, err := construct.Design(c.n, c.k)
		if err != nil {
			t.OK = false
			continue
		}
		g := sol.Graph
		solver := embed.NewSolver(g, embed.Options{Layout: sol.Layout})
		rng := rand.New(rand.NewSource(cfg.Seed))
		maxNodeFaults, tolerated, clean := 0, 0, true
		for i := 0; i < trials; i++ {
			links := faults.RandomLinks(rng, g, c.k)
			nf, err := faults.LinksToNodes(g, links)
			if err != nil {
				t.OK = false
				break
			}
			if nf.Count() > maxNodeFaults {
				maxNodeFaults = nf.Count()
			}
			r := solver.Find(nf)
			if !r.Found || verify.CheckPipeline(g, nf, r.Pipeline) != nil {
				continue
			}
			tolerated++
			for j := 1; j < len(r.Pipeline); j++ {
				for _, l := range links {
					if (r.Pipeline[j-1] == l.U && r.Pipeline[j] == l.V) ||
						(r.Pipeline[j-1] == l.V && r.Pipeline[j] == l.U) {
						clean = false
					}
				}
			}
		}
		t.AddRow(fmt.Sprint(c.n), fmt.Sprint(c.k), fmt.Sprint(trials),
			fmt.Sprint(maxNodeFaults), fmt.Sprintf("%d/%d", tolerated, trials), boolCell(clean))
		t.OK = t.OK && tolerated == trials && clean && maxNodeFaults <= c.k
	}
	return t
}

// runP3 measures which tier of the Auto ladder resolves each fault set:
// the constructive planner should dominate on asymptotic-family graphs,
// with search engines as a thin safety net.
func runP3(cfg Config) *Table {
	t := &Table{
		Claim: "(ablation) the staged ladder resolves almost everything in its cheapest applicable tier",
		Cols:  []string{"graph", "trials", "planner", "probe", "dp", "full", "trivial"},
	}
	t.OK = true
	trials := 2000
	if cfg.Quick {
		trials = 400
	}
	for _, c := range []struct{ n, k int }{{22, 4}, {100, 4}, {101, 5}, {200, 8}} {
		sol, err := construct.Design(c.n, c.k)
		if err != nil {
			t.Note("%v", err)
			t.OK = false
			continue
		}
		solver := embed.NewSolver(sol.Graph, embed.Options{Layout: sol.Layout})
		rng := rand.New(rand.NewSource(cfg.Seed))
		for i := 0; i < trials; i++ {
			fs := bitset.New(sol.Graph.NumNodes())
			for fs.Count() < rng.Intn(c.k+1) {
				fs.Add(rng.Intn(sol.Graph.NumNodes()))
			}
			r := solver.Find(fs)
			if r.Unknown {
				t.Note("unknown on %v", fs.Slice())
				t.OK = false
			}
		}
		st := solver.Stats()
		t.AddRow(sol.Graph.Name(), fmt.Sprint(st.Total()),
			fmt.Sprint(st.Planner), fmt.Sprint(st.Probe),
			fmt.Sprint(st.DP), fmt.Sprint(st.Full), fmt.Sprint(st.Trivial))
		// The planner must carry the overwhelming majority.
		if st.Planner*10 < st.Total()*8 {
			t.Note("planner hit rate below 80%% on %s", sol.Graph.Name())
			t.OK = false
		}
	}
	return t
}

// runS1 maps a video-style processing chain (subsample → rescale → FIR →
// quantize → LZ78) onto a designed network, injects faults one at a time,
// and reports per-epoch throughput, processors in use, and remap latency.
func runS1(cfg Config) *Table {
	t := &Table{
		Claim: "after each of ≤ k faults the stream keeps flowing and the pipeline still uses ALL healthy processors",
		Cols:  []string{"epoch", "faults", "procs in use", "healthy", "frames", "throughput MB/s", "remap µs"},
	}
	n, k := 24, 4
	framesPerEpoch, frameSize := 64, 4096
	if cfg.Quick {
		framesPerEpoch, frameSize = 16, 1024
	}
	sol, err := construct.Design(n, k)
	if err != nil {
		t.Note("%v", err)
		return t
	}
	mgr, err := reconfig.New(sol)
	if err != nil {
		t.Note("%v", err)
		return t
	}
	eng, err := pipeline.NewPlaced(sol.Graph, mgr.Interior(), []stages.Stage{
		stages.NewSubsample(2),
		&stages.Rescale{Gain: 1.5, Offset: 0.1},
		stages.NewFIR([]float64{0.25, 0.5, 0.25}),
		stages.NewQuantize(-16, 16, 256),
		stages.NewLZ78(4096),
	})
	if err != nil {
		t.Note("%v", err)
		return t
	}
	inj := faults.NewInjector(faults.ProcessorsOnly{}, sol.Graph, k, cfg.Seed)
	gen := workload.Video(frameSize/4, cfg.Seed)
	t.OK = true
	var remap time.Duration
	for epoch := 0; ; epoch++ {
		frames := workload.Frames(gen, framesPerEpoch, frameSize, epoch*framesPerEpoch)
		start := time.Now()
		out := eng.Process(frames)
		elapsed := time.Since(start)
		mbps := float64(framesPerEpoch*frameSize*8) / 1e6 / elapsed.Seconds()
		healthy := sol.N + sol.K - mgr.Faults().Count()
		t.AddRow(fmt.Sprint(epoch), fmt.Sprint(mgr.Faults().Count()), fmt.Sprint(eng.ProcessorsInUse()),
			fmt.Sprint(healthy), fmt.Sprint(len(out)), fmt.Sprintf("%.1f", mbps),
			fmt.Sprint(remap.Microseconds()))
		if len(out) != framesPerEpoch || eng.ProcessorsInUse() != healthy {
			t.OK = false
		}
		node, ok := inj.Next()
		if !ok {
			break
		}
		start = time.Now()
		if err := mgr.Apply(reconfig.OpFault, node, eng.ApplyPlacement); err != nil {
			t.Note("inject %d failed: %v", node, err)
			t.OK = false
			break
		}
		remap = time.Since(start)
	}
	t.Note("graceful degradation: 'procs in use' tracks 'healthy' exactly across all epochs")
	return t
}

// runS3 races the batched pooled transport against the per-frame
// baseline (batch size 1) on an identical G(12,3) stream and gates the
// two claims the transport makes: throughput (≥ 1.5x on small,
// transport-bound frames) and steady-state allocation (~0 per frame with
// a pool-leasing producer and a recycling consumer). The strict ≥ 2x
// claim is pinned by BenchmarkStreamSteadyState; this gate keeps margin
// for the shared CI runner.
func runS3(cfg Config) *Table {
	t := &Table{
		Claim: "batched pooled transport beats per-frame delivery by ≥1.5x with ~0 allocs/frame in steady state",
		Cols:  []string{"mode", "batch", "frames", "ns/frame", "MB/s", "allocs/frame"},
	}
	// Small frames keep the chain transport-bound (channel synchronization
	// dominates); larger frames shift the profile toward stage compute and
	// dilute what this experiment measures.
	const frameSize = 64
	frames := 20000
	if cfg.Quick {
		frames = 6000
	}
	sol, err := construct.Design(12, 3)
	if err != nil {
		t.Note("%v", err)
		return t
	}
	// Both transports run on the fault-free pipeline's full interior.
	mgr, err := reconfig.New(sol)
	if err != nil {
		t.Note("%v", err)
		return t
	}
	interior := mgr.Interior()
	// No LZ78: its dictionary allocates internally — stage compute, not
	// transport — and would drown the allocation signal being gated.
	chain := func() []stages.Stage {
		return []stages.Stage{
			stages.NewSubsample(2),
			&stages.Rescale{Gain: 1.5, Offset: 0.1},
			stages.NewFIR([]float64{0.25, 0.5, 0.25}),
			stages.NewQuantize(-16, 16, 256),
		}
	}
	run := func(opts ...pipeline.Option) (nsPerFrame, allocsPerFrame float64, err error) {
		eng, err := pipeline.NewPlaced(sol.Graph, interior, chain(), opts...)
		if err != nil {
			return 0, 0, err
		}
		st, err := eng.StartStream(pipeline.StreamConfig{MaxPending: 64})
		if err != nil {
			return 0, 0, err
		}
		consumed := make(chan struct{})
		go func() {
			defer close(consumed)
			for f := range st.Out() {
				eng.Recycle(f)
			}
		}()
		// One synthesized template copied per frame: a per-sample generator
		// in the producer would serialize with the chain on small machines
		// and dilute the transport ratio being measured.
		template := make([]float64, frameSize)
		workload.Fill(workload.Video(frameSize/4, cfg.Seed), template)
		seq := 0
		pump := func(n int) error {
			for i := 0; i < n; i++ {
				d := eng.GetBuffer(frameSize)
				copy(d, template)
				if err := st.Submit(pipeline.Frame{Seq: seq, Data: d}); err != nil {
					return err
				}
				seq++
			}
			return nil
		}
		// Warm the free lists and goroutine stacks.
		if err := pump(512); err != nil {
			return 0, 0, err
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := pump(frames); err != nil {
			return 0, 0, err
		}
		rep := st.Close()
		<-consumed
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if !rep.Clean() {
			return 0, 0, fmt.Errorf("stream not clean: lost=%d dup=%d", rep.Lost, rep.Duplicated)
		}
		return float64(elapsed.Nanoseconds()) / float64(frames),
			float64(after.Mallocs-before.Mallocs) / float64(frames), nil
	}
	mbps := func(nsPerFrame float64) float64 { return frameSize * 8 * 1e3 / nsPerFrame }

	batch := cfg.Batch
	if batch <= 0 {
		batch = pipeline.DefaultBatchSize
	}
	perNS, perAllocs, err := run(pipeline.WithBatchSize(1))
	if err != nil {
		t.Note("per-frame run: %v", err)
		return t
	}
	batchNS, batchAllocs, err := run(pipeline.WithBatchSize(batch))
	if err != nil {
		t.Note("batched run: %v", err)
		return t
	}
	t.AddRow("per-frame", "1", fmt.Sprint(frames),
		fmt.Sprintf("%.0f", perNS), fmt.Sprintf("%.1f", mbps(perNS)), fmt.Sprintf("%.3f", perAllocs))
	t.AddRow("batched", fmt.Sprint(batch), fmt.Sprint(frames),
		fmt.Sprintf("%.0f", batchNS), fmt.Sprintf("%.1f", mbps(batchNS)), fmt.Sprintf("%.3f", batchAllocs))
	speedup := perNS / batchNS
	t.OK = batchAllocs < 0.5
	if raceDetector {
		// Race instrumentation compresses the batched/per-frame gap to
		// about the gate itself, so the speedup is reported, not gated.
		t.Note("speedup %.2fx (not gated under the race detector), batched allocs/frame %.3f (gate <0.5)", speedup, batchAllocs)
		return t
	}
	t.Note("speedup %.2fx (gate ≥1.5x), batched allocs/frame %.3f (gate <0.5)", speedup, batchAllocs)
	t.OK = t.OK && speedup >= 1.5
	return t
}

// runS2 quantifies the two §2 critiques. (a) Utilization: a spare-based
// non-graceful pipeline runs exactly n processors while the graceful one
// runs all healthy ones — the gap is (k−f)/(n+k−f) wasted capacity.
// (b) Labeling: naive terminals on Hayes's circulant cost one extra unit
// of processor degree over the paper's degree-optimal construction (and,
// empirically on small instances, remain k-GD — an observation the paper's
// optimality framing subsumes; see EXPERIMENTS.md).
func runS2(cfg Config) *Table {
	t := &Table{
		Claim: "prior schemes waste healthy processors (non-graceful) or exceed optimal degree (unlabeled + naive terminals)",
		Cols:  []string{"faults f", "healthy", "graceful procs", "graceful util", "spare procs", "spare util"},
	}
	n, k := 16, 4 // asymptotic regime: degree-optimal with a layout
	sol, err := construct.Design(n, k)
	if err != nil {
		t.Note("%v", err)
		return t
	}
	g := sol.Graph
	solver := embed.NewSolver(g, embed.Options{Layout: sol.Layout})
	rng := rand.New(rand.NewSource(cfg.Seed))
	t.OK = true
	fs := bitset.New(g.NumNodes())
	procs := g.Processors()
	for f := 0; f <= k; f++ {
		if f > 0 {
			for {
				v := procs[rng.Intn(len(procs))]
				if !fs.Contains(v) {
					fs.Add(v)
					break
				}
			}
		}
		healthy := n + k - f
		res := solver.Find(fs)
		if !res.Found || verify.CheckPipeline(g, fs, res.Pipeline) != nil {
			t.Note("graceful pipeline failed at f=%d", f)
			t.OK = false
			continue
		}
		gProcs := len(res.Pipeline) - 2
		sp, ok := baseline.FindFixedPipeline(g, fs, n, 10_000_000)
		spProcs := 0
		if ok {
			spProcs = len(sp) - 2
		}
		t.AddRow(fmt.Sprint(f), fmt.Sprint(healthy),
			fmt.Sprint(gProcs), fmt.Sprintf("%.3f", baseline.Utilization(healthy, gProcs)),
			fmt.Sprint(spProcs), fmt.Sprintf("%.3f", baseline.Utilization(healthy, spProcs)))
		t.OK = t.OK && gProcs == healthy && ok && spProcs == n
	}
	// (b) degree comparison against the naive Hayes labeling.
	naive := baseline.NaiveTerminals(baseline.HayesCycle(n, k), k)
	t.Note("degree: paper G(%d,%d)=%d (optimal), naive Hayes labeling=%d (+1 over optimal)",
		n, k, sol.MaxDegree, naive.MaxProcessorDegree())
	t.OK = t.OK && sol.DegreeOptimal && naive.MaxProcessorDegree() == sol.MaxDegree+1
	return t
}

// runP1 compares the solver engines on identical fault workloads over the
// asymptotic family: completeness class, median/max behaviour.
func runP1(cfg Config) *Table {
	t := &Table{
		Claim: "(ablation) the planner-first auto ladder dominates at scale; DP is exact but bounded; backtracking is the general fallback",
		Cols:  []string{"engine", "n", "found", "failed", "unknown", "total time", "max expansions"},
	}
	t.OK = true
	trials := 300
	if cfg.Quick {
		trials = 80
	}
	for _, n := range []int{40, 200} {
		g, lay, err := construct.Asymptotic(n, 4)
		if err != nil {
			t.Note("%v", err)
			return t
		}
		engines := []struct {
			name string
			opts embed.Options
		}{
			{"backtracking", embed.Options{Method: embed.Backtracking, Budget: 2_000_000}},
			{"auto", embed.Options{Layout: lay}},
		}
		for _, e := range engines {
			solver := embed.NewSolver(g, e.opts)
			rng := rand.New(rand.NewSource(cfg.Seed))
			var found, failed, unknown int
			var maxExp int64
			start := time.Now()
			for i := 0; i < trials; i++ {
				fsz := rng.Intn(5)
				fs := bitset.New(g.NumNodes())
				for fs.Count() < fsz {
					fs.Add(rng.Intn(g.NumNodes()))
				}
				r := solver.Find(fs)
				switch {
				case r.Found:
					found++
				case r.Unknown:
					unknown++
				default:
					failed++
				}
				if r.Expansions > maxExp {
					maxExp = r.Expansions
				}
			}
			t.AddRow(e.name, fmt.Sprint(n), fmt.Sprint(found), fmt.Sprint(failed),
				fmt.Sprint(unknown), time.Since(start).Round(time.Millisecond).String(), fmt.Sprint(maxExp))
			// Auto must find everything the workload admits; genuine
			// failures only occur when a fault set isolates terminals,
			// which all engines must agree on.
			if e.name != "backtracking" && unknown > 0 {
				t.OK = false
			}
		}
	}
	return t
}

// runP2 removes the bisector edges from an odd-k construction and shows
// the result is no longer even a candidate (Lemma 3.1 is violated) and
// concretely fails verification — the design choice is load-bearing.
func runP2(cfg Config) *Table {
	t := &Table{
		Claim: "(ablation) dropping the odd-k bisector edges breaks the construction (ring degree falls to k+1 < k+2)",
		Cols:  []string{"variant", "min processor degree", "Lemma 3.1 holds", "GD"},
	}
	n, k := 26, 5
	g, lay, err := construct.Asymptotic(n, k)
	if err != nil {
		t.Note("%v", err)
		return t
	}
	repFull := verify.Random(g, k, 1500, cfg.Seed, layoutOpts(cfg, lay))
	t.AddRow("with bisectors", fmt.Sprint(g.MinProcessorDegree()),
		boolCell(verify.CheckNecessaryConditions(g, n, k) == nil), boolCell(repFull.OK()))

	// Ablate: remove every bisector edge.
	ablated := g.Clone()
	ablated.SetName("G(26,5) minus bisectors")
	b := lay.Bisector
	for i := 0; i < lay.M; i++ {
		j := (i + b) % lay.M
		if ablated.HasEdge(lay.C[i], lay.C[j]) {
			ablated.RemoveEdge(lay.C[i], lay.C[j])
		}
	}
	necOK := verify.CheckNecessaryConditions(ablated, n, k) == nil
	// Lemma 3.1's proof, executed: a ring node now has only k+1 neighbors;
	// faulting k of them leaves it with one healthy neighbor and no
	// terminal, so it can be neither interior nor endpoint of a pipeline.
	victim := -1
	for _, pnode := range ablated.Processors() {
		if ablated.Degree(pnode) == k+1 {
			victim = pnode
			break
		}
	}
	tolerated := true
	if victim >= 0 {
		fs := bitset.New(ablated.NumNodes())
		for i, u := range ablated.Neighbors(victim) {
			if i >= k {
				break
			}
			fs.Add(int(u))
		}
		_, tol, err := verify.Tolerates(ablated, fs, embed.Options{})
		if err != nil {
			t.Note("targeted check inconclusive: %v", err)
		}
		tolerated = tol
		t.Note("targeted fault set (k neighbors of ring node %d): tolerated=%v", victim, tol)
	}
	t.AddRow("without bisectors", fmt.Sprint(ablated.MinProcessorDegree()),
		boolCell(necOK), boolCell(tolerated))
	t.OK = repFull.OK() && !necOK && victim >= 0 && !tolerated
	return t
}

// runE2 profiles the physical locality of pipelines (the paper's VLSI
// context): after reconfiguration the embedding should still mostly follow
// unit-distance ring edges, with zigzag ±2 strides appearing only around
// dead-end fault pockets, and no hop ever exceeding the circulant's
// offsets.
func runE2(cfg Config) *Table {
	t := &Table{
		Claim: "(extension) reconfigured pipelines stay physically local: hops bounded by the circulant offsets, dominated by ±1/±2",
		Cols:  []string{"n", "k", "fault sets", "ring hops", "±1", "±2", "max offset", "short-hop %"},
	}
	t.OK = true
	trials := 200
	if cfg.Quick {
		trials = 50
	}
	for _, c := range []struct{ n, k int }{{40, 4}, {80, 6}, {200, 8}} {
		g, lay, err := construct.Asymptotic(c.n, c.k)
		if err != nil {
			t.OK = false
			continue
		}
		solver := embed.NewSolver(g, embed.Options{Layout: lay})
		rng := rand.New(rand.NewSource(cfg.Seed))
		var ring, one, two, maxOff int
		for i := 0; i < trials; i++ {
			fs := bitset.New(g.NumNodes())
			for fs.Count() < rng.Intn(c.k+1) {
				fs.Add(rng.Intn(g.NumNodes()))
			}
			r := solver.Find(fs)
			if !r.Found {
				t.OK = false
				continue
			}
			p, err := locality.Analyze(g, lay, r.Pipeline)
			if err != nil {
				t.Note("analyze: %v", err)
				t.OK = false
				continue
			}
			ring += p.RingHops
			one += p.OffsetHistogram[1]
			two += p.OffsetHistogram[2]
			if p.MaxOffset() > maxOff {
				maxOff = p.MaxOffset()
			}
		}
		short := 0.0
		if ring > 0 {
			short = float64(one+two) / float64(ring) * 100
		}
		t.AddRow(fmt.Sprint(c.n), fmt.Sprint(c.k), fmt.Sprint(trials),
			fmt.Sprint(ring), fmt.Sprint(one), fmt.Sprint(two),
			fmt.Sprint(maxOff), fmt.Sprintf("%.1f", short))
		// Bisector hops would be legal for odd k too, but the planner never
		// needs them; the offsets 1..p+1 bound everything we emit.
		t.OK = t.OK && maxOff <= lay.P+1 && short > 80
	}
	return t
}
