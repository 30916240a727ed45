package main

import (
	_ "embed"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"gdpn/internal/autom"
	"gdpn/internal/bitset"
	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/graph"
	"gdpn/internal/obs"
	"gdpn/internal/obs/span"
	"gdpn/internal/store"
	"gdpn/internal/verify"
)

// sweepWorkers is the verification worker count of both sweep workloads:
// one per core of the two-core host the benchmark is sized for.
const sweepWorkers = 2

// The sweep workload: the exhaustive, symmetry-reduced proof of
// GD(G(26,5), 5) (Fig. 15). Set-up designs the graph, computes its
// automorphism group (the closed-form reflection as a seed, as gdpverify
// does) and warms up on the k=4 proof; each item is one complete proof,
// checked against the committed verdict. No stream code runs.
const (
	sweepN, sweepK = 26, 5
	sweepWarmupK   = 4
)

//go:embed golden/sweep.txt
var sweepGolden string

// The resweep workload: warm re-verification of G(22,4), k=4 (Fig. 14)
// through the verdict store. Set-up populates a fresh store (the write
// path); each item opens it, proves GD again from stored verdicts and
// manifests (the read-and-replay path) and closes it.
const resweepN, resweepK = 22, 4

//go:embed golden/resweep.txt
var resweepGolden string

// sweepRig is a designed graph ready to prove.
type sweepRig struct {
	sol   *construct.Solution
	group *autom.Group
}

func newSweepRig(r *run) (*sweepRig, time.Duration) {
	sol, err := construct.Design(sweepN, sweepK)
	if err != nil {
		r.fail("sweep: set-up: %v", err)
		return nil, 0
	}
	var seeds []autom.Perm
	if refl, err := autom.Reflection(sol.Graph, sol.Layout); err == nil {
		seeds = append(seeds, refl)
	}
	sp := span.Start(nil, "bench.autom")
	s := time.Now()
	group := autom.Compute(sol.Graph, autom.Options{Seeds: seeds})
	d := time.Since(s)
	sp.End(span.OK)
	return &sweepRig{sol: sol, group: group}, d
}

func (s *sweepRig) prove(k int) *verify.Report {
	sp := span.Start(nil, "bench.exhaustive")
	rep := verify.Exhaustive(s.sol.Graph, k, verify.Options{
		Workers:         sweepWorkers,
		Solver:          embed.Options{Layout: s.sol.Layout},
		ExploitSymmetry: true,
		Group:           s.group,
	})
	sp.End(span.OK)
	return rep
}

func runSweep(cfg config, r *run) e2e {
	var col *collector
	var chunkSelf []float64
	if cfg.traced {
		// Only the chunk self times are kept: there are far too many solve
		// spans to hold.
		chunks := map[uint64]time.Duration{} // sweep-chunk id -> its solve spans' time
		col = collect(func(sp span.Span) {
			switch sp.Name {
			case "solve":
				chunks[sp.Parent] += sp.Duration()
			case "sweep-chunk":
				chunkSelf = append(chunkSelf, us(sp.Duration()-chunks[sp.ID]))
				delete(chunks, sp.ID)
			}
		})
		defer col.finish()
	}

	var setups []float64
	var rig *sweepRig
	var groupTime time.Duration
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		rg, gd := newSweepRig(r)
		if rg == nil {
			return nil
		}
		rep := rg.prove(sweepWarmupK)
		r.check(rep.OK(), "sweep: warm-up proof k=%d: %s", sweepWarmupK, rep.VerdictSummary())
		setups = append(setups, time.Since(t0).Seconds())
		rig, groupTime = rg, gd
	}

	reg := obs.Default()
	exp0 := reg.Counter("embed_expansions_total").Value()
	var proofs proofLog
	var last *verify.Report
	t0 := time.Now()
	for len(proofs.wall) == 0 || time.Since(t0) < cfg.window {
		s, c := time.Now(), cpuTime()
		rep := rig.prove(sweepK)
		proofs.add(time.Since(s), cpuTime()-c, rep.Represented)
		r.check(rep.VerdictSummary()+"\n" == sweepGolden, "sweep: verdict %q differs from the committed golden %q", rep.VerdictSummary(), sweepGolden)
		last = rep
	}
	heap := liveHeapMB()

	m := proofs.metrics(setups)
	m["live_heap_mb"] = metric{heap, "MB"}
	if cfg.traced {
		col.finish()
		tiers := map[string]int64{
			"planner": last.Tiers.Planner, "compressed": last.Tiers.Compressed, "probe": last.Tiers.Probe,
			"dp": last.Tiers.DP, "full": last.Tiers.Full, "trivial": last.Tiers.Trivial,
		}
		for _, t := range sweepTiers {
			r.layer("embed.tier_calls."+t, float64(tiers[t]), "count")
		}
		exp := reg.Counter("embed_expansions_total").Value() - exp0
		r.layer("embed.expansions_per_call", float64(exp)/float64(len(proofs.wall))/float64(max(last.Checked, 1)), "count")
		r.layer("verify.checked", float64(last.Checked), "count")
		r.layer("verify.represented", float64(last.Represented), "count")
		r.layer("verify.orbit_reduction", float64(last.Represented)/float64(max(last.Checked, 1)), "ratio")
		r.layer("verify.steals", float64(last.Steals), "count")
		r.layer("verify.chunk_self_us", median(chunkSelf), "us")
		r.layer("autom.group_ms", float64(groupTime)/1e6, "ms")
	}
	return m
}

// proofLog records the proofs of a proof workload's window. An item is a
// represented fault set; the latency is the wall time of one complete
// proof. Rates are taken per proof and their median reported, so one proof
// slowed by the host does not move them.
type proofLog struct {
	wall, rate, cpuPerItem []float64
}

func (p *proofLog) add(wall, cpu time.Duration, represented int64) {
	p.wall = append(p.wall, wall.Seconds())
	p.rate = append(p.rate, float64(represented)/wall.Seconds())
	p.cpuPerItem = append(p.cpuPerItem, float64(cpu.Microseconds())/float64(max(represented, 1)))
}

// metrics is the window's end-to-end metrics but the live heap.
func (p *proofLog) metrics(setups []float64) e2e {
	return e2e{
		"setup_s":         {median(setups), "s"},
		"items_per_s":     {median(p.rate), "1/s"},
		"latency_p50_ms":  {median(p.wall) * 1e3, "ms"},
		"latency_p99_ms":  {quantile(p.wall, 0.99) * 1e3, "ms"},
		"cpu_us_per_item": {median(p.cpuPerItem), "us"},
	}
}

// sweepTiers are the tiers that resolve the sweep's fault sets: the
// structured planner, and the probe backtracking for the rest. The other
// tiers resolve none of them.
var sweepTiers = []string{"planner", "probe"}

type resweepRig struct {
	sol  *construct.Solution
	path string
}

func (rs *resweepRig) proveWith(st *store.Store) *verify.Report {
	sp := span.Start(nil, "bench.exhaustive")
	rep := verify.Exhaustive(rs.sol.Graph, resweepK, verify.Options{
		Workers:         sweepWorkers,
		Solver:          embed.Options{Layout: rs.sol.Layout},
		ExploitSymmetry: true,
		Store:           st,
	})
	sp.End(span.OK)
	return rep
}

// populate designs the graph and writes a fresh store with a cold proof.
func populate(r *run, path string) *resweepRig {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		r.fail("resweep: %v", err)
		return nil
	}
	sol, err := construct.Design(resweepN, resweepK)
	if err != nil {
		r.fail("resweep: set-up: %v", err)
		return nil
	}
	rs := &resweepRig{sol: sol, path: path}
	st, err := store.Open(path)
	if err != nil {
		r.fail("resweep: open fresh store: %v", err)
		return nil
	}
	rep := rs.proveWith(st)
	r.check(rep.VerdictSummary()+"\n" == resweepGolden, "resweep: cold verdict %q differs from the committed golden", rep.VerdictSummary())
	if err := st.Close(); err != nil {
		r.fail("resweep: close populated store: %v", err)
		return nil
	}
	// The first warm proof loads the automorphism group from the store,
	// whose signature differs from the freshly computed one the cold proof
	// filed its manifests under, so it re-enumerates (every verdict still
	// a store hit) and files the manifests again. Only from the second warm
	// proof on is the store fully warm; set-up includes that first one.
	st, err = store.Open(path)
	if err != nil {
		r.fail("resweep: reopen populated store: %v", err)
		return nil
	}
	rep = rs.proveWith(st)
	r.check(rep.VerdictSummary()+"\n" == resweepGolden, "resweep: first warm verdict %q differs from the committed golden", rep.VerdictSummary())
	if err := st.Close(); err != nil {
		r.fail("resweep: close populated store: %v", err)
		return nil
	}
	return rs
}

// warm is one item: open the store, prove from it, close it. It checks
// the verdict, and that the proof wrote nothing: every verdict it needed
// came out of the store.
func (rs *resweepRig) warm(r *run) (d, open time.Duration, rep *verify.Report, bytes int) {
	s := time.Now()
	sp := span.Start(nil, "bench.store-open")
	st, err := store.Open(rs.path)
	open = time.Since(s)
	sp.End(span.OK)
	if err != nil {
		r.fail("resweep: open store: %v", err)
		return 0, 0, nil, 0
	}
	before := st.Stats().Entries
	rep = rs.proveWith(st)
	stats := st.Stats()
	if err := st.Close(); err != nil {
		r.fail("resweep: close store: %v", err)
	}
	d = time.Since(s)
	r.check(rep.VerdictSummary()+"\n" == resweepGolden, "resweep: warm verdict %q differs from the committed golden", rep.VerdictSummary())
	r.check(stats.Entries == before && stats.Dirty == 0, "resweep: warm proof wrote to the store: entries %d -> %d, dirty %d", before, stats.Entries, stats.Dirty)
	return d, open, rep, stats.Bytes
}

func runResweep(cfg config, r *run) e2e {
	path := filepath.Join(cfg.work, "resweep.gdps")
	defer os.Remove(path)
	var col *collector
	var replay time.Duration   // store-replay spans' time in the window
	var windowID atomic.Uint64 // spans with larger IDs started in the window
	windowID.Store(math.MaxUint64)
	if cfg.traced {
		col = collect(func(sp span.Span) {
			if sp.Name == "store-replay" && sp.ID > windowID.Load() {
				replay += sp.Duration()
			}
		})
		defer col.finish()
	}
	var setups []float64
	var rs *resweepRig
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		rs = populate(r, path)
		if rs == nil {
			return nil
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	reg := obs.Default()
	hit, miss, fail := reg.Counter("store_hit_total", obs.L("kind", "verdict")), reg.Counter("store_miss_total", obs.L("kind", "verdict")), reg.Counter("store_replay_fail_total")
	hit0, miss0, fail0 := hit.Value(), miss.Value(), fail.Value()
	var proofs proofLog
	var opens []float64
	var checked int64
	var bytes int
	window := span.Start(nil, "bench.window")
	windowID.Store(window.ID())
	t0 := time.Now()
	for len(proofs.wall) == 0 || time.Since(t0) < cfg.window {
		c := cpuTime()
		d, open, rep, b := rs.warm(r)
		if rep == nil {
			return nil
		}
		proofs.add(d, cpuTime()-c, rep.Represented)
		opens = append(opens, open.Seconds()*1e3)
		checked += rep.Checked
		bytes = b
	}
	window.End(span.OK)
	heap := liveHeapMB()

	// The store's hit and replay counters count only while the registry is
	// on; an untraced run checks them on one more proof after the window.
	if !cfg.traced {
		reg.SetEnabled(true)
		hit0, miss0, fail0 = hit.Value(), miss.Value(), fail.Value()
		_, _, rep, _ := rs.warm(r)
		reg.SetEnabled(false)
		if rep == nil {
			return nil
		}
		checked = rep.Checked
	}
	hits, misses, fails := hit.Value()-hit0, miss.Value()-miss0, fail.Value()-fail0
	r.check(fails == 0 && misses == 0 && hits == checked, "resweep: store hits %d, misses %d, replay failures %d for %d checked fault sets", hits, misses, fails, checked)

	m := proofs.metrics(setups)
	m["live_heap_mb"] = metric{heap, "MB"}
	if cfg.traced {
		col.finish()
		items := float64(len(proofs.wall))
		r.layer("store.populate_s", median(setups), "s")
		r.layer("store.open_ms", median(opens), "ms")
		r.layer("store.replay_ns_per_entry", float64(replay)/float64(max(checked, 1)), "ns")
		r.layer("store.hit", float64(hits)/items, "count")
		r.layer("store.miss", float64(misses)/items, "count")
		r.layer("store.replay_fail", float64(fails), "count")
		r.layer("store.bytes", float64(bytes), "bytes")
		r.layer("verify.checkpipeline_ns", checkPipelineNS(r, rs.sol.Graph, cfg.seed), "ns")
	}
	return m
}

// checkPipelineNS times verify.CheckPipeline on certificates of random
// fault sets of size ≤ k, the check every stored positive verdict replays.
func checkPipelineNS(r *run, g *graph.Graph, seed int64) float64 {
	const sets, rounds = 512, 64
	solver := embed.NewSolver(g, embed.Options{})
	type cert struct {
		faults bitset.Set
		path   graph.Path
	}
	var certs []cert
	x := uint64(seed)*2654435761 + 1
	for len(certs) < sets {
		f := bitset.New(g.NumNodes())
		for j := 0; j < resweepK; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			f.Add(int(x % uint64(g.NumNodes())))
		}
		if res := solver.Find(f); res.Found {
			certs = append(certs, cert{f, res.Pipeline})
		}
	}
	s := time.Now()
	for i := 0; i < rounds; i++ {
		for _, c := range certs {
			if err := verify.CheckPipeline(g, c.faults, c.path); err != nil {
				r.fail("verify: certificate for %v rejected: %v", c.faults.Slice(), err)
				return 0
			}
		}
	}
	return float64(time.Since(s)) / float64(sets*rounds)
}
