// Benchmarks regenerating every evaluation artifact of the paper (one per
// figure/theorem, named after DESIGN.md's experiment ids), plus
// micro-benchmarks of the core operations: construction, reconfiguration,
// verification throughput, and the streaming runtime.
//
//	go test -bench=. -benchmem
package gdpn_test

import (
	"io"
	"math/rand"
	"testing"

	"gdpn/internal/bitset"
	"gdpn/internal/combin"
	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/experiments"
	"gdpn/internal/faults"
	"gdpn/internal/graph"
	"gdpn/internal/pipeline"
	"gdpn/internal/reconfig"
	"gdpn/internal/search"
	"gdpn/internal/stages"
	"gdpn/internal/verify"
)

// benchExperiment reruns a registered experiment regenerator end to end.
// Quick mode keeps bench iterations affordable; cmd/gdpbench (full mode)
// produces the EXPERIMENTS.md tables.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Config{Quick: true, Seed: 1}
	for i := 0; i < b.N; i++ {
		ok, err := experiments.RunOne(id, cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.Fatalf("experiment %s mismatched its paper claim", id)
		}
	}
}

func BenchmarkF1_PipelineNotation(b *testing.B)         { benchExperiment(b, "F1") }
func BenchmarkF2_G3kEven(b *testing.B)                  { benchExperiment(b, "F2") }
func BenchmarkF3_G3kOdd(b *testing.B)                   { benchExperiment(b, "F3") }
func BenchmarkF4_KEquals1Small(b *testing.B)            { benchExperiment(b, "F4") }
func BenchmarkF5toF9_Lemma314Nonexistence(b *testing.B) { benchExperiment(b, "F5-F9") }
func BenchmarkF10_SpecialG62(b *testing.B)              { benchExperiment(b, "F10") }
func BenchmarkF11_SpecialG82(b *testing.B)              { benchExperiment(b, "F11") }
func BenchmarkF12_SpecialG73(b *testing.B)              { benchExperiment(b, "F12") }
func BenchmarkF13_SpecialG43(b *testing.B)              { benchExperiment(b, "F13") }
func BenchmarkF14_G22_4(b *testing.B)                   { benchExperiment(b, "F14") }
func BenchmarkF15_G26_5(b *testing.B)                   { benchExperiment(b, "F15") }
func BenchmarkT313_K1Family(b *testing.B)               { benchExperiment(b, "T313") }
func BenchmarkT315_K2Family(b *testing.B)               { benchExperiment(b, "T315") }
func BenchmarkT316_K3Family(b *testing.B)               { benchExperiment(b, "T316") }
func BenchmarkT317_AsymptoticVerify(b *testing.B)       { benchExperiment(b, "T317") }
func BenchmarkT317b_Frontier(b *testing.B)              { benchExperiment(b, "T317b") }
func BenchmarkL31_LowerBounds(b *testing.B)             { benchExperiment(b, "L31") }
func BenchmarkL35_ParityBound(b *testing.B)             { benchExperiment(b, "L35") }
func BenchmarkL36_ExtendPreserves(b *testing.B)         { benchExperiment(b, "L36") }
func BenchmarkL37_G1kUnique(b *testing.B)               { benchExperiment(b, "L37") }
func BenchmarkL39_G2kUnique(b *testing.B)               { benchExperiment(b, "L39") }
func BenchmarkM_MergedModel(b *testing.B)               { benchExperiment(b, "M") }
func BenchmarkS1_StreamingRemap(b *testing.B)           { benchExperiment(b, "S1") }
func BenchmarkS2_UtilizationVsBaseline(b *testing.B)    { benchExperiment(b, "S2") }
func BenchmarkS3_BatchedTransport(b *testing.B)         { benchExperiment(b, "S3") }
func BenchmarkP1_SolverAblation(b *testing.B)           { benchExperiment(b, "P1") }
func BenchmarkP2_BisectorAblation(b *testing.B)         { benchExperiment(b, "P2") }
func BenchmarkP3_TierHitRates(b *testing.B)             { benchExperiment(b, "P3") }
func BenchmarkE1_LinkFaults(b *testing.B)               { benchExperiment(b, "E1") }
func BenchmarkP4_IncrementalRepair(b *testing.B)        { benchExperiment(b, "P4") }
func BenchmarkE2_Locality(b *testing.B)                 { benchExperiment(b, "E2") }
func BenchmarkST_StoreWarmReplay(b *testing.B)          { benchExperiment(b, "ST") }

// --- micro-benchmarks -----------------------------------------------------

func BenchmarkConstructDesignK2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := construct.Design(50, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConstructAsymptoticN1000(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := construct.Asymptotic(1000, 6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConstructAsymptoticN100000(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := construct.Asymptotic(100_000, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// benchReconfigure measures solving one random ≤k fault set per iteration.
func benchReconfigure(b *testing.B, n, k int, method embed.Method) {
	sol, err := construct.Design(n, k)
	if err != nil {
		b.Fatal(err)
	}
	solver := embed.NewSolver(sol.Graph, embed.Options{Method: method, Layout: sol.Layout})
	rng := rand.New(rand.NewSource(1))
	fs := bitset.New(sol.Graph.NumNodes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.Clear()
		for fs.Count() < k {
			fs.Add(rng.Intn(sol.Graph.NumNodes()))
		}
		r := solver.Find(fs)
		if r.Unknown {
			b.Fatal("unknown result")
		}
	}
}

func BenchmarkReconfigureN22K4Auto(b *testing.B)   { benchReconfigure(b, 22, 4, embed.Auto) }
func BenchmarkReconfigureN100K4Auto(b *testing.B)  { benchReconfigure(b, 100, 4, embed.Auto) }
func BenchmarkReconfigureN1000K6Auto(b *testing.B) { benchReconfigure(b, 1000, 6, embed.Auto) }
func BenchmarkReconfigureN10000K6Auto(b *testing.B) {
	benchReconfigure(b, 10_000, 6, embed.Auto)
}
func BenchmarkReconfigureN22K4DP(b *testing.B) { benchReconfigure(b, 22, 4, embed.DP) }
func BenchmarkReconfigureN22K4Backtracking(b *testing.B) {
	benchReconfigure(b, 22, 4, embed.Backtracking)
}

func BenchmarkExhaustiveVerifyG10_2(b *testing.B) {
	sol, err := construct.Design(10, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := verify.Exhaustive(sol.Graph, 2, verify.Options{})
		if !rep.OK() {
			b.Fatal(rep.String())
		}
	}
}

func BenchmarkSearchLemma314(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := search.Exhaustive(search.Spec{N: 5, K: 2, MaxDegree: 4}, 0)
		if !res.None() {
			b.Fatal("Lemma 3.14 violated")
		}
	}
}

func BenchmarkSearchFindG62(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := search.Find(search.Spec{N: 6, K: 2, MaxDegree: 4}, int64(i+1),
			search.FindOptions{Restarts: 3000, Moves: 800}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamingThroughput(b *testing.B) {
	sol, err := construct.Design(24, 4)
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := reconfig.New(sol)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := pipeline.NewPlaced(sol.Graph, mgr.Interior(), []stages.Stage{
		stages.NewSubsample(2),
		&stages.Rescale{Gain: 1.5, Offset: 0.1},
		stages.NewFIR([]float64{0.25, 0.5, 0.25}),
		stages.NewQuantize(-16, 16, 256),
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const frameSize = 4096
	frames := make([]pipeline.Frame, 16)
	for i := range frames {
		data := make([]float64, frameSize)
		for j := range data {
			data[j] = rng.NormFloat64()
		}
		frames[i] = pipeline.Frame{Seq: i, Data: data}
	}
	b.SetBytes(int64(len(frames) * frameSize * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Process(frames)
	}
}

func BenchmarkStreamingRemapLatency(b *testing.B) {
	sol, err := construct.Design(1000, 4)
	if err != nil {
		b.Fatal(err)
	}
	solver := embed.NewSolver(sol.Graph, embed.Options{Layout: sol.Layout})
	rng := rand.New(rand.NewSource(1))
	fs := bitset.New(sol.Graph.NumNodes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.Clear()
		for fs.Count() < 4 {
			fs.Add(rng.Intn(sol.Graph.NumNodes()))
		}
		r := solver.Find(fs)
		if !r.Found {
			b.Fatal("remap failed")
		}
	}
}

// benchSymmetryAB times the orbit-reduced exhaustive run and checks it
// against a full-enumeration reference: same verdict, all fault sets
// covered, and at least minReduction× fewer solver calls.
func benchSymmetryAB(b *testing.B, g *graph.Graph, k int, opts verify.Options, minReduction float64) {
	b.Helper()
	off := opts
	off.ExploitSymmetry = false
	on := opts
	on.ExploitSymmetry = true
	ref := verify.Exhaustive(g, k, off)
	b.ResetTimer()
	var rep *verify.Report
	for i := 0; i < b.N; i++ {
		rep = verify.Exhaustive(g, k, on)
	}
	b.StopTimer()
	if rep.OK() != ref.OK() || (rep.FailureCount > 0) != (ref.FailureCount > 0) {
		b.Fatalf("verdict mismatch: symmetry OK=%v, full OK=%v", rep.OK(), ref.OK())
	}
	if rep.Represented != ref.Checked {
		b.Fatalf("symmetry run covers %d fault sets, full enumeration has %d", rep.Represented, ref.Checked)
	}
	reduction := float64(ref.Checked) / float64(rep.Checked)
	if reduction < minReduction {
		b.Fatalf("orbit reduction %.2fx below required %.1fx (%d vs %d solver calls)",
			reduction, minReduction, rep.Checked, ref.Checked)
	}
	b.ReportMetric(float64(rep.Checked), "solver-calls")
	b.ReportMetric(reduction, "reduction-x")
}

// BenchmarkSymmetryReduction A/Bs ExploitSymmetry against full
// enumeration. G3,5 has a 32-element automorphism group, so orbit
// pruning must deliver at least a 5× cut in solver calls; the asymptotic
// family only has the I/O reflection (order 2), so ~2× is the honest
// ceiling there.
func BenchmarkSymmetryReduction(b *testing.B) {
	b.Run("G3k5", func(b *testing.B) {
		benchSymmetryAB(b, construct.G3(5), 5, verify.Options{}, 5)
	})
	b.Run("AsymptoticN16K4", func(b *testing.B) {
		g, lay, err := construct.Asymptotic(16, 4)
		if err != nil {
			b.Fatal(err)
		}
		benchSymmetryAB(b, g, 2, verify.Options{Solver: embed.Options{Layout: lay}}, 1.5)
	})
}

// BenchmarkBitsetFaultSetUpdate compares the two ways a verification
// worker can maintain its fault bitset while walking sorted k-subsets of
// a large universe: clearing and re-adding all k members every step, or
// applying only the sorted-set delta (what verify.Exhaustive does).
// Clear touches every word of the universe; the delta touches O(k).
func BenchmarkBitsetFaultSetUpdate(b *testing.B) {
	const n, k = 100_000, 6
	reset := func(fs bitset.Set, sub []int) {
		fs.Clear()
		for i := range sub {
			sub[i] = i
			fs.Add(i)
		}
	}
	b.Run("ClearRebuild", func(b *testing.B) {
		fs := bitset.New(n)
		sub := make([]int, k)
		reset(fs, sub)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !combin.NextSubset(n, sub) {
				reset(fs, sub)
			}
			fs.Clear()
			for _, v := range sub {
				fs.Add(v)
			}
		}
	})
	b.Run("Delta", func(b *testing.B) {
		fs := bitset.New(n)
		sub := make([]int, k)
		reset(fs, sub)
		prev := make([]int, k)
		copy(prev, sub)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !combin.NextSubset(n, sub) {
				reset(fs, sub)
			}
			// Two-pointer sorted diff, applied in place.
			pi, ci := 0, 0
			for pi < len(prev) || ci < len(sub) {
				switch {
				case ci == len(sub) || (pi < len(prev) && prev[pi] < sub[ci]):
					fs.Remove(prev[pi])
					pi++
				case pi == len(prev) || sub[ci] < prev[pi]:
					fs.Add(sub[ci])
					ci++
				default:
					pi++
					ci++
				}
			}
			copy(prev, sub)
		}
	})
}

func BenchmarkFaultModelAdversarial(b *testing.B) {
	sol, err := construct.Design(22, 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	model := faults.Adversarial{Pool: 6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Sample(rng, sol.Graph, 4)
	}
}
