// Videopipeline: the paper's §1 motivating workload — an asymmetric
// video-compression chain (subsample → rescale → FIR smoothing → quantize
// → LZ78 dictionary compression) streaming across a gracefully degradable
// network while processors die mid-stream. The compressed output of every
// epoch is decoded and byte-compared against a golden sequential run, so
// the demo proves the stream stays CORRECT across remaps, not just alive.
//
//	go run ./examples/videopipeline
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"gdpn/internal/construct"
	"gdpn/internal/faults"
	"gdpn/internal/obs"
	"gdpn/internal/pipeline"
	"gdpn/internal/reconfig"
	"gdpn/internal/stages"
)

func stageChain() []stages.Stage {
	return []stages.Stage{
		stages.NewSubsample(2),                    // decimation
		&stages.Rescale{Gain: 1.4, Offset: 0.2},   // contrast/brightness
		stages.NewFIR([]float64{0.25, 0.5, 0.25}), // smoothing filter
		stages.NewQuantize(-16, 16, 256),          // to 8-bit symbols
		stages.NewLZ78(8192),                      // textual substitution
	}
}

func main() {
	const n, k = 20, 3
	const epochs, framesPerEpoch, frameSize = 4, 48, 2048

	// Instrument the run so each fault prints measured degradation, not
	// just "still running".
	obs.Default().SetEnabled(true)

	sol, err := construct.Design(n, k)
	if err != nil {
		log.Fatal(err)
	}
	// The manager plans each fault's pipeline; the live engine runs its
	// interior.
	mgr, err := reconfig.New(sol)
	if err != nil {
		log.Fatal(err)
	}
	live, err := pipeline.NewPlaced(sol.Graph, mgr.Interior(), stageChain())
	if err != nil {
		log.Fatal(err)
	}
	// Golden reference: same stages, no faults, sequential execution.
	golden, err := pipeline.NewPlaced(sol.Graph, mgr.Interior(), stageChain())
	if err != nil {
		log.Fatal(err)
	}

	inj := faults.NewInjector(faults.ProcessorsOnly{}, sol.Graph, k, 42)
	rng := rand.New(rand.NewSource(42))

	fmt.Println(sol.Graph.Summary())
	totalIn, totalOut := 0, 0
	for epoch := 0; epoch < epochs; epoch++ {
		batch := make([]pipeline.Frame, framesPerEpoch)
		for i := range batch {
			data := make([]float64, frameSize)
			for j := range data {
				data[j] = rng.NormFloat64() * 5
			}
			batch[i] = pipeline.Frame{Seq: epoch*framesPerEpoch + i, Data: data}
		}
		ref := golden.ProcessSequential(cloneFrames(batch))

		start := time.Now()
		out := live.Process(batch)
		elapsed := time.Since(start)

		if !framesEqual(out, ref) {
			log.Fatalf("epoch %d: concurrent faulty-pipeline output diverged from golden run", epoch)
		}
		var inSamples, outSamples int
		for i := range batch {
			inSamples += frameSize
			outSamples += len(out[i].Data)
		}
		totalIn += inSamples
		totalOut += outSamples
		fmt.Printf("epoch %d: faults=%d procs=%d  %d frames in %v  compression %d→%d samples (%.2fx)\n",
			epoch, mgr.Faults().Count(), live.ProcessorsInUse(), len(out),
			elapsed.Round(time.Millisecond), inSamples, outSamples,
			float64(inSamples)/float64(outSamples))

		if node, ok := inj.Next(); ok {
			start := time.Now()
			if err := mgr.Apply(reconfig.OpFault, node, live.ApplyPlacement); err != nil {
				log.Fatalf("inject: %v", err)
			}
			fmt.Printf("  !! processor %d failed — remapped onto %d processors in %v\n",
				node, live.ProcessorsInUse(), time.Since(start).Round(time.Microsecond))
			printMetrics()
		}
	}
	fmt.Printf("stream stayed byte-identical to the golden run across %d faults; overall compression %.2fx\n",
		mgr.Faults().Count(), float64(totalIn)/float64(totalOut))
}

// printMetrics shows the numeric shape of the degradation after a fault:
// frame-latency quantiles, epoch throughput, and how the repairs were
// accomplished (per-tactic counts from the obs registry).
func printMetrics() {
	s := obs.Default().Snapshot()
	if h, ok := s.Histograms["pipeline_frame_latency_ns"]; ok && h.Count > 0 {
		fmt.Printf("     frame latency p50=%v p90=%v p99=%v max=%v\n",
			time.Duration(h.P50).Round(time.Microsecond),
			time.Duration(h.P90).Round(time.Microsecond),
			time.Duration(h.P99).Round(time.Microsecond),
			time.Duration(h.Max).Round(time.Microsecond))
	}
	if bps := s.Gauges["pipeline_epoch_throughput_bps"]; bps > 0 {
		fmt.Printf("     epoch throughput %.1f MB/s over %d processors\n",
			float64(bps)/1e6, s.Gauges["pipeline_procs_in_use"])
	}
	for _, tactic := range []string{"splice", "rewire", "endpoint-swap", "insert", "full-remap", "no-change"} {
		key := fmt.Sprintf("reconfig_repairs_total{tactic=%q}", tactic)
		if c := s.Counters[key]; c > 0 {
			fmt.Printf("     repairs via %s: %d\n", tactic, c)
		}
	}
}

func cloneFrames(in []pipeline.Frame) []pipeline.Frame {
	out := make([]pipeline.Frame, len(in))
	for i, f := range in {
		out[i] = pipeline.Frame{Seq: f.Seq, Data: append([]float64(nil), f.Data...)}
	}
	return out
}

func framesEqual(a, b []pipeline.Frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || len(a[i].Data) != len(b[i].Data) {
			return false
		}
		for j := range a[i].Data {
			if a[i].Data[j] != b[i].Data[j] {
				return false
			}
		}
	}
	return true
}
