// Spectral: a frequency-domain denoising pipeline (FFT → spectral gate →
// IFFT → quantize) running on a gracefully degradable network while
// communication LINKS — not just processors — fail. Link faults are
// reduced to node faults per Hayes' model (§2), so the k-GD guarantee
// covers them; the demo measures signal-to-noise improvement before and
// after each fault.
//
//	go run ./examples/spectral
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"gdpn/internal/construct"
	"gdpn/internal/faults"
	"gdpn/internal/pipeline"
	"gdpn/internal/reconfig"
	"gdpn/internal/stages"
)

func main() {
	const n, k = 16, 4
	const frameSize = 256

	sol, err := construct.Design(n, k)
	if err != nil {
		log.Fatal(err)
	}
	mgr, err := reconfig.New(sol)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := pipeline.NewPlaced(sol.Graph, mgr.Interior(), []stages.Stage{
		stages.NewFFT(),
		&stages.SpectralGate{Threshold: 40},
		stages.NewIFFT(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sol.Graph.Summary())

	rng := rand.New(rand.NewSource(99))
	linkRng := rand.New(rand.NewSource(7))
	brokenLinks := 0
	for epoch := 0; epoch <= k; epoch++ {
		// A two-tone signal buried in noise.
		clean := make([]float64, frameSize)
		noisy := make([]float64, frameSize)
		for i := range clean {
			clean[i] = 8*math.Sin(2*math.Pi*6*float64(i)/frameSize) +
				4*math.Cos(2*math.Pi*17*float64(i)/frameSize)
			noisy[i] = clean[i] + rng.NormFloat64()
		}
		out := eng.Process([]pipeline.Frame{{Seq: epoch, Data: noisy}})
		den := out[0].Data
		fmt.Printf("epoch %d: faults=%d procs=%d  SNR %5.1f dB → %5.1f dB\n",
			epoch, mgr.Faults().Count(), eng.ProcessorsInUse(),
			snr(clean, noisy), snr(clean, den[:frameSize]))

		if epoch == k {
			break
		}
		// Break a random healthy link; Hayes' reduction turns it into one
		// node fault. The manager plans a pipeline around it, and the
		// engine moves onto that pipeline.
		for {
			links := faults.RandomLinks(linkRng, sol.Graph, 1)
			nodeFaults, err := faults.LinksToNodes(sol.Graph, links)
			if err != nil {
				log.Fatal(err)
			}
			victim := nodeFaults.Slice()
			if len(victim) == 0 || mgr.Faults().Contains(victim[0]) {
				continue
			}
			if err := mgr.Apply(reconfig.OpFault, victim[0], eng.ApplyPlacement); err != nil {
				log.Fatalf("link (%d,%d) → node %d: %v", links[0].U, links[0].V, victim[0], err)
			}
			brokenLinks++
			fmt.Printf("  !! link (%d,%d) broke → endpoint %d retired (Hayes reduction), tactics so far: %+v\n",
				links[0].U, links[0].V, victim[0], mgr.Stats())
			break
		}
	}
	fmt.Printf("denoising survived %d broken links using all %d healthy processors\n",
		brokenLinks, eng.ProcessorsInUse())
}

// snr returns the signal-to-noise ratio of x against the reference, in dB.
func snr(ref, x []float64) float64 {
	var sig, noise float64
	for i := range ref {
		sig += ref[i] * ref[i]
		d := x[i] - ref[i]
		noise += d * d
	}
	if noise == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(sig/noise)
}
