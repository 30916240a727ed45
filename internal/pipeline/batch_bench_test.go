package pipeline_test

import (
	"fmt"
	"testing"

	"gdpn/internal/construct"
	"gdpn/internal/pipeline"
)

// benchStreamSteadyState pumps b.N frames through a live G(12,3) stream
// with a recycling consumer; allocs/op is allocations per frame.
func benchStreamSteadyState(b *testing.B, opts ...pipeline.Option) {
	sol, err := construct.Design(12, 3)
	if err != nil {
		b.Fatalf("Design(12,3): %v", err)
	}
	eng, _ := managed(b, sol, lightStages(), opts...)
	st, err := eng.StartStream(pipeline.StreamConfig{MaxPending: 64})
	if err != nil {
		b.Fatalf("StartStream: %v", err)
	}
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for f := range st.Out() {
			eng.Recycle(f)
		}
	}()
	// Small frames keep the benchmark transport-bound: what it measures is
	// channel-synchronization amortization, not stage compute (which at
	// large frame sizes dominates and is identical in both modes).
	const size = 64
	template := make([]float64, size)
	for i := range template {
		template[i] = float64(i%32) * 0.5
	}
	submit := func(seq int) {
		d := eng.GetBuffer(size)
		copy(d, template)
		if err := st.Submit(pipeline.Frame{Seq: seq, Data: d}); err != nil {
			b.Fatalf("Submit: %v", err)
		}
	}
	// Warm the free lists so the measured window is steady state.
	for i := 0; i < 512; i++ {
		submit(i)
	}
	b.ReportAllocs()
	b.SetBytes(size * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit(512 + i)
	}
	b.StopTimer()
	st.Close()
	<-consumed
}

// BenchmarkStreamSteadyState compares the per-frame transport (batch
// size 1) against the batched default on the same G(12,3) stream. The
// committed contract (gated via the S3 experiment in BENCH_baseline.json)
// is 0 allocs/frame and >= 2x throughput for Batched vs PerFrame.
func BenchmarkStreamSteadyState(b *testing.B) {
	b.Run("PerFrame", func(b *testing.B) {
		benchStreamSteadyState(b, pipeline.WithBatchSize(1))
	})
	b.Run("Batched", func(b *testing.B) {
		benchStreamSteadyState(b)
	})
}

// BenchmarkStreamChannelDepth sweeps the per-position channel depth at
// the default batch size: depth 1 serializes handoffs, the default 4
// gives workers slack, deeper buffers mostly add memory.
func BenchmarkStreamChannelDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			benchStreamSteadyState(b, pipeline.WithChannelDepth(depth))
		})
	}
}
