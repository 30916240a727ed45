package pipeline_test

import (
	"fmt"
	"sync"
	"testing"

	"gdpn/internal/obs"
	"gdpn/internal/obs/span"
	"gdpn/internal/pipeline"
)

func TestStagesOnOutOfRangeReturnsNil(t *testing.T) {
	e, _ := managed(t, design(t, 6, 2), chain())
	// Regression: these used to panic with an index-out-of-range.
	for _, pos := range []int{-1, e.ProcessorsInUse(), e.ProcessorsInUse() + 5, 1 << 20} {
		if got := e.StagesOn(pos); got != nil {
			t.Fatalf("StagesOn(%d) = %v, want nil", pos, got)
		}
	}
	// In-range positions still work (some are pass-through relays with no
	// stages, so look for any position that owns stages).
	owned := 0
	for pos := 0; pos < e.ProcessorsInUse(); pos++ {
		owned += len(e.StagesOn(pos))
	}
	if owned != len(chain()) {
		t.Fatalf("in-range StagesOn covers %d stages, want %d", owned, len(chain()))
	}
}

// TestMetricsConcurrentWithProcess is the regression for the
// FramesProcessed data race: reading Metrics() while Process runs must be
// safe (the race detector enforces this) and must eventually converge on
// the exact frame count.
func TestMetricsConcurrentWithProcess(t *testing.T) {
	e, _ := managed(t, design(t, 8, 2), chain())
	const rounds, perRound = 8, 16
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if m := e.Metrics(); m.FramesProcessed < 0 {
					panic("negative frame count")
				}
			}
		}
	}()
	for r := 0; r < rounds; r++ {
		e.Process(mkFrames(perRound, 16, int64(r)))
	}
	close(stop)
	wg.Wait()
	if got := e.Metrics().FramesProcessed; got != rounds*perRound {
		t.Fatalf("FramesProcessed = %d, want %d", got, rounds*perRound)
	}
}

// TestProcessRecordsObsMetrics checks the engine's instrumentation end to
// end: frame counter, latency histogram, per-stage and epoch series.
func TestProcessRecordsObsMetrics(t *testing.T) {
	reg := obs.Default()
	reg.Reset()
	reg.SetEnabled(true)
	defer func() {
		reg.SetEnabled(false)
		reg.Reset()
	}()

	e, mgr := managed(t, design(t, 6, 2), chain())
	before := reg.Snapshot().Counters["pipeline_frames_total"]
	out := e.Process(mkFrames(12, 32, 1))
	if len(out) != 12 {
		t.Fatalf("processed %d frames", len(out))
	}
	s := reg.Snapshot()
	if got := s.Counters["pipeline_frames_total"] - before; got != 12 {
		t.Fatalf("pipeline_frames_total advanced by %d, want 12", got)
	}
	lat := s.Histograms["pipeline_frame_latency_ns"]
	if lat.Count != 12 || lat.P50 <= 0 || lat.Max < lat.P50 {
		t.Fatalf("frame latency histogram %+v", lat)
	}
	if st := s.Histograms["pipeline_stage_ns"]; st.Count == 0 {
		t.Fatalf("stage histogram empty: %+v", st)
	}
	if ep := s.Histograms["pipeline_epoch_ns"]; ep.Count != 1 {
		t.Fatalf("epoch histogram %+v, want one epoch", ep)
	}
	if s.Gauges["pipeline_procs_in_use"] != int64(e.ProcessorsInUse()) {
		t.Fatalf("procs gauge %d, want %d", s.Gauges["pipeline_procs_in_use"], e.ProcessorsInUse())
	}
	if s.Gauges["pipeline_epoch_throughput_bps"] <= 0 {
		t.Fatal("throughput gauge not set")
	}

	// A fault must move the repair counters and leave one remap span tree
	// whose plan phase names the tactic.
	tr := span.Default()
	tr.Reset()
	tr.SetEnabled(true)
	defer func() {
		tr.SetEnabled(false)
		tr.Reset()
	}()
	victim := mgr.Pipeline()[2]
	if err := fault(mgr, e, victim); err != nil {
		t.Fatal(err)
	}
	s = reg.Snapshot()
	var repairs int64
	for k, v := range s.Counters {
		if len(k) > len("reconfig_repairs_total") && k[:len("reconfig_repairs_total")] == "reconfig_repairs_total" {
			repairs += v
		}
	}
	if repairs != 1 {
		t.Fatalf("repair counters sum %d, want 1 (counters %v)", repairs, s.Counters)
	}
	var remaps []span.Span
	tactics := map[uint64]string{} // remap span id -> its plan child's tactic
	for _, sp := range tr.Snapshot() {
		switch sp.Name {
		case "remap":
			remaps = append(remaps, sp)
		case "plan":
			tactics[sp.Parent], _ = sp.Attr("tactic")
		}
	}
	if len(remaps) != 1 || remaps[0].Status != span.OK {
		t.Fatalf("remap spans %+v, want one OK remap root", remaps)
	}
	if node, _ := remaps[0].Attr("node"); node != fmt.Sprint(victim) {
		t.Fatalf("remap span node=%s, want %d", node, victim)
	}
	if tactics[remaps[0].ID] == "" {
		t.Fatalf("remap span has no plan child with a tactic: %v", tactics)
	}
	if inj := s.Histograms[`pipeline_remap_ns{op="replan"}`]; inj.Count != 1 {
		t.Fatalf("placement remap histogram %+v", inj)
	}
}

// TestDisabledObsRecordsNothing pins the disabled-by-default contract:
// running the pipeline without enabling the registry must leave every
// pipeline_* instrument untouched.
func TestDisabledObsRecordsNothing(t *testing.T) {
	reg := obs.Default()
	reg.Reset()
	e, _ := managed(t, design(t, 6, 2), chain())
	e.Process(mkFrames(6, 16, 2))
	s := reg.Snapshot()
	if s.Counters["pipeline_frames_total"] != 0 {
		t.Fatalf("frames counter %d while disabled", s.Counters["pipeline_frames_total"])
	}
	if s.Histograms["pipeline_frame_latency_ns"].Count != 0 {
		t.Fatal("latency histogram advanced while disabled")
	}
	if m := e.Metrics(); m.FramesProcessed != 6 {
		t.Fatalf("engine's own metrics must still work: %+v", m)
	}
}

// benchProcess measures Process throughput with the registry in a given
// state; comparing the two benchmarks bounds the disabled-registry
// overhead (acceptance: within noise, <5%).
func benchProcess(b *testing.B, enabled bool) {
	reg := obs.Default()
	reg.Reset()
	reg.SetEnabled(enabled)
	defer func() {
		reg.SetEnabled(false)
		reg.Reset()
	}()
	e, _ := managed(b, design(b, 8, 2), chain())
	frames := mkFrames(64, 1024, 1)
	b.SetBytes(64 * 1024 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Process(frames)
	}
}

func BenchmarkProcessObsDisabled(b *testing.B) { benchProcess(b, false) }
func BenchmarkProcessObsEnabled(b *testing.B)  { benchProcess(b, true) }

// BenchmarkProcessBaselineUninstrumented replicates the engine's
// goroutine-per-processor channel chain with NO instrumentation at all —
// the pre-obs hot loop. Comparing it against BenchmarkProcessObsDisabled
// bounds the cost of the disabled registry (acceptance: <5%, i.e. within
// noise).
func BenchmarkProcessBaselineUninstrumented(b *testing.B) {
	e, _ := managed(b, design(b, 8, 2), chain())
	stgs := chain()
	// Same contiguous assignment the engine computes.
	L := e.ProcessorsInUse()
	S := len(stgs)
	assign := make([][]int, L)
	for i := 0; i < L; i++ {
		for s := i * S / L; s < (i+1)*S/L; s++ {
			assign[i] = append(assign[i], s)
		}
	}
	frames := mkFrames(64, 1024, 1)
	b.SetBytes(64 * 1024 * 8)
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		chans := make([]chan pipeline.Frame, L+1)
		for i := range chans {
			chans[i] = make(chan pipeline.Frame, 4)
		}
		for i := 0; i < L; i++ {
			go func(pos int) {
				for f := range chans[pos] {
					data := f.Data
					for _, si := range assign[pos] {
						data = stgs[si].Process(data)
					}
					chans[pos+1] <- pipeline.Frame{Seq: f.Seq, Data: append([]float64(nil), data...)}
				}
				close(chans[pos+1])
			}(i)
		}
		go func() {
			for _, f := range frames {
				chans[0] <- f
			}
			close(chans[0])
		}()
		for range chans[L] {
		}
	}
}
