package pipeline_test

import (
	"math"
	"math/rand"
	"testing"

	"gdpn/internal/construct"
	"gdpn/internal/faults"
	"gdpn/internal/pipeline"
	"gdpn/internal/stages"
)

func design(t testing.TB, n, k int) *construct.Solution {
	t.Helper()
	sol, err := construct.Design(n, k)
	if err != nil {
		t.Fatalf("Design(%d,%d): %v", n, k, err)
	}
	return sol
}

func mkFrames(n, size int, seed int64) []pipeline.Frame {
	rng := rand.New(rand.NewSource(seed))
	frames := make([]pipeline.Frame, n)
	for i := range frames {
		data := make([]float64, size)
		for j := range data {
			data[j] = rng.NormFloat64()
		}
		frames[i] = pipeline.Frame{Seq: i, Data: data}
	}
	return frames
}

func chain() []stages.Stage {
	return []stages.Stage{
		stages.NewSubsample(2),
		&stages.Rescale{Gain: 2, Offset: 1},
		stages.NewFIR([]float64{0.5, 0.5}),
		stages.NewQuantize(-8, 8, 256),
	}
}

func TestEngineProcessesFramesInOrder(t *testing.T) {
	e, _ := managed(t, design(t, 6, 2), chain())
	frames := mkFrames(20, 32, 1)
	out := e.Process(frames)
	if len(out) != 20 {
		t.Fatalf("got %d frames", len(out))
	}
	for i, f := range out {
		if f.Seq != i {
			t.Fatalf("frame %d has seq %d: order broken", i, f.Seq)
		}
		if len(f.Data) != 16 { // subsample by 2
			t.Fatalf("frame %d has %d samples, want 16", i, len(f.Data))
		}
	}
	if e.Metrics().FramesProcessed != 20 {
		t.Fatalf("metrics %+v", e.Metrics())
	}
}

func TestConcurrentMatchesSequential(t *testing.T) {
	// The goroutine-per-processor chain must produce exactly what the
	// sequential reference produces (stage state included).
	mk := func() *pipeline.Engine {
		e, _ := managed(t, design(t, 8, 2), chain())
		return e
	}
	frames := mkFrames(30, 24, 2)
	a := mk().Process(frames)
	b := mk().ProcessSequential(frames)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Data) != len(b[i].Data) {
			t.Fatalf("frame %d size differs", i)
		}
		for j := range a[i].Data {
			if math.Abs(a[i].Data[j]-b[i].Data[j]) > 1e-12 {
				t.Fatalf("frame %d sample %d differs: %v vs %v", i, j, a[i].Data[j], b[i].Data[j])
			}
		}
	}
}

func TestInjectRemapsAndKeepsAllHealthy(t *testing.T) {
	sol := design(t, 10, 2)
	e, mgr := managed(t, sol, chain())
	if got := e.ProcessorsInUse(); got != 12 { // n+k healthy initially
		t.Fatalf("initial processors in use = %d, want 12", got)
	}
	// Fault a processor that is on the pipeline.
	victim := mgr.Pipeline()[3]
	if err := fault(mgr, e, victim); err != nil {
		t.Fatal(err)
	}
	if got := e.ProcessorsInUse(); got != 11 {
		t.Fatalf("after 1 fault: %d processors in use, want 11 (ALL healthy)", got)
	}
	out := e.Process(mkFrames(5, 16, 3))
	if len(out) != 5 {
		t.Fatalf("stream broken after remap: %d frames", len(out))
	}
	m := e.Metrics()
	if m.Remaps != 1 || mgr.Faults().Count() != 1 || m.RemapTime <= 0 {
		t.Fatalf("metrics %+v, faults %v", m, mgr.Faults().Slice())
	}
}

func TestInjectBeyondBudgetFailsCleanly(t *testing.T) {
	sol := design(t, 4, 1) // k=1: 5 processors, 2+2 terminals
	e, mgr := managed(t, sol, chain())
	// Kill both input terminals: the second kill must fail and roll back.
	ins := sol.Graph.InputTerminals()
	if err := fault(mgr, e, ins[0]); err != nil {
		t.Fatal(err)
	}
	before := e.Pipeline()
	if err := fault(mgr, e, ins[1]); err == nil {
		t.Fatal("no error with all input terminals dead")
	}
	// Engine still operates on the previous mapping: the rolled-back plan
	// never reached it.
	after := e.Pipeline()
	if len(after) != len(before) {
		t.Fatal("failed inject corrupted the mapping")
	}
	if got := e.Metrics().Remaps; got != 1 {
		t.Fatalf("engine installed %d placements, want 1 (the rollback must not place)", got)
	}
	if out := e.Process(mkFrames(3, 8, 4)); len(out) != 3 {
		t.Fatal("stream broken after failed inject")
	}
}

func TestFullFaultSequenceWithInjector(t *testing.T) {
	sol := design(t, 12, 3)
	e, mgr := managed(t, sol, chain())
	inj := faults.NewInjector(faults.ProcessorsOnly{}, sol.Graph, 3, 5)
	processed := 0
	for {
		out := e.Process(mkFrames(4, 16, int64(processed)))
		processed += len(out)
		node, ok := inj.Next()
		if !ok {
			break
		}
		if err := fault(mgr, e, node); err != nil {
			t.Fatalf("inject %d: %v", node, err)
		}
		// Graceful: processors in use == healthy processors.
		want := sol.N + sol.K - mgr.Faults().Count()
		if got := e.ProcessorsInUse(); got != want {
			t.Fatalf("processors in use %d, want %d", got, want)
		}
	}
	if processed != 16 {
		t.Fatalf("processed %d frames", processed)
	}
	if e.Metrics().Remaps != 3 {
		t.Fatalf("remaps = %d", e.Metrics().Remaps)
	}
}

func TestStageAssignmentCoversAllStagesOnce(t *testing.T) {
	sol := design(t, 5, 2)
	stgs := []stages.Stage{
		&stages.Rescale{Gain: 1}, &stages.Rescale{Gain: 1}, &stages.Rescale{Gain: 1},
		&stages.Rescale{Gain: 1}, &stages.Rescale{Gain: 1},
	}
	e, _ := managed(t, sol, stgs)
	seen := map[int]int{}
	for pos := 0; pos < e.ProcessorsInUse(); pos++ {
		prev := -1
		for _, si := range e.StagesOn(pos) {
			if si <= prev {
				t.Fatal("stage order not contiguous")
			}
			prev = si
			seen[si]++
		}
	}
	if len(seen) != len(stgs) {
		t.Fatalf("stages covered %d, want %d", len(seen), len(stgs))
	}
	for si, c := range seen {
		if c != 1 {
			t.Fatalf("stage %d assigned %d times", si, c)
		}
	}
}

func TestNewRequiresStages(t *testing.T) {
	_, interior := poolInterior(t, 4, 1)
	if _, err := pipeline.NewPlaced(design(t, 4, 1).Graph, interior, nil); err == nil {
		t.Fatal("no stages accepted")
	}
}

func TestLargeNetworkRemapLatency(t *testing.T) {
	// The constructive planner keeps remap fast on a large network.
	sol := design(t, 1000, 4)
	e, mgr := managed(t, sol, chain())
	for _, node := range []int{50, 300, 700, 900} {
		if err := fault(mgr, e, node); err != nil {
			t.Fatalf("inject %d: %v", node, err)
		}
	}
	if e.ProcessorsInUse() != 1000 {
		t.Fatalf("in use = %d, want 1000 (1004 − 4 faults)", e.ProcessorsInUse())
	}
}

func TestEngineRepairReinstates(t *testing.T) {
	sol := design(t, 10, 2)
	e, mgr := managed(t, sol, chain())
	victim := mgr.Pipeline()[2]
	if err := fault(mgr, e, victim); err != nil {
		t.Fatal(err)
	}
	if e.ProcessorsInUse() != 11 {
		t.Fatalf("after fault: %d in use", e.ProcessorsInUse())
	}
	if err := repair(mgr, e, victim); err != nil {
		t.Fatal(err)
	}
	if e.ProcessorsInUse() != 12 {
		t.Fatalf("after repair: %d in use, want 12", e.ProcessorsInUse())
	}
	if out := e.Process(mkFrames(4, 16, 9)); len(out) != 4 {
		t.Fatal("stream broken after repair")
	}
	if err := repair(mgr, e, victim); err == nil {
		t.Fatal("double repair accepted")
	}
	m := mgr.Stats()
	total := m.NoChange + m.Splice + m.Rewire +
		m.EndpointSwap + m.Insert + m.FullRemap
	if total == 0 {
		t.Fatalf("repair tactics not recorded: %+v", m)
	}
}
