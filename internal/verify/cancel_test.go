package verify_test

import (
	"context"
	"testing"

	"gdpn/internal/combin"
	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/graph"
	"gdpn/internal/verify"
)

// longLine builds in — p0 — p1 — … — p{n-1} — out: not even 1-GD, so almost
// every fault set is a counterexample and the very first checked set that
// contains an interior processor fails.
func longLine(n int) *graph.Graph {
	g := graph.New("longline")
	prev := -1
	for i := 0; i < n; i++ {
		p := g.AddNode(graph.Processor, i)
		if prev >= 0 {
			g.AddEdge(prev, p)
		} else {
			in := g.AddNode(graph.InputTerminal, 0)
			g.AddEdge(in, p)
		}
		prev = p
	}
	out := g.AddNode(graph.OutputTerminal, 0)
	g.AddEdge(prev, out)
	return g
}

func TestExhaustiveFailFastShortCircuits(t *testing.T) {
	g := longLine(24)
	total := combin.CountUpTo(g.NumNodes(), 2)
	rep := verify.Exhaustive(g, 2, verify.Options{FailFast: true, Workers: 4})
	if rep.FailureCount == 0 {
		t.Fatal("fail-fast run found no counterexample on a line graph")
	}
	if rep.Checked >= total/2 {
		t.Fatalf("fail-fast checked %d of %d sets; the planted early counterexample did not short-circuit", rep.Checked, total)
	}
	if rep.Interrupted {
		t.Fatal("a FailFast short-circuit is a definitive disproof, not an interruption")
	}
	if rep.OK() {
		t.Fatal("report with failures must not be OK")
	}
}

func TestExhaustiveFailFastNoopOnCleanInstance(t *testing.T) {
	// On a genuinely k-GD instance FailFast must change nothing: the sweep
	// runs to completion and the proof counters match the unreduced run.
	g := construct.G2(2)
	plain := verify.Exhaustive(g, 2, verify.Options{Workers: 2})
	ff := verify.Exhaustive(g, 2, verify.Options{Workers: 2, FailFast: true})
	if !ff.OK() || ff.Interrupted {
		t.Fatalf("clean FailFast run: OK=%v Interrupted=%v", ff.OK(), ff.Interrupted)
	}
	if ff.Checked != plain.Checked || ff.Represented != plain.Represented {
		t.Fatalf("FailFast changed coverage on a clean run: %d/%d vs %d/%d",
			ff.Checked, ff.Represented, plain.Checked, plain.Represented)
	}
}

func TestExhaustiveContextCancelInterrupts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := verify.Exhaustive(construct.G2(3), 2, verify.Options{Context: ctx, Workers: 2})
	if !rep.Interrupted {
		t.Fatal("pre-canceled context did not mark the report interrupted")
	}
	if rep.Checked != 0 {
		t.Fatalf("checked %d sets under a pre-canceled context, want 0", rep.Checked)
	}
	if rep.OK() {
		t.Fatal("interrupted run must not claim a proof")
	}
}

func TestExhaustiveCallerTokenCancelInterrupts(t *testing.T) {
	// A caller-supplied Resources token is the parent of the run: canceling
	// it stops the sweep and marks the report interrupted.
	tok := embed.NewResources(nil, 0, 0)
	defer tok.Release()
	tok.Cancel()
	rep := verify.Exhaustive(construct.G2(2), 2, verify.Options{
		Workers: 2, Solver: embed.Options{Res: tok},
	})
	if !rep.Interrupted || rep.Checked != 0 {
		t.Fatalf("canceled parent token: Interrupted=%v Checked=%d", rep.Interrupted, rep.Checked)
	}
}

func TestRandomContextCancelInterrupts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := verify.Random(construct.G2(3), 3, 500, 42, verify.Options{Context: ctx, Workers: 2})
	if !rep.Interrupted {
		t.Fatal("pre-canceled context did not mark the random report interrupted")
	}
	if rep.Checked != 0 {
		t.Fatalf("checked %d trials under a pre-canceled context, want 0", rep.Checked)
	}
}

func TestExhaustiveReportsTierStats(t *testing.T) {
	rep := verify.Exhaustive(construct.G2(2), 2, verify.Options{Workers: 2})
	if got := rep.Tiers.Total(); got != rep.Checked {
		t.Fatalf("tier stats account for %d calls, want Checked=%d", got, rep.Checked)
	}
}
