package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"gdpn/internal/construct"
	"gdpn/internal/graph"
	"gdpn/internal/obs"
	"gdpn/internal/store"
	"gdpn/internal/verify"
)

func init() {
	register("ST", "Store: content-addressed verdict cache, cold vs warm sweep", runStore)
}

// warmSpeedupFloor is the acceptance gate for the warm re-sweep: replaying
// stored verdicts (proof-block fast path: no enumeration, no solving)
// must be at least this much faster than the cold sweep that
// produced them. CI runs the full experiment, so the gate is enforced on
// every push.
const warmSpeedupFloor = 5.0

// runStore measures incremental re-verification through the verdict
// store: a cold symmetry-reduced sweep populates it, a second run of the
// same instance replays it. Correctness is gated the same way the fleet
// gauntlet gates its summaries — the store-less, cold-store, and
// warm-store verdict summaries must be byte-identical — and every
// certificate replayed from the store must pass its re-check
// (store_replay_fail_total stays 0).
func runStore(cfg Config) *Table {
	t := &Table{
		Claim: fmt.Sprintf("a content-addressed verdict store makes re-verification incremental: the warm re-sweep replays certificates instead of solving, ≥%.0fx faster with a byte-identical verdict", warmSpeedupFloor),
		Cols:  []string{"instance", "k", "fault sets", "solver calls", "cold", "warm", "speedup", "byte-equal", "replay fails"},
	}
	t.OK = true

	reg := obs.Default()
	wasEnabled := reg.Enabled()
	reg.SetEnabled(true)
	defer reg.SetEnabled(wasEnabled)
	replayFailC := reg.Counter("store_replay_fail_total")

	dir, err := os.MkdirTemp("", "gdpn-st-*")
	if err != nil {
		t.Note("temp store dir: %v", err)
		t.OK = false
		return t
	}
	defer os.RemoveAll(dir)

	type inst struct {
		name string
		g    *graph.Graph
		k    int
		// gated enforces the warm-speedup floor on this instance. Only the
		// largest instance is gated: fixed warm-path overhead (canonical
		// labeling, group lookup) weighs more on small sweeps, and quick
		// mode measures without gating at all.
		gated bool
	}
	insts := []inst{{"G3,4", construct.G3(4), 4, false}}
	if !cfg.Quick {
		insts = append(insts, inst{"G3,5", construct.G3(5), 5, true})
	}

	for i, in := range insts {
		opts := cfg.VerifyOptions()
		opts.ExploitSymmetry = true
		opts.Store = nil
		base := verify.Exhaustive(in.g, in.k, opts)

		path := filepath.Join(dir, fmt.Sprintf("st-%d.gdps", i))
		s, err := store.Open(path)
		if err != nil {
			t.Note("open store: %v", err)
			t.OK = false
			return t
		}
		opts.Store = s
		cold := verify.Exhaustive(in.g, in.k, opts)
		if err := s.Close(); err != nil {
			t.Note("close store: %v", err)
			t.OK = false
			return t
		}

		s2, err := store.Open(path)
		if err != nil {
			t.Note("reopen store: %v", err)
			t.OK = false
			return t
		}
		failsBefore := replayFailC.Value()
		opts.Store = s2
		warm := verify.Exhaustive(in.g, in.k, opts)
		fails := replayFailC.Value() - failsBefore
		s2.Close()

		byteEqual := cold.VerdictSummary() == base.VerdictSummary() &&
			warm.VerdictSummary() == base.VerdictSummary()
		speedup := float64(cold.Duration) / float64(warm.Duration)
		ok := byteEqual && fails == 0 && (!in.gated || speedup >= warmSpeedupFloor)
		t.AddRow(in.name, fmt.Sprint(in.k),
			fmt.Sprint(base.Represented), fmt.Sprint(base.Checked),
			cold.Duration.Round(10e3).String(), warm.Duration.Round(10e3).String(),
			fmt.Sprintf("%.1fx", speedup), boolCell(byteEqual), fmt.Sprint(fails))
		t.OK = t.OK && ok
	}
	t.Note("warm run replays per-size proof blocks: no enumeration, no solver; every positive verdict re-passes CheckPipeline before being trusted, and each block must cover its size under the certified automorphisms")
	if cfg.Quick {
		t.Note("quick mode: speedup measured but not gated (full runs enforce ≥%.0fx on G3,5)", warmSpeedupFloor)
	}
	return t
}
