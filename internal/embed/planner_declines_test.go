package embed_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"gdpn/internal/bitset"
	"gdpn/internal/combin"
	"gdpn/internal/construct"
	"gdpn/internal/embed"
)

// Decline classes: the closest two faulty S labels are one apart, two
// apart, or neither (at most one faulty S label, or all further apart).
const (
	sOneApart = iota
	sTwoApart
	sOther
)

// declineClass classifies a fault set by the spacing of its faulty S
// labels, the shape that decides whether the ring's surviving S labels
// can still reach a block end.
func declineClass(lay *construct.Layout, faults bitset.Set) int {
	gap, prev := 3, -3
	for j := 0; j < lay.SSize(); j++ {
		if faults.Contains(lay.C[j]) {
			gap, prev = min(gap, j-prev), j
		}
	}
	switch gap {
	case 1:
		return sOneApart
	case 2:
		return sTwoApart
	}
	return sOther
}

// TestPlannerDeclinesByClass runs the planner on every fault set of size
// ≤ k and pins how many it declines, split by decline class, both with
// the primary ring plan alone and with the fallback plans. A decline is
// still answered correctly, by the probe tier, but costs about fifteen
// planner calls, so the gap is held as exact numbers.
func TestPlannerDeclinesByClass(t *testing.T) {
	cases := []struct {
		n, k  int
		long  bool
		total int64
		// Declines by class: one apart, two apart, other.
		primary, planner [3]int
	}{
		{22, 4, false, 66712, [3]int{542, 6, 62}, [3]int{4, 0, 0}},
		{26, 5, true, 1099296, [3]int{19438, 7817, 370}, [3]int{0, 0, 0}},
	}
	for _, c := range cases {
		if c.long && testing.Short() {
			t.Logf("G(%d,%d) skipped under -short", c.n, c.k)
			continue
		}
		rig := newPlannerRig(t, c.n, c.k)
		nodes := rig.g.NumNodes()
		s := embed.NewSolver(rig.g, embed.Options{Layout: rig.lay})
		faults := bitset.New(nodes)
		var primary, planner [3]int
		total := combin.SubsetsUpTo(nodes, c.k, func(sub []int) bool {
			faults.Clear()
			for _, v := range sub {
				faults.Add(v)
			}
			if s.PlanPrimary(faults) != nil {
				return true
			}
			class := declineClass(rig.lay, faults)
			primary[class]++
			if s.PlanAsymptotic(faults) == nil {
				planner[class]++
			}
			return true
		})
		t.Logf("G(%d,%d): %d fault sets; declines by class (one apart, two apart, other): primary plan %v, planner %v",
			c.n, c.k, total, primary, planner)
		if total != c.total || primary != c.primary || planner != c.planner {
			t.Errorf("G(%d,%d): %d fault sets, declines primary %v planner %v; want %d, %v, %v",
				c.n, c.k, total, primary, planner, c.total, c.primary, c.planner)
		}
	}
}

// TestPlannerPrimaryPlanDigest hashes (fault set, pipeline) for every
// fault set of size ≤ 4 of G(22,4) that the primary ring plan resolves,
// in lexicographic order. The digest is the one the planner gave before
// it had fallback ring plans, so pipelines planned before them, and the
// placements and stored certificates built from those pipelines, are
// unchanged.
func TestPlannerPrimaryPlanDigest(t *testing.T) {
	rig := newPlannerRig(t, 22, 4)
	nodes := rig.g.NumNodes()
	s := embed.NewSolver(rig.g, embed.Options{Layout: rig.lay})
	faults := bitset.New(nodes)
	h := sha256.New()
	var buf []byte
	planned := 0
	combin.SubsetsUpTo(nodes, 4, func(sub []int) bool {
		faults.Clear()
		for _, v := range sub {
			faults.Add(v)
		}
		path := s.PlanPrimary(faults)
		if path == nil {
			return true
		}
		planned++
		buf = binary.AppendUvarint(buf[:0], uint64(len(sub)))
		for _, v := range sub {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
		buf = binary.AppendUvarint(buf, uint64(len(path)))
		for _, v := range path {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
		h.Write(buf)
		return true
	})
	const (
		wantPlanned = 66102
		wantDigest  = "f0f2dd847997f68250e3a54108c54f289413e0b546ca8f545aabdc39c1665751"
	)
	got := hex.EncodeToString(h.Sum(nil))
	if planned != wantPlanned || got != wantDigest {
		t.Fatalf("primary plan resolved %d sets, digest %s; want %d, %s", planned, got, wantPlanned, wantDigest)
	}
}
