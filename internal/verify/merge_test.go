package verify

import (
	"fmt"
	"reflect"
	"testing"
)

// merge must cap SolverBugs at MaxRecorded exactly like Failures and
// Unknowns: a pathological solver producing a bug per fault set must not
// grow the report without bound.
func TestMergeCapsAllRecordLists(t *testing.T) {
	const maxRec = 4
	rep := &Report{}
	for w := 0; w < 3; w++ {
		local := &Report{Checked: 10, Represented: 10, FailureCount: 3, UnknownCount: 3}
		for i := 0; i < 3; i++ {
			r := FaultSetRecord{Nodes: []int{w, i}, Err: fmt.Sprintf("w%d-%d", w, i)}
			local.Failures = append(local.Failures, r)
			local.Unknowns = append(local.Unknowns, r)
			local.SolverBugs = append(local.SolverBugs, r)
		}
		merge(rep, local, maxRec)
	}
	if len(rep.Failures) != maxRec {
		t.Errorf("Failures len = %d, want %d", len(rep.Failures), maxRec)
	}
	if len(rep.Unknowns) != maxRec {
		t.Errorf("Unknowns len = %d, want %d", len(rep.Unknowns), maxRec)
	}
	if len(rep.SolverBugs) != maxRec {
		t.Errorf("SolverBugs len = %d, want %d", len(rep.SolverBugs), maxRec)
	}
	// Counts are not capped.
	if rep.Checked != 30 || rep.FailureCount != 9 || rep.UnknownCount != 9 {
		t.Errorf("counts wrong: %+v", rep)
	}
	// Existence of bugs survives the cap, so OK() stays false.
	if rep.OK() {
		t.Error("report with solver bugs must not be OK")
	}
}

// merge must be commutative: remote partials arrive in arbitrary order,
// and the merged report — including the capped record lists, which keep
// the canonically-smallest entries rather than the first-seen ones, and
// the Interrupted flag — must not depend on arrival order.
func TestMergeOrderIndependent(t *testing.T) {
	const maxRec = 3
	partials := []*Report{
		{Checked: 5, Represented: 9, FailureCount: 2, Failures: []FaultSetRecord{
			{Nodes: []int{7, 9}, Err: "no pipeline"}, {Nodes: []int{2}, Err: "no pipeline"}}},
		{Checked: 1, Represented: 1, UnknownCount: 1, Unknowns: []FaultSetRecord{
			{Nodes: []int{4, 5}, Err: "budget exhausted"}}},
		{Checked: 3, Represented: 6, FailureCount: 3, Failures: []FaultSetRecord{
			{Nodes: []int{1, 8}, Err: "no pipeline"}, {Nodes: []int{0, 3}, Err: "no pipeline"},
			{Nodes: []int{5}, Err: "no pipeline"}}},
		{Checked: 2, Represented: 2, Interrupted: true}, // an interrupted partial poisons every ordering
	}
	orders := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}}
	var first *Report
	for _, order := range orders {
		rep := &Report{}
		for _, i := range order {
			merge(rep, partials[i], maxRec)
		}
		if !rep.Interrupted {
			t.Fatalf("order %v: Interrupted flag lost in merge", order)
		}
		if len(rep.Failures) != maxRec {
			t.Fatalf("order %v: %d failures recorded, want cap %d", order, len(rep.Failures), maxRec)
		}
		if first == nil {
			first = rep
			continue
		}
		if !reflect.DeepEqual(first, rep) {
			t.Errorf("order %v merged to\n%+v\nwant\n%+v", order, rep, first)
		}
	}
	// The cap keeps the canonically smallest records: {0,3} < {1,8} < {2}.
	want := []FaultSetRecord{
		{Nodes: []int{0, 3}, Err: "no pipeline"},
		{Nodes: []int{1, 8}, Err: "no pipeline"},
		{Nodes: []int{2}, Err: "no pipeline"},
	}
	if !reflect.DeepEqual(first.Failures, want) {
		t.Errorf("capped failures = %+v, want %+v", first.Failures, want)
	}
}

// imageCmp must compare the sorted image, not the raw mapped sequence.
func TestImageLess(t *testing.T) {
	// q maps 0↔3, 1↔2 on a 4-element universe.
	q := []int32{3, 2, 1, 0}
	scratch := make([]int, 4)
	cases := []struct {
		sub  []int
		want int
	}{
		{[]int{0, 1}, 1},  // image {3,2} sorts to {2,3} > {0,1}
		{[]int{2, 3}, -1}, // image sorts to {0,1} < {2,3}
		{[]int{0, 3}, 0},  // image {3,0} sorts to {0,3}: equal
		{[]int{1, 2}, 0},  // fixed setwise
	}
	for _, c := range cases {
		if got := imageCmp(q, c.sub, scratch); got != c.want {
			t.Errorf("imageCmp(%v) = %v, want %v", c.sub, got, c.want)
		}
	}
}
