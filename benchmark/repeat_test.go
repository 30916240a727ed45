package main

import (
	"reflect"
	"strings"
	"testing"
)

// shortChurn runs the churn workload at seed for a fixed number of
// schedule events, with one set-up, and fails the test on any failed
// operation.
func shortChurn(t *testing.T, seed int64, events int) *churnLog {
	t.Helper()
	r := &run{layers: map[string]metric{}}
	_, log := churn(config{root: "..", seed: seed, setups: 1, short: true}, r, events)
	if r.failed != 0 || log == nil {
		t.Fatalf("churn seed %d: %d failed operations:\n%s", seed, r.failed, strings.Join(r.problems, "\n"))
	}
	return log
}

// TestChurnRepeatsExactly: two churn runs at one seed apply the same event
// script, replan the same tenants and deliver the same frames per tenant;
// another seed draws another script.
func TestChurnRepeatsExactly(t *testing.T) {
	const events = 12
	a, b := shortChurn(t, 7, events), shortChurn(t, 7, events)
	if len(a.Events) < events {
		t.Fatalf("only %d events applied, want %d", len(a.Events), events)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs at seed 7 differ:\n%+v\n%+v", a, b)
	}
	if c := shortChurn(t, 8, events); reflect.DeepEqual(a.Events, c.Events) {
		t.Fatalf("seeds 7 and 8 applied the same event script %+v", a.Events)
	}
}

// TestSweepRepeatsExactly: two proofs on the sweep graph check and
// represent the same fault sets.
func TestSweepRepeatsExactly(t *testing.T) {
	r := &run{layers: map[string]metric{}}
	rig, _ := newSweepRig(r)
	if rig == nil {
		t.Fatalf("set-up: %s", strings.Join(r.problems, "\n"))
	}
	a, b := rig.prove(sweepWarmupK), rig.prove(sweepWarmupK)
	if !a.OK() || !b.OK() {
		t.Fatalf("proofs failed: %s / %s", a.VerdictSummary(), b.VerdictSummary())
	}
	if a.Checked != b.Checked || a.Represented != b.Represented {
		t.Fatalf("checked/represented %d/%d then %d/%d", a.Checked, a.Represented, b.Checked, b.Represented)
	}
}
