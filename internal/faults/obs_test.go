package faults_test

import (
	"testing"

	"gdpn/internal/construct"
	"gdpn/internal/faults"
	"gdpn/internal/obs"
)

// TestInjectorTracesFaults checks each revealed fault is counted under
// its model name.
func TestInjectorTracesFaults(t *testing.T) {
	reg := obs.Default()
	reg.Reset()
	reg.SetEnabled(true)
	defer func() {
		reg.SetEnabled(false)
		reg.Reset()
	}()

	sol, err := construct.Design(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(faults.ProcessorsOnly{}, sol.Graph, 3, 7)
	var revealed int
	for {
		if _, ok := inj.Next(); !ok {
			break
		}
		revealed++
	}
	if revealed != 3 {
		t.Fatalf("revealed %d faults, want 3", revealed)
	}
	s := reg.Snapshot()
	if got := s.Counters[`faults_injected_total{model="processors-only"}`]; got != 3 {
		t.Fatalf("injected counter %d, want 3 (%v)", got, s.Counters)
	}
}
