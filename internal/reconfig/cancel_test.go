package reconfig_test

import (
	"errors"
	"testing"

	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/graph"
	"gdpn/internal/reconfig"
)

// TestRemapCanceledRollsBack: canceling the manager's ambient token makes
// a repair that needs the full solver fail with embed.ErrCanceled and roll
// back — the previous pipeline stays live — and replacing the token makes
// the same repair succeed.
func TestRemapCanceledRollsBack(t *testing.T) {
	// G(10,2) terminals have degree 1: faulting a pipeline endpoint cannot
	// be endpoint-swapped and must go through the full solver.
	sol, err := construct.Design(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := reconfig.New(sol)
	if err != nil {
		t.Fatal(err)
	}
	tok := embed.NewResources(nil, 0, 0)
	defer tok.Release()
	m.SetResources(tok)
	tok.Cancel()

	before := append(graph.Path(nil), m.Pipeline()...)
	victim := before[0]
	_, err = m.Fault(victim)
	if err == nil {
		t.Fatal("Fault under canceled token succeeded")
	}
	if !errors.Is(err, embed.ErrCanceled) {
		t.Fatalf("Fault error = %v, want wrapped embed.ErrCanceled", err)
	}
	if m.Faults().Contains(victim) {
		t.Fatal("canceled remap left the fault recorded")
	}
	if len(m.Pipeline()) != len(before) {
		t.Fatal("pipeline replaced despite canceled remap")
	}
	if m.Downtime().Rollbacks < 1 {
		t.Fatalf("rollback not accounted: %+v", m.Downtime())
	}

	// A fresh token unblocks the same repair.
	m.SetResources(nil)
	if _, err := m.Fault(victim); err != nil {
		t.Fatalf("retry after detaching token: %v", err)
	}
}
