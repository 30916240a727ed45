package embed

import (
	"gdpn/internal/bitset"
	"gdpn/internal/graph"
)

// PlanAsymptotic exposes the constructive planner tier to the external
// test package, which can import verify for independent checking.
func (s *Solver) PlanAsymptotic(faults bitset.Set) graph.Path { return s.planAsymptotic(faults) }
