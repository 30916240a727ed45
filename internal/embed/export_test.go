package embed

import (
	"gdpn/internal/bitset"
	"gdpn/internal/graph"
)

// PlanAsymptotic exposes the constructive planner tier to the external
// test package, which can import verify for independent checking.
func (s *Solver) PlanAsymptotic(faults bitset.Set) graph.Path { return s.planAsymptotic(faults) }

// PlanPrimary is the planner tier with the primary ring plan alone, no
// fallback plan.
func (s *Solver) PlanPrimary(faults bitset.Set) graph.Path { return s.planToDepth(faults, 0) }
