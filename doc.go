// Package gdpn is a Go reproduction of Robert Cypher and Ambrose K. Laing,
// "Gracefully Degradable Pipeline Networks", Proc. 11th International
// Parallel Processing Symposium (IPPS), 1997, pp. 55–64.
//
// A k-gracefully-degradable pipeline network is a node-labeled graph of
// processors, input terminals, and output terminals such that for EVERY
// fault set of at most k nodes, the survivor contains a pipeline — a path
// from a healthy input terminal to a healthy output terminal through every
// healthy processor. This module implements all of the paper's
// constructions (node- and degree-optimal), the reconfiguration solvers
// that find pipelines after faults, exhaustive and randomized verifiers,
// the computer search behind the paper's special solutions and
// impossibility lemma, prior-work baselines, and a concurrent streaming
// runtime exercising the motivating signal-processing workloads.
//
// Entry points:
//
//   - internal/core: Design / Inject / Pipeline — the top-level API
//   - internal/construct: the paper's constructions (§3)
//   - internal/embed: planner, exact, and backtracking solvers
//   - internal/verify: machine proofs of GD(G, k) and optimality checks
//   - internal/search: Lemma 3.14 re-proof and special-solution derivation
//   - internal/pipeline + internal/stages: the streaming runtime
//   - internal/experiments: regenerators for every figure/theorem table
//
// The benchmarks in bench_test.go regenerate each experiment; see
// DESIGN.md for the per-experiment index and EXPERIMENTS.md for the
// paper-vs-measured record.
package gdpn
