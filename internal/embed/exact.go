package embed

import (
	"math/bits"

	"gdpn/internal/graph"
)

// findDP decides pipeline existence exactly with a Held–Karp dynamic
// program over the healthy processors. dp[mask] is the set (as a bitmask)
// of vertices at which some path covering exactly `mask` and starting at a
// start-candidate can end. The instance is feasible iff dp[full] contains
// an end-candidate. Complete: a false result is a proof of nonexistence.
//
// Instances with more than MaxDPProcessors healthy processors are handed
// to the (also complete, budget permitting) backtracking engine.
//
// res is the stop token for this call (may be nil): checked with one
// atomic load per mask row and charged in batches, never by reading the
// clock. A found pipeline is built into dst.
func (s *Solver) findDP(e endpoints, res *Resources, dst graph.Path) Result {
	np := len(e.healthyProcs)
	if np > MaxDPProcessors {
		return s.findBacktrack(e, s.opts.Budget, res, dst)
	}
	// Entry check: small tables finish between batched in-loop checks, so an
	// already-stopped token must be honored before any work happens.
	if stopped(res) {
		return Result{Unknown: true}
	}

	// Local adjacency bitmasks over healthy-processor indices.
	adj := make([]uint32, np)
	local := map[int]int{}
	for i, p := range e.healthyProcs {
		local[p] = i
	}
	var startMask, endMask uint32
	for i, p := range e.healthyProcs {
		for _, u := range s.g.Neighbors(p) {
			if j, ok := local[int(u)]; ok {
				adj[i] |= 1 << uint(j)
			}
		}
		if e.start.Contains(p) {
			startMask |= 1 << uint(i)
		}
		if e.end.Contains(p) {
			endMask |= 1 << uint(i)
		}
	}

	size := 1 << uint(np)
	if cap(s.dpTable) < size {
		s.dpTable = make([]uint32, size)
	}
	dp := s.dpTable[:size]
	for i := range dp {
		dp[i] = 0
	}

	var expansions int64
	for i := 0; i < np; i++ {
		if startMask&(1<<uint(i)) != 0 {
			dp[1<<uint(i)] = 1 << uint(i)
		}
	}
	full := uint32(size - 1)
	var lastCharged int64
	for mask := 1; mask < size; mask++ {
		// External stop: one atomic load per 1024 masks; transition counts
		// are charged to the token in the same batches.
		if mask&1023 == 0 && res != nil {
			if !res.Charge(expansions - lastCharged) {
				return Result{Unknown: true, Expansions: expansions}
			}
			lastCharged = expansions
		}
		lasts := dp[mask]
		if lasts == 0 {
			continue
		}
		if uint32(mask) == full {
			break
		}
		for ls := lasts; ls != 0; ls &= ls - 1 {
			last := bits.TrailingZeros32(ls)
			nexts := adj[last] &^ uint32(mask)
			for ns := nexts; ns != 0; ns &= ns - 1 {
				nxt := bits.TrailingZeros32(ns)
				dp[mask|1<<uint(nxt)] |= 1 << uint(nxt)
				expansions++
			}
		}
	}
	finals := dp[full] & endMask
	if finals == 0 {
		return Result{Found: false, Expansions: expansions}
	}

	// Reconstruct backwards: at (mask, last), a predecessor is any vertex
	// prev ∈ dp[mask \ last] adjacent to last.
	last := bits.TrailingZeros32(finals)
	mask := full
	rev := make([]int, 0, np)
	for {
		rev = append(rev, e.healthyProcs[last])
		prevMask := mask &^ (1 << uint(last))
		if prevMask == 0 {
			break
		}
		cands := dp[prevMask] & adj[last]
		if cands == 0 {
			panic("embed: DP reconstruction lost its path")
		}
		last = bits.TrailingZeros32(cands)
		mask = prevMask
	}
	// rev is end..start; reverse into start..end order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return Result{
		Pipeline:   s.assemble(e, rev, dst),
		Found:      true,
		Expansions: expansions,
	}
}
