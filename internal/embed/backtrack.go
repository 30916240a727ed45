package embed

import (
	"sort"
)

// backtracker is the pruned-DFS Hamiltonian path engine. It works on local
// indices 0..np-1 over the healthy processors of one Find call and is
// rebuilt per call (the adjacency depends on the fault set).
type backtracker struct {
	np      int
	adj     [][]int32 // local adjacency
	isEnd   []bool
	visited []bool
	remDeg  []int // unvisited-neighbor count
	path    []int // local indices, in visit order

	zeroCount    int // unvisited vertices with remDeg == 0
	oneCount     int // unvisited vertices with remDeg == 1
	endRemaining int // unvisited end candidates

	budget     int64
	expansions int64
	exhausted  bool
	res        *Resources // nil = no external stop; checked per expansion

	// connectivity scratch
	seen  []bool
	queue []int

	// candBuf is a stack-disciplined shared candidate buffer across DFS
	// frames, avoiding a per-frame allocation without capping the degree.
	candBuf []int32
}

// findBacktrack runs the DFS engine. A Found=false, Unknown=false result is
// a completed exhaustive search, i.e. a proof that no pipeline exists. res
// is the stop token for this call (may be nil); the engine checks it with
// one atomic load per expansion and charges it in 1024-expansion batches.
func (s *Solver) findBacktrack(e endpoints, budget int64, res *Resources) Result {
	np := len(e.healthyProcs)
	bt := s.bt
	if bt == nil || cap(bt.adj) < np {
		bt = &backtracker{
			adj:     make([][]int32, np),
			isEnd:   make([]bool, np),
			visited: make([]bool, np),
			remDeg:  make([]int, np),
			path:    make([]int, 0, np),
			seen:    make([]bool, np),
			queue:   make([]int, 0, np),
		}
		s.bt = bt
	}
	bt.np = np
	bt.adj = bt.adj[:np]
	bt.isEnd = bt.isEnd[:np]
	bt.visited = bt.visited[:np]
	bt.remDeg = bt.remDeg[:np]
	bt.seen = bt.seen[:np]
	bt.path = bt.path[:0]
	bt.budget = budget
	bt.expansions = 0
	bt.exhausted = false
	bt.res = res
	bt.zeroCount = 0
	bt.oneCount = 0
	bt.endRemaining = 0

	local := make(map[int]int, np)
	for i, p := range e.healthyProcs {
		local[p] = i
	}
	starts := make([]int, 0, np)
	for i, p := range e.healthyProcs {
		lst := bt.adj[i][:0]
		for _, u := range s.g.Neighbors(p) {
			if j, ok := local[int(u)]; ok {
				lst = append(lst, int32(j))
			}
		}
		bt.adj[i] = lst
		bt.isEnd[i] = e.end.Contains(p)
		bt.visited[i] = false
		bt.remDeg[i] = len(lst)
		if bt.remDeg[i] == 0 {
			bt.zeroCount++
		} else if bt.remDeg[i] == 1 {
			bt.oneCount++
		}
		if bt.isEnd[i] {
			bt.endRemaining++
		}
		if e.start.Contains(p) {
			starts = append(starts, i)
		}
	}
	// Isolated vertices are fatal unless np == 1 (handled by caller).
	if bt.zeroCount > 0 {
		return Result{Found: false}
	}
	// Try low-degree starts first: they are the most constrained.
	sort.Slice(starts, func(a, b int) bool {
		return len(bt.adj[starts[a]]) < len(bt.adj[starts[b]])
	})
	for _, st := range starts {
		bt.visit(st)
		if bt.dfs(st, np-1) {
			procPath := make([]int, len(bt.path))
			for i, li := range bt.path {
				procPath[i] = e.healthyProcs[li]
			}
			return Result{
				Pipeline:   s.assemble(e, procPath),
				Found:      true,
				Expansions: bt.expansions,
			}
		}
		bt.unvisit(st)
		if bt.exhausted {
			return Result{Unknown: true, Expansions: bt.expansions}
		}
	}
	return Result{Found: false, Expansions: bt.expansions}
}

func (bt *backtracker) visit(v int) {
	bt.visited[v] = true
	bt.path = append(bt.path, v)
	if bt.isEnd[v] {
		bt.endRemaining--
	}
	for _, u := range bt.adj[v] {
		if !bt.visited[u] {
			bt.remDeg[u]--
			switch bt.remDeg[u] {
			case 0:
				bt.zeroCount++
				bt.oneCount--
			case 1:
				bt.oneCount++
			}
		}
	}
	switch bt.remDeg[v] {
	case 0:
		bt.zeroCount-- // v itself no longer counts: it is visited
	case 1:
		bt.oneCount--
	}
}

func (bt *backtracker) unvisit(v int) {
	switch bt.remDeg[v] {
	case 0:
		bt.zeroCount++
	case 1:
		bt.oneCount++
	}
	for _, u := range bt.adj[v] {
		if !bt.visited[u] {
			switch bt.remDeg[u] {
			case 0:
				bt.zeroCount--
				bt.oneCount++
			case 1:
				bt.oneCount--
			}
			bt.remDeg[u]++
		}
	}
	if bt.isEnd[v] {
		bt.endRemaining++
	}
	bt.path = bt.path[:len(bt.path)-1]
	bt.visited[v] = false
}

// dfs extends the path from head u with `left` vertices still to place.
// Returns true when a full path ending at an end candidate is found.
func (bt *backtracker) dfs(u, left int) bool {
	if left == 0 {
		return bt.isEnd[u]
	}
	if bt.budget <= 0 {
		bt.exhausted = true
		return false
	}
	// External stop (cancel/deadline/shared budget): one atomic load per
	// expansion — deadlines are armed as timers on the token, so the hot
	// loop never reads the clock. Shared-budget charges are batched.
	if bt.res != nil {
		if bt.res.Stopped() {
			bt.exhausted = true
			return false
		}
		if bt.expansions&1023 == 1023 && !bt.res.Charge(1024) {
			bt.exhausted = true
			return false
		}
	}
	bt.budget--
	bt.expansions++

	// The final vertex must be an end candidate.
	if bt.endRemaining == 0 {
		return false
	}
	// A vertex with no unvisited neighbors can only be entered from the
	// current head as the very last vertex.
	if bt.zeroCount > 1 {
		return false
	}
	if bt.zeroCount == 1 && left > 1 {
		// The zero vertex must be the final one AND adjacent to u — but
		// entering it now (left > 1) strands the rest; entering it later is
		// impossible (its entrances are all visited except u, and u will no
		// longer be the head). Dead.
		return false
	}
	// Connectivity: all unvisited vertices must be reachable from u. On
	// small graphs (the exhaustive-verification regime) it is cheap
	// relative to the subtrees it prunes; on large graphs it is sampled so
	// the per-expansion cost stays amortized-constant.
	if left > 2 && (left <= 96 || bt.expansions&31 == 0) && !bt.reachableAll(u, left) {
		return false
	}

	// Candidates in Warnsdorff order (fewest onward moves first). The
	// shared buffer is stack-disciplined: this frame appends its candidates
	// and truncates back before returning.
	base := len(bt.candBuf)
	for _, v := range bt.adj[u] {
		if !bt.visited[v] {
			bt.candBuf = append(bt.candBuf, v)
		}
	}
	list := bt.candBuf[base:]
	defer func() { bt.candBuf = bt.candBuf[:base] }()
	// An unvisited vertex with ≤ 1 unvisited neighbors that is NOT adjacent
	// to the head can only be the final vertex of the path (its eventual
	// predecessor and successor must both be currently-unvisited neighbors
	// unless it is entered from the head right now). Two such vertices are
	// a contradiction.
	if low := bt.zeroCount + bt.oneCount; low >= 2 {
		nonAdj := low
		for _, v := range list {
			if bt.remDeg[v] <= 1 {
				nonAdj--
			}
		}
		if nonAdj >= 2 {
			return false
		}
	}
	sort.Slice(list, func(a, b int) bool {
		da, db := bt.remDeg[list[a]], bt.remDeg[list[b]]
		if da != db {
			return da < db
		}
		return list[a] < list[b]
	})
	for _, v32 := range list {
		v := int(v32)
		if left == 1 && !bt.isEnd[v] {
			continue
		}
		if bt.remDeg[v] == 0 && left > 1 {
			continue // would strand v's successors
		}
		bt.visit(v)
		if bt.dfs(v, left-1) {
			return true
		}
		bt.unvisit(v)
		if bt.exhausted {
			return false
		}
	}
	return false
}

// reachableAll reports whether every unvisited vertex is reachable from u
// through unvisited vertices. A Hamiltonian completion must visit them all
// starting from u, so disconnection is fatal.
func (bt *backtracker) reachableAll(u, left int) bool {
	for i := range bt.seen {
		bt.seen[i] = false
	}
	bt.queue = bt.queue[:0]
	cnt := 0
	for _, v := range bt.adj[u] {
		if !bt.visited[v] && !bt.seen[v] {
			bt.seen[v] = true
			bt.queue = append(bt.queue, int(v))
			cnt++
		}
	}
	for qi := 0; qi < len(bt.queue); qi++ {
		v := bt.queue[qi]
		for _, w := range bt.adj[v] {
			if !bt.visited[w] && !bt.seen[w] {
				bt.seen[w] = true
				bt.queue = append(bt.queue, int(w))
				cnt++
			}
		}
	}
	return cnt == left
}
