package verify

import (
	"gdpn/internal/bitset"
	"gdpn/internal/graph"
)

// CheckSegment verifies that path is a valid tenant placement over the
// shared pool: a simple path in g visiting exactly the healthy processors
// of placement, once each. It is the multi-tenant analogue of
// CheckPipeline — a tenant's pipeline is a contiguous segment of the
// global pipeline, so its ends are processors rather than terminals (the
// executor injects frames at the head and collects them at the tail, the
// way a DMA engine would feed a sub-array). A nil error is a complete
// certificate that the tenant runs on every healthy processor it was
// granted and on nothing else.
func CheckSegment(g *graph.Graph, faults bitset.Set, placement []int, path graph.Path) error {
	return graph.CheckSegment(g, "segment", faults, placement, path)
}
