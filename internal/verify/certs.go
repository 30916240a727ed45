package verify

import (
	"encoding/json"
	"fmt"
	"io"

	"gdpn/internal/bitset"
	"gdpn/internal/combin"
	"gdpn/internal/embed"
	"gdpn/internal/graph"
)

// Certificate is one fault set together with a witness pipeline. Checking
// it requires only the O(|path|) CheckPipeline predicate — no search — so
// a full CertificateSet is an independently re-checkable proof of
// GD(G, k) that does not trust any solver.
type Certificate struct {
	Faults   []int `json:"faults"`
	Pipeline []int `json:"pipeline"`
}

// CertificateSet is a complete proof object: one certificate per fault set
// of size ≤ K over the graph identified by Fingerprint.
type CertificateSet struct {
	GraphName   string        `json:"graph"`
	Fingerprint uint64        `json:"fingerprint"`
	Nodes       int           `json:"nodes"`
	K           int           `json:"k"`
	Certs       []Certificate `json:"certificates"`
}

// Certify produces a certificate for EVERY fault set of size ≤ k: a
// portable, solver-independent proof of k-graceful degradability. The
// fault-set space must be enumerable (see combin.CountUpTo for the size).
func Certify(g *graph.Graph, k int, solver embed.Options) (*CertificateSet, error) {
	cs := &CertificateSet{
		GraphName:   g.Name(),
		Fingerprint: g.Fingerprint(),
		Nodes:       g.NumNodes(),
		K:           k,
	}
	s := embed.NewSolver(g, solver)
	chk := graph.NewChecker(g)
	faults := bitset.New(g.NumNodes())
	var failed error
	combin.SubsetsUpTo(g.NumNodes(), k, func(sub []int) bool {
		faults.Clear()
		for _, v := range sub {
			faults.Add(v)
		}
		r := s.Find(faults)
		if !r.Found {
			failed = fmt.Errorf("verify: no pipeline for fault set %v (unknown=%v)", sub, r.Unknown)
			return false
		}
		if err := chk.Pipeline(faults, r.Pipeline); err != nil {
			failed = fmt.Errorf("verify: invalid witness for %v: %w", sub, err)
			return false
		}
		cs.Certs = append(cs.Certs, Certificate{
			Faults:   append([]int(nil), sub...),
			Pipeline: append([]int(nil), r.Pipeline...),
		})
		return true
	})
	if failed != nil {
		return nil, failed
	}
	return cs, nil
}

// Replay re-checks a certificate set against a graph: the graph must match
// the recorded fingerprint, every fault set of size ≤ K must be present
// exactly once, and every witness must pass CheckPipeline. A nil error
// re-establishes GD(G, K) using only the certificate data.
func (cs *CertificateSet) Replay(g *graph.Graph) error {
	if g.NumNodes() != cs.Nodes {
		return fmt.Errorf("verify: node count %d, certificate set recorded %d", g.NumNodes(), cs.Nodes)
	}
	if g.Fingerprint() != cs.Fingerprint {
		return fmt.Errorf("verify: graph fingerprint mismatch (got %x, want %x)", g.Fingerprint(), cs.Fingerprint)
	}
	want := combin.CountUpTo(cs.Nodes, cs.K)
	if int64(len(cs.Certs)) != want {
		return fmt.Errorf("verify: %d certificates, want %d (one per fault set of size ≤ %d)",
			len(cs.Certs), want, cs.K)
	}
	seen := make(map[string]bool, len(cs.Certs))
	faults := bitset.New(cs.Nodes)
	chk := graph.NewChecker(g)
	for i, c := range cs.Certs {
		ref := cs.certRef(i, c.Faults)
		if len(c.Faults) > cs.K {
			return fmt.Errorf("verify: %s has %d faults > k", ref, len(c.Faults))
		}
		faults.Clear()
		for _, v := range c.Faults {
			if v < 0 || v >= cs.Nodes {
				return fmt.Errorf("verify: %s: fault %d out of range", ref, v)
			}
			if faults.Contains(v) {
				return fmt.Errorf("verify: %s: duplicate fault %d", ref, v)
			}
			faults.Add(v)
		}
		key := faults.String()
		if seen[key] {
			return fmt.Errorf("verify: duplicate certificate for %s", ref)
		}
		seen[key] = true
		if err := chk.Pipeline(faults, graph.Path(c.Pipeline)); err != nil {
			return fmt.Errorf("verify: %s: %w", ref, err)
		}
	}
	return nil
}

// certRef locates one certificate for error messages: its index, the
// decoded fault set, and — when the set is a well-formed strictly-
// increasing subset — its lexicographic rank within its size class, so
// the failing entry can be found again without the certificate file (an
// Exhaustive sweep and a fleet shard both address that rank directly).
func (cs *CertificateSet) certRef(i int, set []int) string {
	sorted := true
	for j, v := range set {
		if v < 0 || v >= cs.Nodes || (j > 0 && v <= set[j-1]) {
			sorted = false
			break
		}
	}
	if !sorted {
		return fmt.Sprintf("certificate %d (malformed fault set %v)", i, set)
	}
	return fmt.Sprintf("certificate %d (size %d rank %d, fault set %v)",
		i, len(set), combin.Rank(cs.Nodes, set), set)
}

// Write streams the certificate set as JSON.
func (cs *CertificateSet) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(cs)
}

// ReadCertificates decodes a certificate set written by Write.
func ReadCertificates(r io.Reader) (*CertificateSet, error) {
	var cs CertificateSet
	if err := json.NewDecoder(r).Decode(&cs); err != nil {
		return nil, fmt.Errorf("verify: decoding certificates: %w", err)
	}
	return &cs, nil
}
