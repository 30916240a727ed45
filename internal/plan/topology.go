// Package plan is the planner layer of the multi-tenant control plane:
// it compiles declarative tenant topologies (stages + SLO class + share
// weights, loaded from JSON) into placement plans over one shared
// construct.Solution pool. The planner keeps the single global healthy
// pipeline for the current fault set in a reconfig.Manager, which repairs
// it locally (splice, rewire, endpoint swap, insert) and falls back to its
// memo-warm solver only when no local tactic applies, and carves its
// interior into contiguous per-tenant segments. Each segment is therefore
// a Hamiltonian path of its placement by construction — the per-tenant
// graceful-degradation guarantee is inherited from the paper's global one
// rather than re-proved per tenant.
//
// The planner is pure policy: it never touches engines or frames. The
// executor (internal/control) turns plans into running pipeline.Stream
// engines and routes pool faults back here for a coordinated replan.
package plan

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"gdpn/internal/stages"
)

// Class is a tenant's SLO class. Admission control sheds strictly in
// class order: Bronze tenants are shed before Silver before Gold, and
// Bronze traffic is the only class allowed to drop frames under
// backpressure (the executor uses TrySubmit for Bronze).
type Class int

const (
	Gold Class = iota
	Silver
	Bronze
)

// ParseClass converts a topology-file class name to a Class.
func ParseClass(s string) (Class, error) {
	switch strings.ToLower(s) {
	case "gold":
		return Gold, nil
	case "silver":
		return Silver, nil
	case "bronze":
		return Bronze, nil
	}
	return 0, fmt.Errorf("plan: unknown SLO class %q (want gold, silver, or bronze)", s)
}

func (c Class) String() string {
	switch c {
	case Gold:
		return "gold"
	case Silver:
		return "silver"
	case Bronze:
		return "bronze"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// MarshalJSON emits the lowercase class name.
func (c Class) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// UnmarshalJSON accepts the class name, case-insensitively.
func (c *Class) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParseClass(s)
	if err != nil {
		return err
	}
	*c = v
	return nil
}

// PoolSpec declares the shared processor pool: a G(n,k) fault-tolerant
// design with n logical processors and tolerance for k faults.
type PoolSpec struct {
	N int `json:"n"`
	K int `json:"k"`
}

// Upper bounds on the topology fields that size an up-front allocation,
// so that a hostile or mistyped file is rejected instead of asking for
// terabytes. Each is far above any useful value.
const (
	// MaxWindow bounds a moving_average window: Build allocates one tap
	// per sample of it, and every frame costs window multiplies per sample.
	MaxWindow = 1 << 16
	// MaxFrameSamples bounds a tenant's frame_samples, the length of every
	// frame buffer its producer leases (8 MiB of float64 at the bound).
	MaxFrameSamples = 1 << 20
	// MaxPendingBound bounds a tenant's max_pending, which sizes its
	// stream's output channel and buffer free lists.
	MaxPendingBound = 1 << 16
)

// StageSpec declares one signal-processing stage. Kind selects the stage;
// the other fields are kind-specific parameters (zero values fall back to
// the kind's default).
type StageSpec struct {
	// Kind is one of: subsample, rescale, fir, moving_average, quantize,
	// lz78.
	Kind string `json:"kind"`
	// Factor is the subsample decimation factor (default 2).
	Factor int `json:"factor,omitempty"`
	// Gain/Offset parameterize rescale (default gain 1).
	Gain   float64 `json:"gain,omitempty"`
	Offset float64 `json:"offset,omitempty"`
	// Coeffs are the fir tap coefficients.
	Coeffs []float64 `json:"coeffs,omitempty"`
	// Window is the moving_average window length (default 4).
	Window int `json:"window,omitempty"`
	// Min/Max/Levels parameterize quantize (default -16..16, 256).
	Min    float64 `json:"min,omitempty"`
	Max    float64 `json:"max,omitempty"`
	Levels int     `json:"levels,omitempty"`
	// Dict is the lz78 dictionary bound (default 4096).
	Dict int `json:"dict,omitempty"`
}

// Build instantiates the stage. Each call returns a fresh instance:
// stateful stages (fir, lz78) must never be shared between tenants.
func (s StageSpec) Build() (stages.Stage, error) {
	switch strings.ToLower(s.Kind) {
	case "subsample":
		f := s.Factor
		if f == 0 {
			f = 2
		}
		if f < 1 {
			return nil, fmt.Errorf("plan: subsample factor %d < 1", f)
		}
		return stages.NewSubsample(f), nil
	case "rescale":
		g := s.Gain
		if g == 0 {
			g = 1
		}
		return &stages.Rescale{Gain: g, Offset: s.Offset}, nil
	case "fir":
		if len(s.Coeffs) == 0 {
			return nil, fmt.Errorf("plan: fir stage needs coeffs")
		}
		return stages.NewFIR(append([]float64(nil), s.Coeffs...)), nil
	case "moving_average":
		w := s.Window
		if w == 0 {
			w = 4
		}
		if w < 1 || w > MaxWindow {
			return nil, fmt.Errorf("plan: moving_average window %d not in 1..%d", w, MaxWindow)
		}
		return stages.NewMovingAverage(w), nil
	case "quantize":
		lo, hi, lv := s.Min, s.Max, s.Levels
		if lo == 0 && hi == 0 {
			lo, hi = -16, 16
		}
		if lv == 0 {
			lv = 256
		}
		if hi <= lo || lv < 2 {
			return nil, fmt.Errorf("plan: quantize wants min < max and levels >= 2 (got %g..%g, %d)", lo, hi, lv)
		}
		return stages.NewQuantize(lo, hi, lv), nil
	case "lz78":
		d := s.Dict
		if d == 0 {
			d = 4096
		}
		if d < 2 {
			return nil, fmt.Errorf("plan: lz78 dict %d < 2", d)
		}
		return stages.NewLZ78(d), nil
	}
	return nil, fmt.Errorf("plan: unknown stage kind %q", s.Kind)
}

// DefaultStages is the stage chain used when a tenant declares none: the
// paper's full video chain (subsample, rescale, FIR, quantize, LZ78).
func DefaultStages() []StageSpec {
	return []StageSpec{
		{Kind: "subsample", Factor: 2},
		{Kind: "rescale", Gain: 1.5, Offset: 0.1},
		{Kind: "fir", Coeffs: []float64{0.25, 0.5, 0.25}},
		{Kind: "quantize", Min: -16, Max: 16, Levels: 256},
		{Kind: "lz78", Dict: 4096},
	}
}

// TenantSpec declares one tenant pipeline.
type TenantSpec struct {
	// Name labels the tenant in metrics, spans, and reports. Required,
	// unique.
	Name string `json:"name"`
	// Class is the SLO class (default gold).
	Class Class `json:"class"`
	// Weight is the tenant's share of pool capacity beyond the MinProcs
	// floors, distributed by largest remainder (default 1).
	Weight int `json:"weight,omitempty"`
	// MinProcs is the smallest placement the tenant accepts; a plan that
	// cannot grant it sheds the tenant instead (default 1).
	MinProcs int `json:"min_procs,omitempty"`
	// FrameSamples is the tenant's frame size in samples (default 256).
	FrameSamples int `json:"frame_samples,omitempty"`
	// MaxPending bounds the tenant stream's submit backlog (default 64).
	MaxPending int `json:"max_pending,omitempty"`
	// Budget is the tenant's solver-expansion budget: coordinated-replan
	// search work is charged against it, and an exhausted tenant is shed.
	// 0 = unlimited.
	Budget int64 `json:"budget,omitempty"`
	// Stages is the tenant's stage chain (default DefaultStages).
	Stages []StageSpec `json:"stages,omitempty"`
}

// Topology is a declarative multi-tenant deployment: one shared pool and
// the tenants packed onto it, in priority order of declaration (earlier
// tenants win admission ties within a class).
type Topology struct {
	Pool    PoolSpec     `json:"pool"`
	Tenants []TenantSpec `json:"tenants"`
}

// Load reads and validates a topology JSON file.
func Load(path string) (*Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	return Parse(data)
}

// Parse decodes and validates a topology from JSON bytes.
func Parse(data []byte) (*Topology, error) {
	var t Topology
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("plan: parsing topology: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Validate checks the topology's static invariants and fills defaults in
// place: every tenant gets a name-unique spec with positive weight, floor,
// frame size and backlog bound (the last two at most MaxFrameSamples and
// MaxPendingBound), and a buildable stage chain.
func (t *Topology) Validate() error {
	if t.Pool.N < 1 || t.Pool.K < 0 {
		return fmt.Errorf("plan: pool wants n >= 1, k >= 0 (got n=%d k=%d)", t.Pool.N, t.Pool.K)
	}
	if len(t.Tenants) == 0 {
		return fmt.Errorf("plan: topology declares no tenants")
	}
	seen := make(map[string]bool, len(t.Tenants))
	for i := range t.Tenants {
		ten := &t.Tenants[i]
		if ten.Name == "" {
			return fmt.Errorf("plan: tenant %d has no name", i)
		}
		if seen[ten.Name] {
			return fmt.Errorf("plan: duplicate tenant name %q", ten.Name)
		}
		seen[ten.Name] = true
		if ten.Class < Gold || ten.Class > Bronze {
			return fmt.Errorf("plan: tenant %q has invalid class", ten.Name)
		}
		if ten.Weight == 0 {
			ten.Weight = 1
		}
		if ten.Weight < 0 {
			return fmt.Errorf("plan: tenant %q has negative weight", ten.Name)
		}
		if ten.MinProcs == 0 {
			ten.MinProcs = 1
		}
		if ten.MinProcs < 1 {
			return fmt.Errorf("plan: tenant %q wants min_procs >= 1", ten.Name)
		}
		if ten.FrameSamples == 0 {
			ten.FrameSamples = 256
		}
		if ten.FrameSamples < 1 || ten.FrameSamples > MaxFrameSamples {
			return fmt.Errorf("plan: tenant %q wants frame_samples in 1..%d", ten.Name, MaxFrameSamples)
		}
		if ten.MaxPending == 0 {
			ten.MaxPending = 64
		}
		if ten.MaxPending < 1 || ten.MaxPending > MaxPendingBound {
			return fmt.Errorf("plan: tenant %q wants max_pending in 1..%d", ten.Name, MaxPendingBound)
		}
		if ten.Budget < 0 {
			return fmt.Errorf("plan: tenant %q has negative budget", ten.Name)
		}
		if len(ten.Stages) == 0 {
			ten.Stages = DefaultStages()
		}
		for j, ss := range ten.Stages {
			if _, err := ss.Build(); err != nil {
				return fmt.Errorf("plan: tenant %q stage %d: %w", ten.Name, j, err)
			}
		}
	}
	return nil
}

// BuildStages instantiates a fresh copy of the tenant's stage chain.
func (t *TenantSpec) BuildStages() ([]stages.Stage, error) {
	out := make([]stages.Stage, len(t.Stages))
	for i, ss := range t.Stages {
		st, err := ss.Build()
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}
