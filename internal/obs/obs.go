// Package obs is the runtime's dependency-free observability layer:
// atomic counters and gauges and log-bucketed latency histograms with
// quantile estimation, all hanging off a Registry that can be enabled and
// disabled at runtime. Events (what happened, and why) are not kept here:
// they are span events on the causal span tree of package obs/span.
//
// The design constraint is that instrumentation must be free to leave in
// hot paths: every instrument holds a pointer to its registry's enabled
// flag, and when the registry is disabled each Add/Set/Observe call
// returns after a single atomic load. Call sites that would need to call
// time.Now() to produce an observation gate on Enabled() first, so a
// disabled registry costs neither clock reads nor allocations.
//
// Instruments are identified by a Prometheus-style name plus optional
// constant key/value labels; looking one up a second time returns the same
// instrument, so packages can resolve instruments at construction time and
// share them across engine instances. Exporters (Prometheus text
// exposition and a JSON snapshot, export.go) and net/http handlers
// (http.go) read a consistent point-in-time view.
//
// A process-wide Default registry, disabled by default, serves the common
// case; unit tests build private registries with NewRegistry.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry owns a set of named instruments.
type Registry struct {
	enabled atomic.Bool

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns a disabled, empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry shared by the instrumented
// packages (pipeline, reconfig, embed, faults) and the CLIs.
func Default() *Registry { return defaultRegistry }

// SetEnabled turns the registry on or off. Instruments keep their values
// across a disable/enable cycle; disabling only stops new observations.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether observations are being recorded. Hot paths use
// this to skip clock reads entirely when the registry is off.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// key renders the canonical identity of an instrument: name plus sorted
// constant labels, e.g. `repairs_total{tactic="splice"}`.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Label is one constant key/value pair attached to an instrument.
type Label struct{ Key, Value string }

// L is shorthand for building a Label.
func L(k, v string) Label { return Label{Key: k, Value: v} }

func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Counter returns the named monotonically increasing counter, creating it
// on first use. The same (name, labels) always yields the same instrument.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	labels = sortLabels(labels)
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[k]; ok {
		return c
	}
	c := &Counter{on: &r.enabled, name: name, labels: labels}
	r.counters[k] = c
	return c
}

// Gauge returns the named instantaneous-value gauge, creating it on first
// use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	labels = sortLabels(labels)
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[k]; ok {
		return g
	}
	g := &Gauge{on: &r.enabled, name: name, labels: labels}
	r.gauges[k] = g
	return g
}

// Histogram returns the named log-bucketed histogram, creating it on
// first use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	labels = sortLabels(labels)
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[k]; ok {
		return h
	}
	h := newHistogram(&r.enabled, name, labels)
	r.histograms[k] = h
	return h
}

// Reset zeroes every instrument; the enabled state
// is preserved. Meant for benchmarks and tests that reuse Default().
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.histograms {
		h.reset()
	}
}

// Counter is a monotonically increasing int64, safe for concurrent use.
type Counter struct {
	on     *atomic.Bool
	name   string
	labels []Label
	v      atomic.Int64
}

// Add increments the counter by d (no-op when the registry is disabled).
func (c *Counter) Add(d int64) {
	if !c.on.Load() {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous int64 value, safe for concurrent use.
type Gauge struct {
	on     *atomic.Bool
	name   string
	labels []Label
	v      atomic.Int64
}

// Set stores v (no-op when the registry is disabled).
func (g *Gauge) Set(v int64) {
	if !g.on.Load() {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d (no-op when the registry is disabled).
func (g *Gauge) Add(d int64) {
	if !g.on.Load() {
		return
	}
	g.v.Add(d)
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }
