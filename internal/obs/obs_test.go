package obs

import (
	"sync"
	"testing"
)

func TestDisabledRegistryIsNoOp(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	g := r.Gauge("g")
	h := r.Histogram("h_ns")
	c.Inc()
	g.Set(7)
	h.Observe(100)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatalf("disabled registry recorded observations: c=%d g=%d h=%d",
			c.Value(), g.Value(), h.Count())
	}
}

func TestEnabledRegistryRecords(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	if !r.Enabled() {
		t.Fatal("SetEnabled(true) not visible")
	}
	c := r.Counter("c_total")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestInstrumentIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", L("tactic", "splice"))
	b := r.Counter("x_total", L("tactic", "splice"))
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	c := r.Counter("x_total", L("tactic", "rewire"))
	if a == c {
		t.Fatal("distinct labels share a counter")
	}
	// Label order must not matter.
	h1 := r.Histogram("h", L("b", "2"), L("a", "1"))
	h2 := r.Histogram("h", L("a", "1"), L("b", "2"))
	if h1 != h2 {
		t.Fatal("label order changed instrument identity")
	}
}

func TestKeyRendering(t *testing.T) {
	got := key("repairs_total", []Label{L("tactic", "splice")})
	want := `repairs_total{tactic="splice"}`
	if got != want {
		t.Fatalf("key = %q, want %q", got, want)
	}
	if key("plain", nil) != "plain" {
		t.Fatalf("unlabeled key = %q", key("plain", nil))
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	c := r.Counter("c_total")
	h := r.Histogram("h_ns")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("c=%d h=%d, want 8000 each", c.Value(), h.Count())
	}
}

func TestResetPreservesEnabledState(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	c := r.Counter("c_total")
	h := r.Histogram("h_ns")
	c.Inc()
	h.Observe(5)
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 || h.Max() != 0 {
		t.Fatal("Reset left state behind")
	}
	if !r.Enabled() {
		t.Fatal("Reset flipped enabled state")
	}
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("instrument dead after Reset")
	}
}

func TestDefaultRegistryIsShared(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default not a singleton")
	}
	if Default().Enabled() {
		t.Fatal("Default must start disabled")
	}
}

func BenchmarkCounterDisabled(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("c_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	r := NewRegistry()
	r.SetEnabled(true)
	c := r.Counter("c_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserveEnabled(b *testing.B) {
	r := NewRegistry()
	r.SetEnabled(true)
	h := r.Histogram("h_ns")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
