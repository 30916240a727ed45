package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// WritePrometheus renders every instrument in Prometheus text exposition
// format (version 0.0.4). Counters and gauges print as-is; histograms
// print as summaries with quantile labels plus _sum, _count, _min and
// _max series. Latency series record nanoseconds (the `_ns` suffix in
// the metric names documents the unit).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	counters := sortedKeys(r.counters)
	gauges := sortedKeys(r.gauges)
	histograms := sortedKeys(r.histograms)
	cm, gm, hm := r.counters, r.gauges, r.histograms
	r.mu.Unlock()

	typed := map[string]bool{}
	for _, k := range counters {
		c := cm[k]
		if !typed[c.name] {
			typed[c.name] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", c.name); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", key(c.name, c.labels), c.Value()); err != nil {
			return err
		}
	}
	for _, k := range gauges {
		g := gm[k]
		if !typed[g.name] {
			typed[g.name] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", g.name); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", key(g.name, g.labels), g.Value()); err != nil {
			return err
		}
	}
	for _, k := range histograms {
		h := hm[k]
		s := h.Snapshot()
		if !typed[h.name] {
			typed[h.name] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s summary\n", h.name); err != nil {
				return err
			}
		}
		for _, q := range []struct {
			label string
			v     int64
		}{{"0.5", s.P50}, {"0.9", s.P90}, {"0.99", s.P99}} {
			name := key(h.name, sortLabels(append(append([]Label(nil), h.labels...), L("quantile", q.label))))
			if _, err := fmt.Fprintf(w, "%s %d\n", name, q.v); err != nil {
				return err
			}
		}
		base := key(h.name, h.labels)
		suffix := func(sfx string) string {
			if i := strings.IndexByte(base, '{'); i >= 0 {
				return base[:i] + sfx + base[i:]
			}
			return base + sfx
		}
		for _, line := range []struct {
			sfx string
			v   int64
		}{{"_sum", s.Sum}, {"_count", s.Count}, {"_min", s.Min}, {"_max", s.Max}} {
			if _, err := fmt.Fprintf(w, "%s %d\n", suffix(line.sfx), line.v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Snapshot is the JSON-exportable point-in-time view of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every instrument value. Keys are the canonical
// instrument identities (name plus labels).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range r.histograms {
		s.Histograms[k] = h.Snapshot()
	}
	return s
}

// WriteJSON renders the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
