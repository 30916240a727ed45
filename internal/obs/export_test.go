package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func populated() *Registry {
	r := NewRegistry()
	r.SetEnabled(true)
	r.Counter("frames_total").Add(128)
	r.Counter("repairs_total", L("tactic", "splice")).Add(2)
	r.Counter("repairs_total", L("tactic", "rewire")).Add(1)
	r.Gauge("procs_in_use").Set(11)
	h := r.Histogram("frame_latency_ns")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000)
	}
	return r
}

func TestWritePrometheus(t *testing.T) {
	r := populated()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE frames_total counter",
		"frames_total 128",
		`repairs_total{tactic="splice"} 2`,
		`repairs_total{tactic="rewire"} 1`,
		"# TYPE procs_in_use gauge",
		"procs_in_use 11",
		"# TYPE frame_latency_ns summary",
		`frame_latency_ns{quantile="0.5"}`,
		`frame_latency_ns{quantile="0.99"}`,
		"frame_latency_ns_count 100",
		"frame_latency_ns_max 100000",
		"frame_latency_ns_min 1000",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per metric family, even with multiple label sets.
	if strings.Count(out, "# TYPE repairs_total counter") != 1 {
		t.Fatalf("duplicated TYPE lines:\n%s", out)
	}
}

func TestPrometheusLabeledHistogramSuffixes(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	r.Histogram("repair_ns", L("tactic", "splice")).Observe(500)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`repair_ns{quantile="0.5",tactic="splice"}`,
		`repair_ns_count{tactic="splice"} 1`,
		`repair_ns_sum{tactic="splice"} 500`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("labeled histogram missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := populated()
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(b.String()), &s); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if s.Counters["frames_total"] != 128 {
		t.Fatalf("counters %+v", s.Counters)
	}
	if s.Counters[`repairs_total{tactic="splice"}`] != 2 {
		t.Fatalf("labeled counter lost: %+v", s.Counters)
	}
	if s.Gauges["procs_in_use"] != 11 {
		t.Fatalf("gauges %+v", s.Gauges)
	}
	hs, ok := s.Histograms["frame_latency_ns"]
	if !ok || hs.Count != 100 || hs.P50 == 0 || hs.Max != 100000 {
		t.Fatalf("histogram snapshot %+v", hs)
	}
}

func TestMetricsHandler(t *testing.T) {
	r := populated()
	srv := httptest.NewServer(r.Mux())
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return b.String()
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, "frames_total 128") ||
		!strings.Contains(metrics, `frame_latency_ns{quantile="0.5"}`) {
		t.Fatalf("/metrics:\n%s", metrics)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics?format=json")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["frames_total"] != 128 {
		t.Fatalf("json metrics %+v", snap.Counters)
	}
}
