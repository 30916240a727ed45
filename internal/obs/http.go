package obs

import (
	"net/http"
	"net/http/pprof"
)

// MetricsHandler serves the Prometheus text exposition at any path it is
// mounted on (conventionally /metrics).
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// MuxOption extends the mux returned by Mux. Options exist so higher
// layers (the span tracer, the SLO health document, pprof) can mount
// handlers without this package importing them — obs must stay at the
// bottom of the dependency graph.
type MuxOption func(*http.ServeMux)

// WithPprof mounts the net/http/pprof handlers under /debug/pprof/.
// Opt-in (the CLIs gate it behind a -pprof flag): profiling endpoints on
// a metrics port are a surprise in production.
func WithPprof() MuxOption {
	return func(mux *http.ServeMux) {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// WithHandler mounts an arbitrary handler at the given pattern (the span
// tracer's /debug/spans, the SLO layer's /slo).
func WithHandler(pattern string, h http.Handler) MuxOption {
	return func(mux *http.ServeMux) { mux.Handle(pattern, h) }
}

// Mux returns a ServeMux with /metrics mounted — what
// `gdpsim -metrics-addr` serves — plus whatever the options add.
func (r *Registry) Mux(opts ...MuxOption) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.MetricsHandler())
	for _, opt := range opts {
		opt(mux)
	}
	return mux
}
