// HTTP surface: the registry handler (/metrics in JSON and Prometheus text
// exposition, /series, /series/query), the tracer handler (/trace/spans),
// liveness checks (/healthz) and the pprof mount — everything meterd
// -telemetry serves.
package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

func (r *Registry) serveMetrics(w http.ResponseWriter, req *http.Request) {
	format := req.URL.Query().Get("format")
	if format == "prometheus" || strings.Contains(req.Header.Get("Accept"), "text/plain") {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePrometheus(w, r.Snapshot())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(r.Snapshot())
}

func (r *Registry) serveSeriesQuery(w http.ResponseWriter, req *http.Request) {
	name := req.URL.Query().Get("name")
	s, ok := r.lookupSeries(name)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown series %q", name), http.StatusNotFound)
		return
	}
	from, err := parseNs(req.URL.Query().Get("from"))
	if err != nil {
		http.Error(w, fmt.Sprintf("bad from: %v", err), http.StatusBadRequest)
		return
	}
	to, err := parseNs(req.URL.Query().Get("to"))
	if err != nil {
		http.Error(w, fmt.Sprintf("bad to: %v", err), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Points(from, to))
}

// parseNs parses an integer nanosecond offset; empty means "unset" (0).
func parseNs(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	return time.Duration(v), nil
}

// promName rewrites an instrument name into the Prometheus exposition
// alphabet: [a-zA-Z0-9_:], everything else (dots in particular) becomes an
// underscore.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// writePrometheus renders a snapshot as Prometheus text exposition format
// version 0.0.4.
func writePrometheus(w http.ResponseWriter, snap Snapshot) {
	for _, name := range sortedKeys(snap.Counters) {
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %v\n", pn, pn, snap.Counters[name])
	}
	for _, name := range sortedKeys(snap.Gauges) {
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %v\n", pn, pn, snap.Gauges[name])
	}
	for _, name := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[name]
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s summary\n", pn)
		fmt.Fprintf(w, "%s{quantile=\"0.5\"} %v\n", pn, h.P50)
		fmt.Fprintf(w, "%s{quantile=\"0.95\"} %v\n", pn, h.P95)
		fmt.Fprintf(w, "%s{quantile=\"0.99\"} %v\n", pn, h.P99)
		fmt.Fprintf(w, "%s_sum %v\n", pn, h.Mean*float64(h.Count))
		fmt.Fprintf(w, "%s_count %d\n", pn, h.Count)
	}
}

// Health aggregates named liveness checks into one /healthz verdict.
type Health struct {
	mu     sync.Mutex
	names  []string
	checks map[string]func() error
}

// NewHealth creates an empty check set (which reports healthy).
func NewHealth() *Health {
	return &Health{checks: make(map[string]func() error)}
}

// Register adds (or replaces) a named check. fn returns nil when healthy.
func (h *Health) Register(name string, fn func() error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.checks[name]; !ok {
		h.names = append(h.names, name)
	}
	h.checks[name] = fn
}

// healthReport is the /healthz payload.
type healthReport struct {
	Status string            `json:"status"`
	Checks map[string]string `json:"checks"`
}

// Handler serves the check set: 200 {"status":"ok"} when every check
// passes, 503 with the failing checks' errors otherwise.
func (h *Health) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		h.mu.Lock()
		names := append([]string(nil), h.names...)
		checks := make(map[string]func() error, len(h.checks))
		for n, fn := range h.checks {
			checks[n] = fn
		}
		h.mu.Unlock()

		rep := healthReport{Status: "ok", Checks: make(map[string]string, len(names))}
		code := http.StatusOK
		for _, n := range names {
			if err := checks[n](); err != nil {
				rep.Checks[n] = err.Error()
				rep.Status = "unhealthy"
				code = http.StatusServiceUnavailable
			} else {
				rep.Checks[n] = "ok"
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(rep)
	})
}

// NewMux assembles the full -telemetry surface: the registry endpoints
//
//	GET /metrics                             -> Snapshot JSON
//	GET /metrics?format=prometheus           -> Prometheus text exposition
//	GET /series                              -> ["name", ...]
//	GET /series/query?name=N[&from=ns&to=ns] -> [{t_ns, v}, ...]
//
// (malformed from/to values are a client error (400), not an open window),
// /trace/spans (when a tracer is given), /healthz (when a health set is
// given; absent checks still answer 200), and net/http/pprof under
// /debug/pprof/. Nil registry serves an empty one.
func NewMux(r *Registry, t *Tracer, h *Health) *http.ServeMux {
	if r == nil {
		r = NewRegistry()
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", http.HandlerFunc(r.serveMetrics))
	mux.HandleFunc("/series", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(r.SeriesNames())
	})
	mux.HandleFunc("/series/query", r.serveSeriesQuery)
	mux.HandleFunc("/trace/spans", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(t.TraceSnapshot())
	})
	if h == nil {
		h = NewHealth()
	}
	mux.Handle("/healthz", h.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
