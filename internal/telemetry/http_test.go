package telemetry

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestHandlerRoutes covers every Registry.Handler route, including the
// malformed-range regression: /series/query used to coerce unparseable
// from/to to 0 and silently serve the full window.
func TestHandlerRoutes(t *testing.T) {
	r := NewRegistry()
	r.Counter("reports").AddInt(3)
	r.Gauge("sessions").Set(2)
	r.Histogram("lat_us", []float64{10, 100}).Observe(42)
	s := r.Series("net1.ma", 16)
	s.Append(time.Second, 80)
	s.Append(2*time.Second, 85)
	srv := httptest.NewServer(NewMux(r, nil, nil))
	defer srv.Close()

	code, body := get(t, srv.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["reports"] != 3 || snap.Gauges["sessions"] != 2 {
		t.Fatalf("metrics: %+v", snap)
	}
	if h := snap.Histograms["lat_us"]; h.Count != 1 || h.P50 != 55 {
		t.Fatalf("histogram summary: %+v", h)
	}

	code, body = get(t, srv.URL+"/series")
	if code != 200 || !strings.Contains(body, "net1.ma") {
		t.Fatalf("/series = %d %q", code, body)
	}

	code, body = get(t, srv.URL+"/series/query?name=net1.ma&from=1500000000&to=3000000000")
	if code != 200 {
		t.Fatalf("query = %d", code)
	}
	var pts []Point
	if err := json.Unmarshal([]byte(body), &pts); err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].V != 85 {
		t.Fatalf("windowed query: %+v", pts)
	}

	if code, _ = get(t, srv.URL+"/series/query?name=nope"); code != 404 {
		t.Fatalf("unknown series = %d", code)
	}

	// Malformed ranges are a 400, not an open window.
	for _, q := range []string{
		"name=net1.ma&from=banana",
		"name=net1.ma&to=1e9",
		"name=net1.ma&from=12&to=0x10",
	} {
		code, body = get(t, srv.URL+"/series/query?"+q)
		if code != http.StatusBadRequest {
			t.Fatalf("%s = %d (%q), want 400", q, code, body)
		}
	}
}

func TestMetricsPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("agg1.reports_ingested").AddInt(7)
	r.ShardedCounter("agg1.records").Add(3, 10)
	r.Gauge("mqtt.sessions").Set(4)
	h := r.Histogram("trace.stage.window_close_us", []float64{100, 1000})
	h.Observe(50)
	h.Observe(500)
	srv := httptest.NewServer(NewMux(r, nil, nil))
	defer srv.Close()

	code, body := get(t, srv.URL+"/metrics?format=prometheus")
	if code != 200 {
		t.Fatalf("prometheus metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE agg1_reports_ingested counter\nagg1_reports_ingested 7\n",
		"agg1_records 10",
		"# TYPE mqtt_sessions gauge\nmqtt_sessions 4\n",
		"# TYPE trace_stage_window_close_us summary",
		"trace_stage_window_close_us{quantile=\"0.5\"}",
		"trace_stage_window_close_us_count 2",
		"trace_stage_window_close_us_sum 550",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("prometheus exposition missing %q in:\n%s", want, body)
		}
	}
	if strings.Contains(body, "agg1.reports") {
		t.Fatal("unsanitized metric name leaked into exposition")
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"agg1.window_close_us": "agg1_window_close_us",
		"9lives":               "_9lives",
		"a-b/c d":              "a_b_c_d",
		"ok_name:sub":          "ok_name:sub",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHealthHandler(t *testing.T) {
	h := NewHealth()
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	// No checks registered: healthy.
	code, body := get(t, srv.URL)
	if code != 200 || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("empty health = %d %q", code, body)
	}

	bad := errors.New("window grid stalled")
	healthy := true
	h.Register("window_grid", func() error {
		if healthy {
			return nil
		}
		return bad
	})
	h.Register("seal_backlog", func() error { return nil })

	code, body = get(t, srv.URL)
	if code != 200 || !strings.Contains(body, `"window_grid":"ok"`) {
		t.Fatalf("healthy = %d %q", code, body)
	}

	healthy = false
	code, body = get(t, srv.URL)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("unhealthy code = %d", code)
	}
	if !strings.Contains(body, "window grid stalled") || !strings.Contains(body, `"seal_backlog":"ok"`) {
		t.Fatalf("unhealthy body = %q", body)
	}
}

// TestNewMuxSurface drives the assembled -telemetry mux: registry routes,
// trace spans, health and pprof all mounted on one handler.
func TestNewMuxSurface(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	tr := NewTracer(r, 1)
	tr.Begin("dev1")
	tr.ObserveStage(StageShardIngest, time.Now(), 3*time.Microsecond)
	tr.ObserveStage(StageSealAttach, time.Now(), 9*time.Microsecond)
	h := NewHealth()
	h.Register("always", func() error { return nil })
	srv := httptest.NewServer(NewMux(r, tr, h))
	defer srv.Close()

	for path, want := range map[string]string{
		"/metrics":     `"c":1`,
		"/series":      "[]",
		"/trace/spans": `"stage":"seal_attach"`,
		"/healthz":     `"always":"ok"`,
	} {
		code, body := get(t, srv.URL+path)
		if code != 200 {
			t.Fatalf("%s = %d", path, code)
		}
		if !strings.Contains(body, want) {
			t.Fatalf("%s missing %q: %q", path, want, body)
		}
	}

	var ts TraceSnapshot
	_, body := get(t, srv.URL+"/trace/spans")
	if err := json.Unmarshal([]byte(body), &ts); err != nil {
		t.Fatal(err)
	}
	if ts.SampleEvery != 1 || len(ts.Journeys) != 1 || !ts.Journeys[0].Complete {
		t.Fatalf("trace snapshot: %+v", ts)
	}

	code, body := get(t, srv.URL+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index = %d", code)
	}

	// A mux with no tracer and no health still serves the full surface.
	bare := httptest.NewServer(NewMux(nil, nil, nil))
	defer bare.Close()
	for _, path := range []string{"/metrics", "/series", "/trace/spans", "/healthz"} {
		if code, _ := get(t, bare.URL+path); code != 200 {
			t.Fatalf("bare mux %s = %d", path, code)
		}
	}
}
