package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(2.5)
	c.Add(-10) // ignored
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(42)
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Fatalf("gauge = %v", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0.5, 2, 3, 7, 20} {
		h.Observe(v)
	}
	count, mean, min, max := h.Summary()
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
	if mean != 6.5 {
		t.Fatalf("mean = %v", mean)
	}
	if min != 0.5 || max != 20 {
		t.Fatalf("min/max = %v/%v", min, max)
	}
	// Median falls in the (1, 5] bucket -> midpoint 3.
	if q := h.Quantile(0.5); q != 3 {
		t.Fatalf("p50 = %v", q)
	}
	if q := h.Quantile(1.0); q != 20 {
		t.Fatalf("p100 = %v", q)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram([]float64{1})
	if c, _, _, _ := h.Summary(); c != 0 {
		t.Fatal("empty histogram count != 0")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
}

func TestHistogramQuantileZeroBounds(t *testing.T) {
	// Regression: with no bounds the single overflow bucket satisfies both
	// switch arms, and taking the i == 0 arm indexed into the empty bounds
	// slice and panicked.
	h := NewHistogram(nil)
	for _, v := range []float64{2, 4, 8} {
		h.Observe(v)
	}
	if q := h.Quantile(0.5); q != 8 {
		t.Fatalf("p50 = %v, want maxSeen 8", q)
	}
	if q := h.Quantile(1.0); q != 8 {
		t.Fatalf("p100 = %v, want maxSeen 8", q)
	}
	// Same shape via an empty (non-nil) bounds slice.
	h2 := NewHistogram([]float64{})
	h2.Observe(1.5)
	if q := h2.Quantile(0.9); q != 1.5 {
		t.Fatalf("p90 = %v, want 1.5", q)
	}
}

func TestSeriesRing(t *testing.T) {
	s := NewSeries("current", 3)
	for i := 0; i < 5; i++ {
		s.Append(time.Duration(i)*time.Second, float64(i*10))
	}
	pts := s.Points(0, 0)
	if len(pts) != 3 {
		t.Fatalf("retained %d", len(pts))
	}
	if pts[0].V != 20 || pts[2].V != 40 {
		t.Fatalf("ring contents: %+v", pts)
	}
}

func TestSeriesWindowFilter(t *testing.T) {
	s := NewSeries("x", 100)
	for i := 0; i < 10; i++ {
		s.Append(time.Duration(i)*time.Second, float64(i))
	}
	pts := s.Points(3*time.Second, 6*time.Second)
	if len(pts) != 3 || pts[0].V != 3 || pts[2].V != 5 {
		t.Fatalf("window filter: %+v", pts)
	}
}

func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter identity")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("gauge identity")
	}
	if r.Histogram("h", []float64{1}) != r.Histogram("h", []float64{1}) {
		t.Fatal("histogram identity")
	}
	if r.Series("s", 10) != r.Series("s", 99) {
		t.Fatal("series identity")
	}
	names := r.SeriesNames()
	if len(names) != 1 || names[0] != "s" {
		t.Fatalf("SeriesNames = %v", names)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("reports").Add(10)
	r.Gauge("connected").Set(4)
	snap := r.Snapshot()
	if snap.Counters["reports"] != 10 || snap.Gauges["connected"] != 4 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("reports").Add(7)
	s := r.Series("net1.current_ma", 100)
	s.Append(time.Second, 80)
	s.Append(2*time.Second, 85)
	srv := httptest.NewServer(NewMux(r, nil, nil))
	defer srv.Close()

	// /metrics
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Counters["reports"] != 7 {
		t.Fatalf("metrics endpoint: %+v", snap)
	}

	// /series
	resp, err = srv.Client().Get(srv.URL + "/series")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(names) != 1 || names[0] != "net1.current_ma" {
		t.Fatalf("series endpoint: %v", names)
	}

	// /series/query
	resp, err = srv.Client().Get(srv.URL + "/series/query?name=net1.current_ma")
	if err != nil {
		t.Fatal(err)
	}
	var pts []Point
	if err := json.NewDecoder(resp.Body).Decode(&pts); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(pts) != 2 || pts[1].V != 85 {
		t.Fatalf("query endpoint: %+v", pts)
	}

	// Window-limited query.
	resp, err = srv.Client().Get(srv.URL + "/series/query?name=net1.current_ma&from=1500000000&to=3000000000")
	if err != nil {
		t.Fatal(err)
	}
	pts = nil
	json.NewDecoder(resp.Body).Decode(&pts)
	resp.Body.Close()
	if len(pts) != 1 || pts[0].V != 85 {
		t.Fatalf("windowed query: %+v", pts)
	}

	// Unknown series: 404.
	resp, err = srv.Client().Get(srv.URL + "/series/query?name=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown series status = %d", resp.StatusCode)
	}
}

func TestWriteCSV(t *testing.T) {
	a := NewSeries("dev1_ma", 10)
	b := NewSeries("dev2_ma", 10)
	a.Append(time.Second, 80)
	a.Append(2*time.Second, 81)
	b.Append(2*time.Second, 45)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines: %v", lines)
	}
	if lines[0] != "t_seconds,dev1_ma,dev2_ma" {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1.000,80.0000,") {
		t.Fatalf("row 1: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "2.000,81.0000,45.0000") {
		t.Fatalf("row 2: %q", lines[2])
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(j))
				r.Histogram("h", []float64{10, 100}).Observe(float64(j))
				r.Series("s", 64).Append(time.Duration(j), float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %v", got)
	}
	if c, _, _, _ := r.Histogram("h", []float64{10, 100}).Summary(); c != 8000 {
		t.Fatalf("concurrent histogram count = %v", c)
	}
}

func TestHistogramBoundsMismatchPanics(t *testing.T) {
	// Regression: re-registering a histogram with different bounds used to
	// silently return the existing instrument, answering quantile queries
	// from the wrong buckets.
	r := NewRegistry()
	r.Histogram("lat", []float64{1, 5, 10})
	// Order-insensitive: the bounds are canonicalized before comparison.
	r.Histogram("lat", []float64{10, 1, 5})
	defer func() {
		if recover() == nil {
			t.Fatal("bounds mismatch did not panic")
		}
	}()
	r.Histogram("lat", []float64{1, 5})
}

func TestShardedCounter(t *testing.T) {
	var c ShardedCounter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc(w)
			}
			c.Add(w, 5)
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != 8*1005 {
		t.Fatalf("sharded counter = %v", got)
	}
	// Hints far beyond the stripe count (and negative-looking after int
	// conversion) must still land on a stripe.
	c.Inc(1 << 30)
	if got := c.Value(); got != 8*1005+1 {
		t.Fatalf("wide-hint value = %v", got)
	}
}

func TestCounterFractionalAndIntParts(t *testing.T) {
	var c Counter
	c.AddInt(10)
	c.Add(0.25)
	c.Add(2)
	if got := c.Value(); got != 12.25 {
		t.Fatalf("counter = %v", got)
	}
}

func TestGaugeAdd(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-2.5)
	g.Add(1)
	if got := g.Value(); got != 8.5 {
		t.Fatalf("gauge = %v", got)
	}
}

func TestSeriesLazyGrowth(t *testing.T) {
	// Fleet-scale registries hold tens of thousands of mostly-idle device
	// series; the ring must not preallocate its full capacity.
	s := NewSeries("big", 100000)
	if len(s.buf) != 0 {
		t.Fatalf("fresh series allocated %d points", len(s.buf))
	}
	for i := 0; i < 40; i++ {
		s.Append(time.Duration(i), float64(i))
	}
	if len(s.buf) >= 100000 {
		t.Fatalf("series grew to full capacity after 40 points: %d", len(s.buf))
	}
	pts := s.Points(0, 0)
	if len(pts) != 40 || pts[0].V != 0 || pts[39].V != 39 {
		t.Fatalf("lazy-grown series contents: %d points", len(pts))
	}
}

func TestSeriesRingEvictionAfterGrowth(t *testing.T) {
	s := NewSeries("ring", 20)
	for i := 0; i < 50; i++ {
		s.Append(time.Duration(i), float64(i))
	}
	pts := s.Points(0, 0)
	if len(pts) != 20 {
		t.Fatalf("retained %d", len(pts))
	}
	for i, p := range pts {
		if p.V != float64(30+i) {
			t.Fatalf("eviction order: pts[%d] = %v", i, p.V)
		}
	}
}

func TestWriteCSVEmptyCellsAndEviction(t *testing.T) {
	// Series with disjoint timestamps render empty cells, and a series
	// whose ring has evicted early points only contributes what it retains.
	a := NewSeries("a", 2)
	b := NewSeries("b", 10)
	a.Append(1*time.Second, 1)
	a.Append(2*time.Second, 2)
	a.Append(3*time.Second, 3) // evicts t=1
	b.Append(1*time.Second, 10)
	b.Append(4*time.Second, 40)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := []string{
		"t_seconds,a,b",
		"1.000,,10.0000", // a's t=1 evicted -> empty cell
		"2.000,2.0000,",  // b has no point at t=2
		"3.000,3.0000,",
		"4.000,,40.0000",
	}
	if len(lines) != len(want) {
		t.Fatalf("csv lines: %v", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestConcurrentSeriesAppendVsPoints(t *testing.T) {
	// Exercised under -race in CI: readers snapshotting the ring while
	// writers append and the buffer grows.
	s := NewSeries("hot", 64)
	var writers sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				s.Append(time.Duration(w*2000+i), float64(i))
			}
		}(w)
	}
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				if pts := s.Points(0, 0); len(pts) > 64 {
					t.Error("ring over capacity")
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone
	if pts := s.Points(0, 0); len(pts) != 64 {
		t.Fatalf("retained %d after 8000 appends", len(pts))
	}
}

func TestInstrumentsAllocFree(t *testing.T) {
	// The observability plane's whole premise: nothing on the observe path
	// allocates. Guarded here instrument by instrument; the composed
	// report-path guard lives in the root bench suite.
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	sc := r.ShardedCounter("sc")
	h := r.Histogram("h", []float64{1, 10, 100, 1000})
	tr := NewTracer(r, 1024)
	checks := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.AddInt", func() { c.AddInt(3) }},
		{"Counter.Add", func() { c.Add(1.5) }},
		{"Gauge.Set", func() { g.Set(4) }},
		{"Gauge.Add", func() { g.Add(-1) }},
		{"ShardedCounter.Inc", func() { sc.Inc(3) }},
		{"ShardedCounter.Add", func() { sc.Add(7, 2) }},
		{"Histogram.Observe", func() { h.Observe(42) }},
		{"Tracer.Sample unsampled", func() { tr.Sample() }},
		{"Tracer.Active", func() { tr.Active() }},
		{"Tracer.ObserveStage no journeys", func() { tr.ObserveStage(StageShardIngest, time.Time{}, time.Microsecond) }},
	}
	for _, chk := range checks {
		if allocs := testing.AllocsPerRun(200, chk.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", chk.name, allocs)
		}
	}
}
