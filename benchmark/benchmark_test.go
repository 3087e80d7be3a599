package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"decentmeter/internal/blockchain"
	"decentmeter/internal/protocol"
)

func TestPercentileNearestRank(t *testing.T) {
	vs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {0.5, 50}, {0.9, 90}, {0.91, 100}, {0.99, 100}, {1, 100},
	} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// One noisy second must move one slice, not the reported p90.
func TestSliceP90MedianIgnoresOneNoisySecond(t *testing.T) {
	var samples []sample
	for sec := int64(0); sec < 5; sec++ {
		for i := int64(0); i < 100; i++ {
			lat := 100 + i // p90 of a quiet slice is 189
			if sec == 2 {
				lat *= 50
			}
			samples = append(samples, sample{dueNs: sec*1e9 + i*1e6, latNs: lat})
		}
	}
	// A cut-off last slice with too few samples for a p90 is left out.
	samples = append(samples, sample{dueNs: 5e9, latNs: 1e9})
	if got := sliceP90Median(samples, 1e9); got != 189 {
		t.Errorf("sliceP90Median = %v, want 189", got)
	}
}

// The acceptance rule uses Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

// scheduleBytes renders everything a seed decides: device order, due
// offsets and the payload of the first three reports of every device.
func scheduleBytes(t *testing.T, w workload, seed uint64) []byte {
	t.Helper()
	epoch := time.Date(2020, 4, 29, 0, 0, 0, 0, time.UTC)
	var out bytes.Buffer
	devs := makeDevices(w, seed)
	ms := make([]protocol.Measurement, w.batch)
	for i := range devs {
		out.WriteString(devs[i].id)
		for k := 0; k < 3; k++ {
			due := epoch.Add(devs[i].phase + time.Duration(k)*w.period)
			ackSeq := fillReport(w, &devs[i], k, due, ms)
			if want := uint64((k + 1) * w.batch); ackSeq != want {
				t.Fatalf("report %d acks seq %d, want %d", k, ackSeq, want)
			}
			payload, err := protocol.Encode(protocol.Report{DeviceID: devs[i].id, Measurements: ms})
			if err != nil {
				t.Fatal(err)
			}
			out.WriteString(due.String())
			out.Write(payload)
		}
	}
	return out.Bytes()
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := scheduleBytes(t, w, 7), scheduleBytes(t, w, 7), scheduleBytes(t, w, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two schedules", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: two seeds gave one schedule", w.name)
		}
	}
	// Open-loop devices come in phase order; a batch is shuffled but holds
	// exactly its sequence numbers.
	w, _ := workloadByName("tail_flush")
	devs := makeDevices(w, 7)
	for i := 1; i < len(devs); i++ {
		if devs[i].phase < devs[i-1].phase {
			t.Fatalf("device %d is out of phase order", i)
		}
	}
	ms := make([]protocol.Measurement, w.batch)
	fillReport(w, &devs[0], 2, time.Unix(1600000000, 0), ms)
	seen := map[uint64]bool{}
	sorted := true
	for i, m := range ms {
		seen[m.Seq] = true
		if !m.Buffered {
			t.Fatal("a flushed tail must be flagged Buffered")
		}
		if i > 0 && m.Seq < ms[i-1].Seq {
			sorted = false
		}
	}
	for seq := uint64(129); seq <= 192; seq++ {
		if !seen[seq] {
			t.Fatalf("batch 2 lacks seq %d", seq)
		}
	}
	if sorted {
		t.Error("the batch was not shuffled")
	}
}

func TestAuditFindsMissingAndDuplicatedRecords(t *testing.T) {
	signer, err := blockchain.NewSigner(aggID)
	if err != nil {
		t.Fatal(err)
	}
	auth := blockchain.NewAuthority()
	if err := auth.Admit(aggID, signer.Public()); err != nil {
		t.Fatal(err)
	}
	chain := blockchain.NewChain(auth)
	rec := func(dev string, seq uint64) blockchain.Record {
		return blockchain.Record{DeviceID: dev, Seq: seq, HomeAggregator: aggID, ReportedVia: aggID}
	}
	// a: 3 never sealed. b: 1 sealed twice, across blocks. c: sealed past
	// its last ack.
	if _, err := chain.Seal(signer, time.Unix(1, 0), []blockchain.Record{rec("a", 1), rec("a", 2), rec("b", 1), rec("c", 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := chain.Seal(signer, time.Unix(2, 0), []blockchain.Record{rec("a", 4), rec("b", 1), rec("b", 2), rec("c", 2)}); err != nil {
		t.Fatal(err)
	}
	got := auditChain(chain, map[string]uint64{"a": 4, "b": 2, "c": 1, "d": 2})
	if got.Records != 8 || got.Blocks != 2 {
		t.Errorf("audit saw %d records in %d blocks, want 8 in 2", got.Records, got.Blocks)
	}
	// d was acknowledged twice and is not on the chain at all.
	if got.Missing != 3 || got.Duplicated != 1 || got.Unacked != 1 {
		t.Errorf("missing %d duplicated %d unacked %d, want 3 1 1", got.Missing, got.Duplicated, got.Unacked)
	}
	if got.failed() != 4 {
		t.Errorf("failed = %d, want 4", got.failed())
	}
	clean := auditChain(chain, map[string]uint64{"a": 2, "b": 0, "c": 2})
	if clean.Missing != 0 || clean.Duplicated != 0 {
		t.Errorf("acks the chain covers: missing %d duplicated %d", clean.Missing, clean.Duplicated)
	}
}

func TestSelfTimeIsSpanMinusCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "report", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "decode", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "ingest", StartNs: 25, EndNs: 70}, // overlaps decode by 5
		{ID: 4, Parent: 3, Name: "ack_encode", StartNs: 40, EndNs: 50},
		{ID: 5, Parent: 1, Name: "late", StartNs: 90, EndNs: 130}, // sticks out of the root
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 60 - 10, 2: 20, 3: 35, 4: 10, 5: 40}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if got := selfByName(spans)["ingest"]; got != 35 {
		t.Errorf("selfByName[ingest] = %d, want 35", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "ack_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "reports_per_s", Better: "higher", Bound: 0.05}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"within the bound", lower, steady, []float64{105, 106, 104, 105, 105}, "ok"},
		{"worse by more than the bound", lower, steady, []float64{115, 116, 114, 115, 115}, "regressed"},
		{"better never regresses", lower, steady, []float64{50, 51, 49, 50, 50}, "ok"},
		{"higher is better: a drop regresses", higher, steady, []float64{90, 91, 89, 90, 90}, "regressed"},
		{"spread wider than the bound", lower, []float64{80, 100, 120, 90, 110}, []float64{95, 105, 85, 115, 100}, "unresolved"},
		{"wide spread, yet every run better", lower, []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, "ok"},
	} {
		if got, _ := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestMachineBlocksMustAgreeButForTheRevision(t *testing.T) {
	a := machine{CPUModel: "x", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24", GitRev: "aaa"}
	b := a
	b.GitRev = "bbb"
	if ok, _ := sameMachine(a, b); !ok {
		t.Error("a different revision must not make machines differ")
	}
	b.NumCPU = 4
	if ok, field := sameMachine(a, b); ok || field != "nproc" {
		t.Errorf("sameMachine = %v %q, want false nproc", ok, field)
	}
}

// BENCHMARK.json is what the driver reads; the tables in metrics.go and
// schedule.go are what the program prints. They must say the same.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, defined %q", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters", w.name, len(w.why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, declared, defined []metricDef) {
		if len(declared) != len(defined) {
			t.Fatalf("%s: %d declared, %d defined", kind, len(declared), len(defined))
		}
		for i, d := range defined {
			if declared[i] != d {
				t.Errorf("%s %d: declared %+v, defined %+v", kind, i, declared[i], d)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
				t.Errorf("%s: name or unit outside the contract", d.Name)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	seen := map[string]bool{}
	setup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("%s is defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("setup_s must be an end-to-end metric in seconds, lower is better")
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
	// 4 + 22 runs per workload, with set-up and two builds, inside 3420 s.
	perRun := float64(doc.RunSeconds) + 15
	if total := (4+22*float64(len(workloads)))*perRun + 120; total > 3420 {
		t.Errorf("the driver's runs would take about %.0f s, over its 3420 s", total)
	}
}
