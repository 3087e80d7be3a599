package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"decentmeter/internal/blockchain"
	"decentmeter/internal/mqtt"
	"decentmeter/internal/protocol"
	"decentmeter/internal/telemetry"
	"decentmeter/internal/units"
)

// TestTelemetryEndToEnd runs the daemon in-process against real TCP
// listeners: a 3-replica consensus-sealed meterd with the observability
// plane on, a device publishing reports over MQTT, and every -telemetry
// endpoint answered with live (non-zero) ingest, consensus and seal
// instruments plus at least one complete sampled report journey; then the
// shutdown persist of all three replica chains.
func TestTelemetryEndToEnd(t *testing.T) {
	s, err := newServer(daemonConfig{
		ID:         "e2e",
		ChainPath:  filepath.Join(t.TempDir(), "e2e.chain"),
		Tmeasure:   100 * time.Millisecond,
		BlockEvery: time.Second,
		Slots:      16,
		Shards:     4,
		Replicas:   3,
		Pipeline:   2,
		Telemetry:  true,
		TraceEvery: 1, // sample every publish: the journey must complete
		Logger:     log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}

	brokerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.broker.Serve(brokerLn)
	defer s.broker.Close()

	telemetryLn, err := s.serveTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer telemetryLn.Close()
	base := "http://" + telemetryLn.Addr().String()

	const dev = "e2e-dev-1"
	client, err := mqtt.Dial(brokerLn.Addr().String(), mqtt.ClientOptions{
		ClientID: dev, CleanSession: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	publish := func(topic string, msg protocol.Message) {
		t.Helper()
		payload, err := protocol.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Publish(topic, payload, mqtt.QoS1, false); err != nil {
			t.Fatalf("publish %s: %v", topic, err)
		}
	}

	publish(protocol.RegisterTopic("e2e"), protocol.Register{DeviceID: dev})

	const reports = 50
	reportTopic := protocol.ReportTopic("e2e", dev)
	epoch := time.Date(2020, 4, 29, 0, 0, 0, 0, time.UTC)
	for seq := uint64(1); seq <= reports; seq++ {
		publish(reportTopic, protocol.Report{DeviceID: dev, Measurements: []protocol.Measurement{{
			Seq:       seq,
			Timestamp: epoch.Add(time.Duration(seq) * 100 * time.Millisecond),
			Interval:  100 * time.Millisecond,
			Current:   units.MilliampsToCurrent(5),
			Voltage:   5 * units.Volt,
		}}})
	}

	// QoS1 pubacks land after the broker's inline OnPublish, so ingestion
	// should already be visible; poll briefly to stay robust.
	ingested := s.reg.ShardedCounter("e2e.reports_ingested")
	for deadline := time.Now().Add(5 * time.Second); ingested.Value() < reports; {
		if time.Now().After(deadline) {
			t.Fatalf("ingested %v of %d reports", ingested.Value(), reports)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// One window close: merges the shards and drives the 3-replica consensus.
	s.agg.CloseWindow()
	if got := s.chain.Length(); got < 1 {
		t.Fatalf("chain has %d blocks after seal", got)
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read body: %v", path, err)
		}
		return resp.StatusCode, body
	}

	// /metrics (JSON): live instruments from every tier must be non-zero.
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	for name, min := range map[string]float64{
		"e2e.reports_ingested": reports, // ingest tier
		"consensus.decides":    1,       // consensus tier
		"consensus.votes":      1,
		"e2e.blocks":           1, // seal tier
		"mqtt.publishes":       reports,
	} {
		if got := snap.Counters[name]; got < min {
			t.Errorf("counter %s = %v, want >= %v", name, got, min)
		}
	}
	if got := snap.Gauges["e2e.members"]; got != 1 {
		t.Errorf("gauge e2e.members = %v, want 1", got)
	}
	// The daemon has no head meter, and its metrics say so.
	if got, ok := snap.Gauges["e2e.sum_check_enabled"]; !ok || got != 0 {
		t.Errorf("gauge e2e.sum_check_enabled = %v (present %v), want 0", got, ok)
	}
	if h, ok := snap.Histograms["trace.stage.shard_ingest_us"]; !ok || h.Count < reports {
		t.Errorf("trace.stage.shard_ingest_us count = %+v, want >= %d observations", h, reports)
	}

	// /metrics in Prometheus text exposition.
	code, body = get("/metrics?format=prometheus")
	if code != http.StatusOK {
		t.Fatalf("/metrics?format=prometheus: HTTP %d", code)
	}
	if want := "e2e_reports_ingested"; !strings.Contains(string(body), want) {
		t.Errorf("prometheus exposition missing %q", want)
	}

	// /series and /series/query input validation stay mounted under NewMux.
	if code, _ = get("/series"); code != http.StatusOK {
		t.Errorf("/series: HTTP %d", code)
	}

	// /trace/spans: at least one complete sampled journey through the
	// terminal seal_attach stage, with populated stage histograms.
	code, body = get("/trace/spans")
	if code != http.StatusOK {
		t.Fatalf("/trace/spans: HTTP %d", code)
	}
	var trace telemetry.TraceSnapshot
	if err := json.Unmarshal(body, &trace); err != nil {
		t.Fatalf("/trace/spans: %v", err)
	}
	complete := 0
	for _, j := range trace.Journeys {
		if j.Complete && len(j.Spans) > 0 && j.Spans[len(j.Spans)-1].Stage == "seal_attach" {
			complete++
		}
	}
	if complete == 0 {
		t.Errorf("no complete journey ending in seal_attach in %d sampled", len(trace.Journeys))
	}
	for _, stage := range []string{"broker_fanout", "device_uplink", "shard_ingest", "window_close", "consensus_decide", "seal_attach"} {
		if trace.Stages[stage].Count == 0 {
			t.Errorf("stage %s: no observations", stage)
		}
	}

	// /healthz: a window just closed and the backlog is drained.
	code, body = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz: HTTP %d (%s)", code, body)
	}

	// pprof is mounted.
	if code, _ = get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/: HTTP %d", code)
	}

	// Shutdown writes every replica's chain at once: three byte-identical
	// files, each of which an auditor can load and verify.
	s.persist()
	primary, err := os.ReadFile(s.chainPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{s.chainPath, s.chainPath + ".r1", s.chainPath + ".r2"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, primary) {
			t.Errorf("%s differs from the primary's chain file", path)
		}
		chain, err := blockchain.ReadFile(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := chain.Verify(); err != nil || chain.TotalRecords() == 0 {
			t.Errorf("%s: %d records, verify: %v", path, chain.TotalRecords(), err)
		}
	}
}

// TestRestartKeepsPreviousLedger: a daemon started on the path of a
// previous run's ledger moves that file aside instead of replacing it, so
// both runs' chains load and verify. Each run's blocks are durable as they
// seal, and the durable height is on /metrics.
func TestRestartKeepsPreviousLedger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "agg.chain")
	run := func(seqs uint64) {
		t.Helper()
		s, err := newServer(daemonConfig{
			ID:         "rst",
			ChainPath:  path,
			Tmeasure:   100 * time.Millisecond,
			BlockEvery: time.Hour, // only the explicit closes seal
			Slots:      16,
			Shards:     2,
			Replicas:   2,
			Telemetry:  true,
			Logger:     log.New(io.Discard, "", 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.broker.Close()
		const dev = "rst-dev"
		s.agg.HandleDeviceMessage(dev, protocol.Register{DeviceID: dev})
		for seq := uint64(1); seq <= seqs; seq++ {
			s.agg.HandleDeviceMessage(dev, protocol.Report{DeviceID: dev, Measurements: []protocol.Measurement{{
				Seq:       seq,
				Timestamp: time.Date(2020, 4, 29, 0, 0, 0, 0, time.UTC).Add(time.Duration(seq) * 100 * time.Millisecond),
				Interval:  100 * time.Millisecond,
				Current:   units.MilliampsToCurrent(5),
				Voltage:   5 * units.Volt,
			}}})
			if seq == seqs/2 {
				s.agg.CloseWindow()
			}
		}
		s.persist()
		if got := s.reg.Gauge("rst.durable_height").Value(); got != 2 || s.chain.Length() != 2 {
			t.Fatalf("durable_height = %v with %d blocks sealed, want 2", got, s.chain.Length())
		}
	}
	run(4)
	run(6)
	for file, records := range map[string]int{
		path: 6, path + ".r1": 6, // the second run
		path + ".prev1": 4, path + ".r1.prev1": 4, // the first, moved aside
	} {
		chain, err := blockchain.ReadFile(file, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := chain.Verify(); err != nil || chain.Length() != 2 || chain.TotalRecords() != records {
			t.Errorf("%s: %d blocks, %d records (want 2, %d), verify: %v",
				file, chain.Length(), chain.TotalRecords(), records, err)
		}
	}
}
