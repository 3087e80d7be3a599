package main

import (
	"sort"
	"time"
)

// metricDef names one metric; the tables below are what BENCHMARK.json
// declares, and a test holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

// endToEnd are the gated metrics, measured with tracing off. Every daemon
// workload reports every one of them. A bound is at least twice the widest
// quartile spread any workload showed over two sets of ten seeds on the
// reference box (README, "Bounds"): a metric has one bound for all
// workloads, so the noisiest workload sets it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ack_p50_us", "us", "lower", 0.20},
	{"ack_p90_us", "us", "lower", 0.15},
	{"reports_per_s", "1/s", "higher", 0.08},
	{"records_per_s", "1/s", "higher", 0.10},
	{"cpu_us_per_report", "us", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"persist_s", "s", "lower", 0.25},
	{"verify_s", "s", "lower", 0.15},
	{"chain_bytes_per_record", "B", "lower", 0.01},
}

// metric is one measured value as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects named values and renders them against a table.
type metricSet map[string]float64

// render returns the table's metrics with their units; a value the run did
// not produce is reported by name.
func (m metricSet) render(defs []metricDef) (out map[string]metric, missing []string) {
	out = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	sort.Strings(missing)
	return out, missing
}

// endToEndOf derives the gated metrics of one untraced pass.
func endToEndOf(p *pass) metricSet {
	lats := p.latenciesUs()
	acked := float64(p.ackedReports())
	// Rates run to the last acknowledgement, not to the end of the schedule:
	// a daemon that answers the interval's reports late completed them late.
	elapsed := time.Duration(0)
	for _, s := range p.samples {
		elapsed = max(elapsed, time.Duration(s.dueNs+s.latNs))
	}
	m := metricSet{
		"setup_s":       median(p.bringUpS) + p.warmupS,
		"ack_p50_us":    percentile(lats, 0.50),
		"ack_p90_us":    sliceP90Median(p.samples, int64(time.Second)) / 1e3,
		"reports_per_s": acked / elapsed.Seconds(),
		"peak_rss_mb":   p.peakRSSMB,
		"persist_s":     p.persistS,
		"verify_s":      p.verifyS,
	}
	if acked > 0 {
		m["cpu_us_per_report"] = float64((p.daemonUser + p.daemonSys).Microseconds()) / acked
	}
	if p.audit.Records > 0 {
		m["records_per_s"] = float64(p.audit.Records) / (warmup + elapsed).Seconds()
		m["chain_bytes_per_record"] = float64(p.chainBytes) / float64(p.audit.Records)
	}
	return m
}

// stageNames are the six stages of meterd's report-journey tracer.
var stageNames = []string{"device_uplink", "broker_fanout", "shard_ingest", "window_close", "consensus_decide", "seal_attach"}

// perLayer are the metrics of single layers, reported by a traced run. They
// carry no bound. The prefix names the module.
var perLayer = []metricDef{
	{Name: "protocol.encode_ns_per_report", Unit: "ns", Better: "lower"},
	{Name: "protocol.decode_ns_per_report", Unit: "ns", Better: "lower"},
	{Name: "protocol.decode_allocs_per_report", Unit: "count", Better: "lower"},
	{Name: "protocol.wire_bytes_per_report", Unit: "B", Better: "lower"},
	{Name: "mqtt.packet_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "mqtt.route_ns_per_publish", Unit: "ns", Better: "lower"},
	{Name: "mqtt.loopback_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "mqtt.session_journal_route_delta_us", Unit: "us", Better: "lower"},
	{Name: "aggregator.ingest_ns_per_report", Unit: "ns", Better: "lower"},
	{Name: "aggregator.ingest_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "aggregator.ingest_allocs_per_report", Unit: "count", Better: "lower"},
	{Name: "aggregator.window_close_us", Unit: "us", Better: "lower"},
	{Name: "aggregator.nacks", Unit: "count", Better: "lower"},
	{Name: "consensus.decide_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "consensus.decide_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "consensus.msgs_per_decide", Unit: "count", Better: "lower"},
	{Name: "consensus.view_changes", Unit: "count", Better: "lower"},
	{Name: "blockchain.seal_us_per_block", Unit: "us", Better: "lower"},
	{Name: "blockchain.seal_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "blockchain.sign_us", Unit: "us", Better: "lower"},
	{Name: "blockchain.sig_verify_us", Unit: "us", Better: "lower"},
	{Name: "blockchain.import_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "blockchain.writefile_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "blockchain.readfile_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "blockchain.verify_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "store.wal_append_ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "store.wal_append_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "store.wal_checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "store.wal_recover_ms", Unit: "ms", Better: "lower"},
	{Name: "store.queue_push_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.event_ns", Unit: "ns", Better: "lower"},
	{Name: "core.fleet_setup_s", Unit: "s", Better: "lower"},
	{Name: "core.fleet_run_s", Unit: "s", Better: "lower"},
	{Name: "core.fleet_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.fleet_ingest_reports_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.fleet_ingest_s", Unit: "s", Better: "lower"},
	{Name: "core.fleet_peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "core.fleet_cpu_s", Unit: "s", Better: "lower"},
	{Name: "core.fleet_failed_share", Unit: "ratio", Better: "lower"},
	{Name: "core.batches_decided", Unit: "count", Better: "higher"},
	{Name: "core.view_changes", Unit: "count", Better: "lower"},
	{Name: "core.windows_ok", Unit: "count", Better: "higher"},
	{Name: "core.reconnects", Unit: "count", Better: "lower"},
	{Name: "meterd.user_cpu_s", Unit: "s", Better: "lower"},
	{Name: "meterd.sys_cpu_s", Unit: "s", Better: "lower"},
	{Name: "meterd.blocks", Unit: "count", Better: "lower"},
	{Name: "meterd.records_per_block", Unit: "count", Better: "higher"},
	{Name: "meterd.stage.device_uplink_us_mean", Unit: "us", Better: "lower"},
	{Name: "meterd.stage.broker_fanout_us_mean", Unit: "us", Better: "lower"},
	{Name: "meterd.stage.shard_ingest_us_mean", Unit: "us", Better: "lower"},
	{Name: "meterd.stage.window_close_us_mean", Unit: "us", Better: "lower"},
	{Name: "meterd.stage.consensus_decide_us_mean", Unit: "us", Better: "lower"},
	{Name: "meterd.stage.seal_attach_us_mean", Unit: "us", Better: "lower"},
	{Name: "meterd.layers_us_per_report", Unit: "us", Better: "lower"},
	{Name: "meterd.residual_us_per_report", Unit: "us", Better: "lower"},
	{Name: "telemetry.overhead_pct_ack_p50", Unit: "%", Better: "lower"},
	{Name: "telemetry.overhead_pct_cpu", Unit: "%", Better: "lower"},
	{Name: "loadgen.ack_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.ack_p999_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.ack_max_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.samples", Unit: "count", Better: "higher"},
	{Name: "loadgen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.late_share_gt_10ms", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.cpu_us_per_report", Unit: "us", Better: "lower"},
	{Name: "loadgen.send_errors", Unit: "count", Better: "lower"},
	{Name: "loadgen.nacks", Unit: "count", Better: "lower"},
	{Name: "audit.failed_share", Unit: "ratio", Better: "lower"},
	{Name: "audit.missing", Unit: "count", Better: "lower"},
	{Name: "audit.duplicated", Unit: "count", Better: "lower"},
}

// lateLimit and lateShareLimit make the validity rule of an open-loop run:
// if more than lateShareLimit of the sends left more than lateLimit after
// their due time, the generator, not the daemon, shaped the latencies.
const (
	lateLimitNs    = 10e6
	lateShareLimit = 0.01
)

// loadgenOf derives the generator's own metrics of one pass: validity, not
// targets.
func loadgenOf(w workload, p *pass) metricSet {
	lats := p.latenciesUs()
	m := metricSet{
		"loadgen.ack_p99_us":         percentile(lats, 0.99),
		"loadgen.ack_p999_us":        percentile(lats, 0.999),
		"loadgen.ack_max_us":         percentile(lats, 1),
		"loadgen.samples":            float64(len(lats)),
		"loadgen.late_p99_us":        percentileUnsorted(p.lateNs, 0.99) / 1e3,
		"loadgen.late_share_gt_10ms": p.lateShare(),
		"loadgen.cpu_us_per_report":  0,
		"loadgen.send_errors":        float64(p.sendErrors),
		"loadgen.nacks":              float64(p.nacks),
		"audit.failed_share":         0,
		"audit.missing":              float64(p.audit.Missing),
		"audit.duplicated":           float64(p.audit.Duplicated),
	}
	if n := p.ackedReports(); n > 0 {
		m["loadgen.cpu_us_per_report"] = float64(p.selfCPU.Microseconds()) / float64(n)
	}
	if p.attempted > 0 {
		m["audit.failed_share"] = float64(p.failedMeasurements(w.batch)) / float64(p.attempted)
	}
	return m
}

// lateShare is the share of the interval's sends that left more than
// lateLimitNs after their due time.
func (p *pass) lateShare() float64 {
	if len(p.lateNs) == 0 {
		return 0
	}
	late := 0
	for _, ns := range p.lateNs {
		if ns > lateLimitNs {
			late++
		}
	}
	return float64(late) / float64(len(p.lateNs))
}

// invalid explains why a pass's latencies are not to be trusted, or returns
// "" for a valid pass.
func invalid(w workload, p *pass) string {
	if w.period > 0 && p.lateShare() > lateShareLimit {
		return "generator ran late: more than 1 % of sends left over 10 ms after their due time"
	}
	return ""
}
