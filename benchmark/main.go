// Command benchmark measures decentmeter end to end and layer by layer: it
// spawns the real meterd, drives it over loopback TCP with seeded MQTT
// traffic, audits every ledger it produced, and attributes the cost to the
// layers with a traced pass. See README.md beside this file.
//
//	go run ./benchmark -seed 1                      # every workload, untraced then traced
//	go run ./benchmark -workload steady -trace 0    # one untraced run, result as the last line
//	go run ./benchmark -compare a.json b.json       # judge b against a
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// outDir holds everything a run writes: the meterd binary, the per-run
// directories, the trace files.
var outDir = "benchmark/out"

func main() {
	workloadName := flag.String("workload", "", "workload to run: steady, saturate, tail_flush or fleet_des (default: all)")
	seed := flag.Uint64("seed", 1, "seed for device ids, phases, measurement values and batch order")
	seconds := flag.Int("seconds", 20, "measured interval of a daemon run, in seconds")
	trace := flag.String("trace", "", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (default: both)")
	quick := flag.Bool("quick", false, "5 s intervals, for smoke use only; the results are flagged non-comparable")
	runs := flag.Int("runs", 1, "repeat every run this many times, with seeds seed, seed+1, ...")
	flag.StringVar(&outDir, "outdir", outDir, "directory for the meterd binary, the per-run directories and the trace files")
	out := flag.String("out", "", "also write the results to this file, for -compare")
	compare := flag.Bool("compare", false, "compare two result files given as arguments and exit")
	fleetChildMode := flag.Bool("fleet-child", false, "internal: run the fleet_des scenario in this process")
	fleetRuns := flag.Int("fleet-runs", 3, "internal: RunFleet calls of the fleet child")
	fleetStarted := flag.Int64("fleet-started", 0, "internal: the parent's clock when it spawned the fleet child")
	verifyPath := flag.String("verify-child", "", "internal: load and verify this chain file, print the seconds it took")
	flag.Parse()

	switch {
	case *verifyPath != "":
		if err := verifyChild(*verifyPath); err != nil {
			fatal(err)
		}
		return
	case *fleetChildMode:
		if err := fleetChild(*seed, *fleetRuns, *fleetStarted); err != nil {
			fatal(err)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result files"))
		}
		regressions, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressions > 0 {
			os.Exit(1)
		}
		return
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fatal(fmt.Errorf("-trace %q: want 0 or 1", *trace))
	}
	if *quick {
		*seconds = 5
	}
	if *seconds < 2 {
		fatal(errors.New("-seconds must be at least 2"))
	}
	// fleet_des first: the traced daemon runs report its figures too.
	names := []string{fleetWorkload, "steady", "saturate", "tail_flush"}
	if *workloadName != "" {
		if _, ok := workloadByName(*workloadName); !ok && *workloadName != fleetWorkload {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		names = []string{*workloadName}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	bin, err := buildMeterd()
	if err != nil {
		fatal(err)
	}

	h := &harness{bin: bin, interval: time.Duration(*seconds) * time.Second, fleets: map[uint64]*fleetOutcome{}}
	file := &resultFile{Machine: describeMachine(outDir), Seconds: *seconds, Comparable: !*quick}
	printMachine(file.Machine)
	ok := true
	var last runRecord
	for i := 0; i < *runs; i++ {
		s := *seed + uint64(i)
		for _, name := range names {
			recs, err := h.runWorkload(name, s, *trace)
			if err != nil {
				fatal(fmt.Errorf("%s seed %d: %w", name, s, err))
			}
			for _, r := range recs {
				ok = ok && r.Correct
				last = r
			}
			file.Runs = append(file.Runs, recs...)
		}
	}
	if *out != "" {
		if err := writeResultFile(*out, file); err != nil {
			fatal(err)
		}
	}
	// The result of the last run is the last line of standard output.
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, last.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// buildMeterd compiles cmd/meterd from the module the benchmark runs in.
func buildMeterd() (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "meterd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/meterd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build meterd (run from the repository root): %w", err)
	}
	return bin, nil
}

// harness carries what the runs of one invocation share.
type harness struct {
	bin      string
	interval time.Duration
	// fleets caches fleet_des per seed: every traced daemon run reports its
	// figures, and one fleet child per seed is enough.
	fleets map[uint64]*fleetOutcome
}

// runWorkload runs one workload for one seed: an untraced run, a traced
// run, or both, as trace says.
func (h *harness) runWorkload(name string, seed uint64, trace string) ([]runRecord, error) {
	if name == fleetWorkload {
		if trace == "1" {
			return nil, nil // fleet_des has one pass; it is not traced
		}
		rec, err := h.fleetRun(seed)
		if err != nil {
			return nil, err
		}
		return []runRecord{rec}, nil
	}
	w, _ := workloadByName(name)
	var recs []runRecord
	if trace != "1" {
		rec, err := h.untracedRun(w, seed)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	if trace != "0" {
		rec, err := h.tracedRun(w, seed)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// record assembles a run's record and prints it.
func record(w workload, seed uint64, traced bool, defs []metricDef, m metricSet, passes ...*pass) (runRecord, error) {
	rec := runRecord{Workload: w.name, Seed: seed, Traced: traced, Correct: true}
	var missing []string
	rec.Metrics, missing = m.render(defs)
	if len(missing) > 0 {
		return rec, fmt.Errorf("run produced no value for %v", missing)
	}
	for _, p := range passes {
		rec.Attempted += p.attempted
		rec.Failed += p.failedMeasurements(w.batch)
		if p.failedMeasurements(w.batch) > 0 || len(p.audit.Problems) > 0 {
			rec.Correct = false
		}
		for _, problem := range p.audit.Problems {
			fmt.Printf("AUDIT %s: %s\n", w.name, problem)
		}
		if why := invalid(w, p); why != "" {
			rec.Invalid = why
			fmt.Printf("INVALID %s: %s\n", w.name, why)
		}
	}
	return rec, nil
}

// untracedRun measures the end-to-end metrics: tracing off everywhere.
func (h *harness) untracedRun(w workload, seed uint64) (runRecord, error) {
	p, err := runPass(h.bin, outDir, w, seed, h.interval, setupCycles, false)
	if err != nil {
		return runRecord{}, err
	}
	rec, err := record(w, seed, false, endToEnd, endToEndOf(p), p)
	if err != nil {
		return rec, err
	}
	title := fmt.Sprintf("%s seed %d, untraced, %v measured after %v warm-up, over the host loopback", w.name, seed, h.interval, warmup)
	printMetrics(title, endToEnd, rec.Metrics)
	lg, _ := loadgenOf(w, p).render(loadgenDefs())
	printMetrics("  generator and audit (validity, not targets)", loadgenDefs(), lg)
	fmt.Printf("  ledger: %d records in %d blocks verified; %d missing, %d duplicated, %d sealed beyond the last ack; failed %d of %d measurements\n",
		p.audit.Records, p.audit.Blocks, p.audit.Missing, p.audit.Duplicated, p.audit.Unacked, rec.Failed, rec.Attempted)
	return rec, nil
}

// tracedRun measures the per-layer metrics: the workload against a daemon
// without and with tracing (half the interval each, so their difference is
// the tracing overhead), then the same report stream replayed through the
// layers in process, then the DES fleet.
func (h *harness) tracedRun(w workload, seed uint64) (runRecord, error) {
	half := h.interval / 2
	spans := newRecorder()
	plain, err := runPass(h.bin, outDir, w, seed, half, 1, false)
	if err != nil {
		return runRecord{}, err
	}
	traced, err := runPass(h.bin, outDir, w, seed, half, 1, true)
	if err != nil {
		return runRecord{}, err
	}
	dir, err := os.MkdirTemp(outDir, "replay-")
	if err != nil {
		return runRecord{}, err
	}
	defer os.RemoveAll(dir)
	e2e := endToEndOf(plain)
	rp := newReplay(w, seed, e2e["reports_per_s"], dir, spans)
	if err := rp.run(); err != nil {
		return runRecord{}, fmt.Errorf("replay: %w", err)
	}
	rp.sampledSpans()
	replaySpans := len(rp.rec.spans)
	generatorSpans(rp.rec, traced.traces)
	tracePath := filepath.Join(outDir, "trace-"+w.name+".jsonl")
	if err := writeSpans(tracePath, rp.rec.spans); err != nil {
		return runRecord{}, err
	}
	fleet, err := h.fleet(seed, 1)
	if err != nil {
		return runRecord{}, err
	}

	m := metricSet{}
	for _, part := range []metricSet{rp.metrics, fleetMetrics(fleet), loadgenOf(w, plain)} {
		for k, v := range part {
			m[k] = v
		}
	}
	budget := rp.budget()
	layers := 0.0
	for _, row := range budget {
		layers += row.Us
	}
	tracedE2E := endToEndOf(traced)
	m["meterd.user_cpu_s"] = plain.daemonUser.Seconds()
	m["meterd.sys_cpu_s"] = plain.daemonSys.Seconds()
	m["meterd.blocks"] = float64(plain.blocks)
	m["meterd.records_per_block"] = float64(plain.audit.Records) / float64(max(plain.blocks, 1))
	for _, stage := range stageNames {
		m["meterd.stage."+stage+"_us_mean"] = traced.stages["trace.stage."+stage+"_us"].Mean
	}
	m["meterd.layers_us_per_report"] = layers
	m["meterd.residual_us_per_report"] = e2e["cpu_us_per_report"] - layers
	m["telemetry.overhead_pct_ack_p50"] = 100 * (tracedE2E["ack_p50_us"] - e2e["ack_p50_us"]) / e2e["ack_p50_us"]
	m["telemetry.overhead_pct_cpu"] = 100 * (tracedE2E["cpu_us_per_report"] - e2e["cpu_us_per_report"]) / e2e["cpu_us_per_report"]

	rec, err := record(w, seed, true, perLayer, m, plain, traced)
	if err != nil {
		return rec, err
	}
	rec.Budget = budget
	title := fmt.Sprintf("%s seed %d, traced: %v untraced + %v traced (meterd -telemetry -trace-every %d), then the in-process replay",
		w.name, seed, half, half, traceEvery)
	printMetrics(title, perLayer, rec.Metrics)
	fmt.Printf("  %d spans written to %s\n", len(rp.rec.spans), tracePath)
	printLatencySplit(rp.rec.spans[replaySpans:])
	printBudget(w, budget, e2e["cpu_us_per_report"], m)
	return rec, nil
}

// fleet returns fleet_des's metrics for a seed, running the child if this
// invocation has not yet.
func (h *harness) fleet(seed uint64, runs int) (*fleetOutcome, error) {
	if o, ok := h.fleets[seed]; ok {
		return o, nil
	}
	o, err := runFleet(seed, runs)
	if err != nil {
		return nil, err
	}
	h.fleets[seed] = o
	return o, nil
}

// fleetDefs are the per-layer metrics fleet_des produces.
func fleetDefs() []metricDef { return defsWithPrefix("core.") }

// loadgenDefs are the per-layer metrics every daemon pass produces.
func loadgenDefs() []metricDef {
	return append(defsWithPrefix("loadgen."), defsWithPrefix("audit.")...)
}

func defsWithPrefix(prefix string) []metricDef {
	var out []metricDef
	for _, d := range perLayer {
		if len(d.Name) > len(prefix) && d.Name[:len(prefix)] == prefix {
			out = append(out, d)
		}
	}
	return out
}

// fleetRun runs fleet_des on its own: three RunFleet calls in one child.
func (h *harness) fleetRun(seed uint64) (runRecord, error) {
	o, err := h.fleet(seed, 3)
	if err != nil {
		return runRecord{}, err
	}
	m := fleetMetrics(o)
	rec := runRecord{Workload: fleetWorkload, Seed: seed, Correct: m["core.fleet_failed_share"] == 0}
	rec.Metrics, _ = m.render(fleetDefs())
	for _, r := range o.report.Runs {
		rec.Attempted += r.Result.RecordsSealed
		rec.Failed += r.Result.RecordsLost + r.Result.RecordsDuplicated
	}
	printMetrics(fmt.Sprintf("%s seed %d: core.RunFleet, %d devices, 4 replicas, default chaos plan, in a child process", fleetWorkload, seed, fleetDevices),
		fleetDefs(), rec.Metrics)
	return rec, nil
}

func printMachine(m machine) {
	fmt.Printf("machine: %s, %d cpus (GOMAXPROCS %d), %s %s/%s, kernel %s, git %s, run directories on %s, traffic over the host %s\n",
		m.CPUModel, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.GOOS, m.GOARCH, m.Kernel, m.GitRev, m.TempFS, m.Transport)
}

func printMetrics(title string, defs []metricDef, ms map[string]metric) {
	fmt.Println(title)
	for _, d := range defs {
		if v, ok := ms[d.Name]; ok {
			fmt.Printf("  %-40s %16.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
}

// printBudget prints where meterd's CPU per report goes: the layers as the
// replay measured them, their sum, the measured total and what is left.
func printBudget(w workload, rows []budgetRow, cpu float64, m metricSet) {
	fmt.Printf("  budget for %s, microseconds of meterd CPU per report:\n", w.name)
	for _, row := range rows {
		fmt.Printf("    %-34s %10.3f\n", row.Layer, row.Us)
	}
	fmt.Printf("    %-34s %10.3f\n", "sum of layers", m["meterd.layers_us_per_report"])
	fmt.Printf("    %-34s %10.3f\n", "residual (transport, scheduling, GC)", m["meterd.residual_us_per_report"])
	fmt.Printf("    %-34s %10.3f\n", "cpu_us_per_report (untraced)", cpu)
	fmt.Printf("    traced vs untraced: ack_p50 %+.2f %%, cpu %+.2f %%\n",
		m["telemetry.overhead_pct_ack_p50"], m["telemetry.overhead_pct_cpu"])
}

// printLatencySplit says where the sampled reports of the traced daemon pass
// spent their time between due time and ReportAck: the mean self time of the
// generator's spans, the root's being what no child covers.
func printLatencySplit(spans []span) {
	reports := 0
	for _, s := range spans {
		if s.Parent == 0 {
			reports++
		}
	}
	if reports == 0 {
		return
	}
	self := selfByName(spans)
	fmt.Printf("  due -> ReportAck of %d sampled reports, mean microseconds:", reports)
	for _, name := range []string{"schedule_wait", "publish", "ack_wait", "report"} {
		fmt.Printf("  %s %.1f", name, float64(self[name])/float64(reports)/1e3)
	}
	fmt.Println(" (report = uncovered)")
}
