package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"decentmeter/internal/core"
)

// fleetDevices is the size of the fleet_des scenario.
const fleetDevices = 20000

// fleetRun is one core.RunFleet call as the child reports it.
type fleetRun struct {
	WallS  float64          `json:"wall_s"`
	Result core.FleetResult `json:"result"`
}

// fleetReport is the child's whole output.
type fleetReport struct {
	// SetupS is child start -> first measured RunFleet call: process start,
	// runtime initialisation and one small warm-up fleet.
	SetupS float64    `json:"setup_s"`
	Runs   []fleetRun `json:"runs"`
	// PeakRSSMB is the child's own reading of its high-water mark.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

func fleetConfig(devices int, seed uint64) core.FleetConfig {
	producers := runtime.GOMAXPROCS(0)
	if producers > 4 {
		producers = 4
	}
	return core.FleetConfig{
		Devices: devices, Replicas: 4, Shards: 4, Producers: producers,
		Seed: seed, Chaos: core.DefaultFaultPlan(),
	}
}

// fleetChild is the body of the re-exec'd child: the replicated fleet
// scenario with the default chaos plan, bypassing TCP, mqtt and the codec.
// startedNs is the parent's clock at spawn.
func fleetChild(seed uint64, runs int, startedNs int64) error {
	if _, err := core.RunFleet(fleetConfig(400, seed)); err != nil {
		return fmt.Errorf("warm-up fleet: %w", err)
	}
	rep := fleetReport{SetupS: time.Since(time.Unix(0, startedNs)).Seconds()}
	for i := 0; i < runs; i++ {
		start := time.Now()
		res, err := core.RunFleet(fleetConfig(fleetDevices, seed))
		if err != nil {
			return err
		}
		res.FaultLog = nil
		rep.Runs = append(rep.Runs, fleetRun{WallS: time.Since(start).Seconds(), Result: res})
	}
	rep.PeakRSSMB = peakRSSMB("self")
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// fleetOutcome is fleet_des as the parent sees it.
type fleetOutcome struct {
	report fleetReport
	cpu    time.Duration
}

// runFleet re-executes this binary as the fleet child and collects its
// report and resource use.
func runFleet(seed uint64, runs int) (*fleetOutcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-fleet-child",
		"-seed", strconv.FormatUint(seed, 10),
		"-fleet-runs", strconv.Itoa(runs),
		"-fleet-started", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("fleet child: %w", err)
	}
	o := &fleetOutcome{}
	if err := json.Unmarshal(out, &o.report); err != nil {
		return nil, fmt.Errorf("fleet child output: %w", err)
	}
	if len(o.report.Runs) == 0 {
		return nil, errors.New("fleet child reported no runs")
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, errors.New("no rusage for the fleet child")
	}
	o.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return o, nil
}

// failedShare is (lost + duplicated) / sealed, and 1 when the replicas'
// chains differ.
func (r fleetRun) failedShare() float64 {
	if !r.Result.ChainsIdentical || r.Result.RecordsSealed == 0 {
		return 1
	}
	return float64(r.Result.RecordsLost+r.Result.RecordsDuplicated) / float64(r.Result.RecordsSealed)
}

// fleetMetrics are fleet_des's numbers: its own end-to-end figures (it is
// not a driver workload, so they are per-layer metrics of the core module)
// and the FleetResult fields. Each is the median over the child's runs.
func fleetMetrics(o *fleetOutcome) metricSet {
	col := func(f func(fleetRun) float64) float64 {
		vs := make([]float64, len(o.report.Runs))
		for i, r := range o.report.Runs {
			vs[i] = f(r)
		}
		return median(vs)
	}
	worst := 0.0
	for _, r := range o.report.Runs {
		worst = max(worst, r.failedShare())
	}
	return metricSet{
		"core.fleet_setup_s":              o.report.SetupS,
		"core.fleet_run_s":                col(func(r fleetRun) float64 { return r.WallS }),
		"core.fleet_records_per_s":        col(func(r fleetRun) float64 { return float64(r.Result.RecordsSealed) / r.WallS }),
		"core.fleet_ingest_reports_per_s": col(func(r fleetRun) float64 { return r.Result.IngestPerSec }),
		"core.fleet_ingest_s":             col(func(r fleetRun) float64 { return r.Result.IngestElapsed.Seconds() }),
		"core.fleet_peak_rss_mb":          o.report.PeakRSSMB,
		"core.fleet_cpu_s":                o.cpu.Seconds(),
		"core.fleet_failed_share":         worst,
		"core.batches_decided":            col(func(r fleetRun) float64 { return float64(r.Result.BatchesDecided) }),
		"core.view_changes":               col(func(r fleetRun) float64 { return float64(r.Result.ViewChanges) }),
		"core.windows_ok":                 col(func(r fleetRun) float64 { return float64(r.Result.WindowsOK) }),
		"core.reconnects":                 col(func(r fleetRun) float64 { return float64(r.Result.Reconnects) }),
	}
}
