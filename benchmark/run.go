package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"decentmeter/internal/blockchain"
	"decentmeter/internal/telemetry"
)

// warmup is the traffic sent before the measured interval: long enough for
// every tail_flush device to have flushed once. It is audited, not timed.
const warmup = 2 * time.Second

// setupCycles is how often an untraced pass spawns a daemon and registers
// the fleet; setup_s is the median, and the last cycle carries the run.
const setupCycles = 3

// pass is what one workload run against one daemon measured. Times are in
// the units of the metrics they feed.
type pass struct {
	bringUpS []float64 // spawn -> every device registered, one per cycle
	warmupS  float64   // last device registered -> start of the measured interval

	samples []sample  // due -> ReportAck, reports due in the interval
	lateNs  []float64 // due -> publish call, same reports

	attempted  int // measurements published over the whole load
	unanswered int // measurements neither acked nor nacked
	sendErrors int // reports whose publish failed
	nacks      int

	daemonUser, daemonSys time.Duration // measured interval
	selfCPU               time.Duration // generator, measured interval

	persistS   float64
	peakRSSMB  float64
	verifyS    float64
	chainBytes int64
	audit      auditResult

	traces []*reportTrace
	stages map[string]telemetry.HistogramSummary // traced pass: meterd's /metrics
	blocks int
}

func (p *pass) ackedReports() int { return len(p.samples) }

// failedMeasurements is the numerator of failed_share.
func (p *pass) failedMeasurements(batch int) int {
	return p.unanswered + (p.sendErrors+p.nacks)*batch + p.audit.failed()
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// bringUp spawns a fresh daemon in a fresh directory and registers the
// whole fleet with it.
func bringUp(bin, outDir string, w workload, specs []deviceSpec, traced bool) (dir string, d *daemon, g *generator, took time.Duration, err error) {
	dir, err = os.MkdirTemp(outDir, "run-")
	if err != nil {
		return "", nil, nil, 0, err
	}
	start := time.Now()
	d, err = startDaemon(bin, dir, w, traced)
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, nil, 0, err
	}
	g, err = newGenerator(w, specs, d.addr, traced)
	if err == nil {
		if err = g.register(60 * time.Second); err != nil {
			g.close()
		}
	}
	if err != nil {
		d.kill()
		os.RemoveAll(dir)
		return "", nil, nil, 0, err
	}
	return dir, d, g, time.Since(start), nil
}

// runPass runs workload w once: bring-up (cycles times, the last one kept),
// warm-up, the measured interval, SIGTERM, verification and the ledger
// audit. An error means the pass could not be carried out; a pass that ran
// but lost data returns its counts in the audit.
func runPass(bin, outDir string, w workload, seed uint64, interval time.Duration, cycles int, traced bool) (*pass, error) {
	specs := makeDevices(w, seed)
	p := &pass{}
	var (
		dir string
		d   *daemon
		g   *generator
	)
	for i := 0; i < cycles; i++ {
		var took time.Duration
		var err error
		dir, d, g, took, err = bringUp(bin, outDir, w, specs, traced)
		if err != nil {
			return nil, fmt.Errorf("bring-up: %w", err)
		}
		p.bringUpS = append(p.bringUpS, took.Seconds())
		if i < cycles-1 {
			g.close()
			d.kill()
			os.RemoveAll(dir)
		}
	}
	defer os.RemoveAll(dir)

	registered := time.Now()
	origin := registered.Add(20 * time.Millisecond)
	measureStart := origin.Add(warmup)
	p.warmupS = measureStart.Sub(registered).Seconds()
	end := measureStart.Add(interval)

	// CPU is read at the two edges of the measured interval.
	type cpuMark struct{ user, sys, self time.Duration }
	marks := make(chan [2]cpuMark, 1)
	go func() {
		var m [2]cpuMark
		for i, at := range []time.Time{measureStart, end} {
			time.Sleep(time.Until(at))
			m[i].user, m[i].sys, _ = d.cpu() // a vanished daemon fails the pass at stop()
			m[i].self = selfCPU()
		}
		marks <- m
	}()

	g.run(origin, measureStart, end)
	m := <-marks
	p.daemonUser, p.daemonSys = m[1].user-m[0].user, m[1].sys-m[0].sys
	p.selfCPU = m[1].self - m[0].self

	if traced {
		p.stages = fetchStages(d.telemetry)
	}
	g.close()

	persist, rss, err := d.stop()
	if err != nil {
		return nil, err
	}
	p.persistS, p.peakRSSMB = persist.Seconds(), rss

	acked := make(map[string]uint64, len(g.devs))
	for _, dev := range g.devs {
		dev.mu.Lock()
		acked[dev.spec.id] = dev.ackedSeq
		p.attempted += int(dev.sentSeq)
		p.unanswered += len(dev.pending) * w.batch
		dev.mu.Unlock()
	}
	for _, c := range g.conns {
		c.recvMu.Lock()
		p.samples = append(p.samples, c.samples...)
		p.nacks += c.nacks
		c.recvMu.Unlock()
		c.lateMu.Lock()
		p.lateNs = append(p.lateNs, c.lateNs...)
		p.traces = append(p.traces, c.traces...)
		p.sendErrors += c.sendErr
		c.lateMu.Unlock()
	}

	// The audit's own load of the chain is not the timed one: this process
	// holds the run's samples, and its heap would set the pace of the GC.
	p.verifyS, err = verifyInChild(d.chainPath)
	var chain *blockchain.Chain
	if err == nil {
		chain, err = blockchain.ReadFile(d.chainPath, nil)
	}
	if err == nil {
		_, err = chain.Verify()
	}
	if err != nil {
		p.audit = auditResult{Problems: []string{"primary chain: " + err.Error()}, Missing: totalAcked(acked)}
		return p, nil
	}
	if st, err := os.Stat(d.chainPath); err == nil {
		p.chainBytes = st.Size()
	}
	p.audit = auditChain(chain, acked)
	p.blocks = chain.Length()
	if w.replicas > 1 {
		p.audit.Problems = append(p.audit.Problems, auditReplicas(d, w, dir)...)
	}
	return p, nil
}

// fetchStages reads meterd's stage histograms from its -telemetry endpoint.
// A traced pass without them still yields its other numbers.
func fetchStages(addr string) map[string]telemetry.HistogramSummary {
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil
	}
	return snap.Histograms
}

// latencies returns the pass's ack latencies in microseconds, ascending.
func (p *pass) latenciesUs() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = float64(s.latNs) / 1e3
	}
	sort.Float64s(out)
	return out
}

// verifyChild is what an auditor does with a chain file, in a process of its
// own like chainctl verify: load it and check every link and Merkle root. It
// prints the seconds that took.
func verifyChild(path string) error {
	start := time.Now()
	chain, err := blockchain.ReadFile(path, nil)
	if err != nil {
		return err
	}
	if _, err := chain.Verify(); err != nil {
		return err
	}
	_, err = fmt.Println(time.Since(start).Seconds())
	return err
}

// verifyInChild re-executes this binary as the verify child. A chain that
// does not verify is the audit's finding, not an error here: the time is 0.
func verifyInChild(path string) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(self, "-verify-child", path).Output()
	if err != nil {
		return 0, nil
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}
