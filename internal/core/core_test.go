package core

import (
	"bytes"
	"testing"
	"time"

	"decentmeter/internal/blockchain"
	"decentmeter/internal/energy"
	"decentmeter/internal/protocol"
	"decentmeter/internal/units"
)

func recordsOf(t *testing.T, c *blockchain.Chain, deviceID string) []blockchain.Record {
	t.Helper()
	recs, err := c.RecordsOf(deviceID)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestSystemAttachment(t *testing.T) {
	sys := NewSystem(DefaultParams())
	if _, err := sys.AddNetwork("agg1", 1); err != nil {
		t.Fatal(err)
	}
	node, err := sys.AddDevice("device1", "agg1", energy.Constant{I: 80 * units.Milliampere})
	if err != nil {
		t.Fatal(err)
	}
	// Attachment = scan (~4.5s) + assoc + register; 8s is ample.
	sys.Run(8 * time.Second)
	if node.Device.State().String() != "connected" {
		t.Fatalf("device state = %v after 8s", node.Device.State())
	}
	if node.Device.MasterAddr() != "agg1" {
		t.Fatalf("master addr = %q", node.Device.MasterAddr())
	}
	if node.Device.MembershipKind() != protocol.MemberMaster {
		t.Fatalf("kind = %v", node.Device.MembershipKind())
	}
	net, _ := sys.Network("agg1")
	mem, ok := net.Aggregator.Member("device1")
	if !ok || mem.Kind != protocol.MemberMaster {
		t.Fatalf("aggregator membership: %+v, %v", mem, ok)
	}
	if home, ok := sys.Mesh.HomeOf("device1"); !ok || home != "agg1" {
		t.Fatalf("directory home = %q, %v", home, ok)
	}
}

func TestReportsFlowIntoChain(t *testing.T) {
	sys := NewSystem(DefaultParams())
	if _, err := sys.AddNetwork("agg1", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddDevice("device1", "agg1", energy.Constant{I: 80 * units.Milliampere}); err != nil {
		t.Fatal(err)
	}
	sys.Run(20 * time.Second)
	if sys.Chain.Length() == 0 {
		t.Fatal("no blocks sealed")
	}
	recs := recordsOf(t, sys.Chain, "device1")
	// ~12s of connected time at 10 Hz: expect on the order of 100+.
	if len(recs) < 80 {
		t.Fatalf("only %d records stored", len(recs))
	}
	if bad, err := sys.Chain.Verify(); err != nil || bad != -1 {
		t.Fatalf("chain verify: %d, %v", bad, err)
	}
	// Record fields are sane.
	r := recs[len(recs)-1]
	if r.HomeAggregator != "agg1" || r.ReportedVia != "agg1" {
		t.Fatalf("record routing: %+v", r)
	}
	if r.Current < 70*units.Milliampere || r.Current > 90*units.Milliampere {
		t.Fatalf("record current %v far from 80mA truth", r.Current)
	}
	if r.Energy <= 0 {
		t.Fatalf("record energy %v", r.Energy)
	}
}

func TestReportCadenceIsTmeasure(t *testing.T) {
	p := DefaultParams()
	sys := NewSystem(p)
	if _, err := sys.AddNetwork("agg1", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddDevice("device1", "agg1", energy.Constant{I: 50 * units.Milliampere}); err != nil {
		t.Fatal(err)
	}
	sys.Run(15 * time.Second)
	recs := recordsOf(t, sys.Chain, "device1")
	if len(recs) < 50 {
		t.Fatalf("too few records: %d", len(recs))
	}
	// Consecutive live records are 100 ms apart (RTC-stamped).
	okGaps := 0
	for i := 1; i < len(recs); i++ {
		gap := recs[i].Timestamp.Sub(recs[i-1].Timestamp)
		if gap > 95*time.Millisecond && gap < 105*time.Millisecond {
			okGaps++
		}
	}
	if float64(okGaps) < 0.9*float64(len(recs)-1) {
		t.Fatalf("only %d/%d gaps at Tmeasure", okGaps, len(recs)-1)
	}
}

func TestFig5GapInPaperBand(t *testing.T) {
	res, err := RunFig5(DefaultParams(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 5 {
		t.Fatalf("only %d windows", len(res.Rows))
	}
	// The paper's band is 0.9-8.2%. Loads, line resistances and sensor
	// errors are randomized, so allow modest margin — but the sign and
	// scale must hold: aggregator reads HIGHER by single-digit percent.
	if res.MinGapPercent < 0 {
		t.Fatalf("aggregator read below device sum: min gap %.2f%%", res.MinGapPercent)
	}
	if res.MinGapPercent < 0.2 || res.MaxGapPercent > 12 {
		t.Fatalf("gap band [%.2f, %.2f]%% outside plausible range", res.MinGapPercent, res.MaxGapPercent)
	}
	if !res.ChainIntact {
		t.Fatal("chain not intact after run")
	}
	// Render must not crash and must mention the band.
	var buf bytes.Buffer
	WriteFig5(&buf, res)
	if !bytes.Contains(buf.Bytes(), []byte("gap range")) {
		t.Fatal("WriteFig5 missing summary")
	}
}

func TestFig6Mobility(t *testing.T) {
	res, err := RunFig6(DefaultParams(), 10*time.Second, 5*time.Second, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Thandshake in the paper's band (5.5-6.5s).
	if res.Thandshake < 5*time.Second || res.Thandshake > 7*time.Second {
		t.Fatalf("Thandshake = %v, want ~5.5-6.5s", res.Thandshake)
	}
	// Data collected during the handshake must arrive late (buffered).
	if res.BufferedDelivered == 0 {
		t.Fatal("no buffered measurements delivered")
	}
	// Aggregator 1 must have received forwarded records from agg2.
	if res.ForwardedRecords == 0 {
		t.Fatal("no records forwarded home")
	}
	if len(res.Trace) == 0 {
		t.Fatal("empty trace at aggregator 1")
	}
	if len(res.Events) < 3 {
		t.Fatalf("events: %+v", res.Events)
	}
	var buf bytes.Buffer
	WriteFig6(&buf, res, time.Second)
	if !bytes.Contains(buf.Bytes(), []byte("Thandshake")) {
		t.Fatal("WriteFig6 missing Thandshake")
	}
}

func TestFig6TraceHasIdleGap(t *testing.T) {
	dwell, transit := 10*time.Second, 5*time.Second
	res, err := RunFig6(DefaultParams(), dwell, transit, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// No *live* samples should land at agg1 during transit: device is
	// unplugged, drawing nothing. (Forwarded/buffered samples appear
	// later, stamped at arrival; the idle gap shows between dwell end
	// and handshake completion. Reports already in flight at unplug may
	// land within one link latency, hence the 100 ms guard.)
	gapStart := dwell + 100*time.Millisecond
	gapEnd := dwell + transit
	for _, pt := range res.Trace {
		if pt.At > gapStart && pt.At < gapEnd {
			t.Fatalf("sample during transit at %v (%.1f mA)", pt.At, pt.MA)
		}
	}
}

func TestHandshakeTrialsMatchPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("15 trials are slow in -short mode")
	}
	stats, err := RunHandshakeTrials(DefaultParams(), 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Samples) != 15 {
		t.Fatalf("got %d samples", len(stats.Samples))
	}
	// Paper: mean 6s, range 5.5-6.5s. Allow a slightly wider envelope.
	if stats.Mean < 5500*time.Millisecond || stats.Mean > 6500*time.Millisecond {
		t.Fatalf("mean Thandshake = %v, want ~6s", stats.Mean)
	}
	if stats.Min < 5*time.Second || stats.Max > 7*time.Second {
		t.Fatalf("range [%v, %v], want ~[5.5s, 6.5s]", stats.Min, stats.Max)
	}
}

func TestMoveBackHomeResumesMasterMembership(t *testing.T) {
	sys := NewSystem(DefaultParams())
	sys.AddNetwork("agg1", 1)
	sys.AddNetwork("agg2", 6)
	node, err := sys.AddDevice("device1", "agg1", energy.Constant{I: 80 * units.Milliampere})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(10 * time.Second)
	if err := sys.MoveDevice("device1", "agg2", 3*time.Second); err != nil {
		t.Fatal(err)
	}
	sys.Run(15 * time.Second)
	if node.Device.Aggregator() != "agg2" || node.Device.MembershipKind() != protocol.MemberTemporary {
		t.Fatalf("after move: agg=%q kind=%v", node.Device.Aggregator(), node.Device.MembershipKind())
	}
	// Temp membership exists at agg2.
	net2, _ := sys.Network("agg2")
	if mem, ok := net2.Aggregator.Member("device1"); !ok || mem.Kind != protocol.MemberTemporary {
		t.Fatalf("agg2 membership: %+v %v", mem, ok)
	}
	// Home never dropped the master membership.
	net1, _ := sys.Network("agg1")
	if mem, ok := net1.Aggregator.Member("device1"); !ok || mem.Kind != protocol.MemberMaster {
		t.Fatalf("agg1 membership lost: %+v %v", mem, ok)
	}
	// Move back home.
	if err := sys.MoveDevice("device1", "agg1", 3*time.Second); err != nil {
		t.Fatal(err)
	}
	sys.Run(15 * time.Second)
	if node.Device.Aggregator() != "agg1" || node.Device.MembershipKind() != protocol.MemberMaster {
		t.Fatalf("back home: agg=%q kind=%v", node.Device.Aggregator(), node.Device.MembershipKind())
	}
	// Temporary membership at agg2 was discarded on departure.
	if _, ok := net2.Aggregator.Member("device1"); ok {
		t.Fatal("temporary membership not discarded")
	}
}

func TestFraudDetection(t *testing.T) {
	res, err := RunFraud(DefaultParams(), 10*time.Second, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.WindowsFlagged == 0 {
		t.Fatal("under-reporting never flagged")
	}
	if res.Culprit != "device1" {
		t.Fatalf("culprit = %q, want device1", res.Culprit)
	}
	if !res.ChainTamperDetected {
		t.Fatal("stored-record tamper not detected")
	}
}

func TestHonestRunNoFalsePositives(t *testing.T) {
	sys := NewSystem(DefaultParams())
	sys.AddNetwork("agg1", 1)
	apps := energy.StandardAppliances()
	sys.AddDevice("device1", "agg1", apps[0].Profile)
	sys.AddDevice("device2", "agg1", apps[1].Profile)
	sys.Run(30 * time.Second)
	net, _ := sys.Network("agg1")
	flagged := 0
	for _, w := range net.Aggregator.Windows() {
		// The attach phase (scan + associate + register takes ~6s, and
		// devices legitimately draw unmetered power then) is excluded:
		// the paper's steady state has every device registered.
		if w.Start < 8*time.Second {
			continue
		}
		if !w.Verdict.OK {
			flagged++
		}
	}
	if flagged > 0 {
		t.Fatalf("%d windows false-flagged on honest steady-state run", flagged)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int, units.Energy) {
		sys := NewSystem(DefaultParams())
		sys.AddNetwork("agg1", 1)
		sys.AddDevice("device1", "agg1", energy.Constant{I: 80 * units.Milliampere})
		sys.Run(12 * time.Second)
		return sys.Chain.TotalRecords(), sys.EnergyReportedFor("device1")
	}
	n1, e1 := run()
	n2, e2 := run()
	if n1 != n2 || e1 != e2 {
		t.Fatalf("runs diverged: (%d, %v) vs (%d, %v)", n1, e1, n2, e2)
	}
}

func TestAggregatorCrashRecovery(t *testing.T) {
	sys := NewSystem(DefaultParams())
	sys.AddNetwork("agg1", 1)
	sys.AddNetwork("agg2", 6)
	node, _ := sys.AddDevice("device1", "agg1", energy.Constant{I: 80 * units.Milliampere})
	sys.Run(10 * time.Second)
	// Roam to agg2 but take the home aggregator down first: verification
	// cannot complete, and the device must not obtain membership.
	sys.Mesh.SetDown("agg1", true)
	sys.MoveDevice("device1", "agg2", 2*time.Second)
	sys.Run(12 * time.Second)
	net2, _ := sys.Network("agg2")
	if _, ok := net2.Aggregator.Member("device1"); ok {
		t.Fatal("membership granted without home verification")
	}
	// Consumption is buffered locally the whole time.
	if node.Device.Buffered() == 0 {
		t.Fatal("nothing buffered during home outage")
	}
	// Home comes back: device retries and gets admitted; buffer drains.
	sys.Mesh.SetDown("agg1", false)
	sys.Run(20 * time.Second)
	if _, ok := net2.Aggregator.Member("device1"); !ok {
		t.Fatal("device not admitted after home recovery")
	}
	buffered := 0
	for _, r := range recordsOf(t, sys.Chain, "device1") {
		if r.Buffered {
			buffered++
		}
	}
	if buffered == 0 {
		t.Fatal("buffered outage data never reached the chain")
	}
}

func TestEnergyConservation(t *testing.T) {
	// Total energy stored in the chain must track the device's own total
	// (sensor view), and both must sit near the analytic truth.
	p := DefaultParams()
	sys := NewSystem(p)
	sys.AddNetwork("agg1", 1)
	truth := 100 * units.Milliampere
	node, _ := sys.AddDevice("device1", "agg1", energy.Constant{I: truth})
	sys.Run(30 * time.Second)
	chainE := sys.EnergyReportedFor("device1")
	devE := node.Device.TotalEnergy()
	// The chain may lag the device by the last un-sealed window.
	if chainE > devE {
		t.Fatalf("chain energy %v exceeds device total %v", chainE, devE)
	}
	if float64(chainE) < 0.8*float64(devE) {
		t.Fatalf("chain energy %v too far behind device total %v", chainE, devE)
	}
	// Analytic check: 100 mA at 5 V for the connected span.
	perSample := units.EnergyFromIVOver(truth, 5*units.Volt, p.Tmeasure)
	recs := len(recordsOf(t, sys.Chain, "device1"))
	analytic := units.Energy(int64(perSample) * int64(recs))
	diff := float64((chainE - analytic).Abs())
	if diff > 0.05*float64(analytic) {
		t.Fatalf("chain energy %v vs analytic %v (diff %.1f%%)", chainE, analytic, 100*diff/float64(analytic))
	}
}
