package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"decentmeter/internal/blockchain"
	"decentmeter/internal/energy"
	"decentmeter/internal/loadbalance"
	"decentmeter/internal/protocol"
	"decentmeter/internal/units"
)

// readAndVerify mirrors `chainctl verify`: load the export without
// signature checks and run full integrity verification.
func readAndVerify(path string) (blocks int, err error) {
	c, err := blockchain.ReadFile(path, nil)
	if err != nil {
		return 0, err
	}
	if bad, err := c.Verify(); err != nil {
		return 0, fmt.Errorf("block %d: %w", bad, err)
	}
	return c.Length(), nil
}

// replicatedSystem builds a 4-network system with two devices per network
// and replication enabled (n=4, f=1).
func replicatedSystem(t *testing.T) (*System, *Cluster, []string) {
	t.Helper()
	p := DefaultParams()
	p.APSpacing = 25 // failover steering needs radio overlap with neighbours
	sys := NewSystem(p)
	nets := []string{"agg1", "agg2", "agg3", "agg4"}
	for i, id := range nets {
		if _, err := sys.AddNetwork(id, []int{1, 6, 11, 3}[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range nets {
		for j := 0; j < 2; j++ {
			dev := fmt.Sprintf("dev%d%d", i, j)
			load := energy.Constant{I: units.Current(30+10*i+5*j) * units.Milliampere}
			if _, err := sys.AddDevice(dev, id, load); err != nil {
				t.Fatal(err)
			}
		}
	}
	rs, err := sys.EnableReplication(ClusterConfig{F: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sys, rs, nets
}

func TestReplicatedSealingChainsIdentical(t *testing.T) {
	sys, rs, nets := replicatedSystem(t)
	sys.Run(12 * time.Second) // attachment takes ~6 s (Thandshake)
	_, decided, records := rs.Stats()
	if decided == 0 || records == 0 {
		t.Fatalf("nothing decided: %d batches, %d records", decided, records)
	}
	if sys.Chain.Length() != 0 {
		t.Fatalf("shared chain grew to %d blocks despite replication", sys.Chain.Length())
	}
	if !rs.ChainsIdentical() {
		t.Fatal("replica chains diverged under fault-free sealing")
	}
	if rs.ImportErrors() != 0 {
		t.Fatalf("%d block import errors", rs.ImportErrors())
	}
	c, _ := rs.ChainOf(nets[0])
	if c.Length() == 0 {
		t.Fatal("replica chain empty")
	}
	if bad, err := c.Verify(); err != nil {
		t.Fatalf("replica chain invalid at block %d: %v", bad, err)
	}
}

// TestReplicatedFailoverEndToEnd is the crash-failover regression of the
// replicated tier: the sealing leader crashes mid-window; the view must
// change, its devices must rehome to live replicas, every closed window
// must verify OK, no verified record may be lost or duplicated across the
// failover, and after recovery all replicas' chain exports must be
// byte-identical and chainctl-verifiable.
func TestReplicatedFailoverEndToEnd(t *testing.T) {
	sys, rs, _ := replicatedSystem(t)
	// Warm up past attachment (~6 s Thandshake), then mark the window
	// frontier: windows closed while devices were still scanning carry
	// ground draw with no reports and are legitimately flagged.
	sys.Run(10 * time.Second)
	preWindows := map[string]int{}
	for _, id := range rs.IDs() {
		net, _ := sys.Network(id)
		preWindows[id] = len(net.Aggregator.Windows())
	}

	leader := rs.LeaderID()
	leadNet, _ := sys.Network(leader)
	var orphans []string
	for _, m := range leadNet.Aggregator.Members() {
		orphans = append(orphans, m.DeviceID)
	}
	if len(orphans) != 2 {
		t.Fatalf("leader %s serves %d devices, want 2", leader, len(orphans))
	}

	// Crash the sealing leader mid-window (windows close on whole seconds).
	sys.Run(400 * time.Millisecond)
	if err := rs.Crash(leader); err != nil {
		t.Fatal(err)
	}
	_, decidedAtCrash, _ := rs.Stats()
	sys.Run(6 * time.Second)

	if v := rs.CurrentView(); v == 0 {
		t.Fatal("leader crash did not force a view change")
	}
	// Every orphan rehomed to a live replica as a foreign-feeder guest.
	for _, dev := range orphans {
		homed := false
		for _, id := range rs.IDs() {
			if id == leader {
				continue
			}
			rep, _ := rs.Replica(id)
			if m, ok := rep.Agg.Member(dev); ok {
				if !m.ForeignFeeder {
					t.Fatalf("%s admitted at %s without foreign-feeder marking", dev, id)
				}
				homed = true
			}
		}
		if !homed {
			t.Fatalf("device %s stranded after the crash", dev)
		}
	}
	// Windows kept sealing through the view change.
	if _, decided, _ := rs.Stats(); decided <= decidedAtCrash {
		t.Fatalf("sealing stalled across the failover: %d -> %d batches", decidedAtCrash, decided)
	}

	// Recover: the replica catches up to the decided sequence and reclaims
	// its devices; its frozen pre-crash partial window seals late.
	if err := rs.Recover(leader); err != nil {
		t.Fatal(err)
	}
	// The recovered replica's windows close offset from the whole-second
	// grid (they realign to the recovery instant); settle past its last
	// proposal before asserting the queue drained.
	sys.Run(6*time.Second + 300*time.Millisecond)

	if rs.PendingBatches() != 0 {
		t.Fatalf("%d batches still undecided", rs.PendingBatches())
	}
	if rs.ImportErrors() != 0 {
		t.Fatalf("%d block import errors", rs.ImportErrors())
	}
	if !rs.ChainsIdentical() {
		t.Fatal("replica chains diverged across crash and recovery")
	}
	for _, dev := range orphans {
		if _, ok := leadNet.Aggregator.Member(dev); !ok {
			t.Fatalf("device %s not reclaimed by the recovered replica", dev)
		}
	}

	// Every window closed since attachment completed verified OK — through
	// the crash, the guest era and the recovery.
	for _, id := range rs.IDs() {
		net, _ := sys.Network(id)
		windows := net.Aggregator.Windows()
		if len(windows) <= preWindows[id] {
			t.Fatalf("%s closed no windows after warm-up", id)
		}
		for i, w := range windows[preWindows[id]:] {
			if !w.Verdict.OK {
				t.Fatalf("%s window %d flagged: %s", id, preWindows[id]+i, w.Verdict.Reason)
			}
		}
	}

	// Zero verified-record loss, zero duplicates: per device the sealed
	// sequence numbers are unique and contiguous from 1 (an interior gap
	// would be a record lost across the failover).
	chain, _ := rs.ChainOf(rs.IDs()[0])
	perDev := map[string][]uint64{}
	for i := 0; i < chain.Length(); i++ {
		b, _ := chain.Block(i)
		for _, r := range b.Records {
			perDev[r.DeviceID] = append(perDev[r.DeviceID], r.Seq)
		}
	}
	if len(perDev) != 8 {
		t.Fatalf("ledger covers %d devices, want 8", len(perDev))
	}
	for dev, seqs := range perDev {
		seen := map[uint64]bool{}
		var max uint64
		for _, s := range seqs {
			if seen[s] {
				t.Fatalf("%s: seq %d sealed twice", dev, s)
			}
			seen[s] = true
			if s > max {
				max = s
			}
		}
		for s := uint64(1); s <= max; s++ {
			if !seen[s] {
				t.Fatalf("%s: seq %d lost (max sealed %d)", dev, s, max)
			}
		}
		if max < 150 {
			t.Fatalf("%s sealed only %d measurements over ~22s", dev, max)
		}
	}

	// chainctl-equivalence: every replica's export is byte-identical and
	// passes full verification when read back.
	dir := t.TempDir()
	var ref []byte
	for i, id := range rs.IDs() {
		c, _ := rs.ChainOf(id)
		path := filepath.Join(dir, id+".chain")
		if err := c.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = raw
		} else if !bytes.Equal(ref, raw) {
			t.Fatalf("%s chain export differs from %s", id, rs.IDs()[0])
		}
		if reread, err := readAndVerify(path); err != nil {
			t.Fatalf("%s export fails verification: %v", id, err)
		} else if reread == 0 {
			t.Fatalf("%s export empty", id)
		}
	}
}

// TestConsensusStallKeepsMemoryBounded crashes past the fault tolerance
// (2 of 4, quorum 3): no batch can decide, so the agreement queue must
// refuse submissions at its cap — records wait in each aggregator's own
// bounded backlog — and the system must drain once quorum returns.
func TestConsensusStallKeepsMemoryBounded(t *testing.T) {
	sys, rs, _ := replicatedSystem(t)
	rs.cfg.MaxQueuedRecords = 60
	sys.Run(10 * time.Second)

	if err := rs.Crash("agg3"); err != nil {
		t.Fatal(err)
	}
	if err := rs.Crash("agg4"); err != nil {
		t.Fatal(err)
	}
	_, decidedAtStall, _ := rs.Stats()
	sys.Run(3 * time.Second)
	queuedEarly := rs.queuedRecords
	sys.Run(5 * time.Second)
	if _, decided, _ := rs.Stats(); decided != decidedAtStall {
		t.Fatalf("batches decided without quorum: %d -> %d", decidedAtStall, decided)
	}
	// The cap bounds queue growth: once full it must stop accepting, not
	// keep absorbing one window's records per second forever.
	if rs.queuedRecords > queuedEarly {
		t.Fatalf("agreement queue kept growing through the stall: %d -> %d records",
			queuedEarly, rs.queuedRecords)
	}
	// The refused windows' records are waiting in the live aggregators'
	// bounded backlogs, not lost.
	retained := 0
	for _, id := range []string{"agg1", "agg2"} {
		net, _ := sys.Network(id)
		retained += net.Aggregator.PendingRecords()
	}
	if retained == 0 {
		t.Fatal("refused submissions left no records in the aggregator backlogs")
	}

	// Quorum returns: the queue and the retained backlogs drain.
	if err := rs.Recover("agg3"); err != nil {
		t.Fatal(err)
	}
	sys.Run(8 * time.Second)
	if _, decided, _ := rs.Stats(); decided <= decidedAtStall {
		t.Fatal("sealing did not resume after quorum returned")
	}
	if rs.PendingBatches() > 2 {
		t.Fatalf("%d batches still queued after recovery", rs.PendingBatches())
	}
}

// TestMigrateRoamerBackToOwnHome is the regression for a planned migration
// whose target is the device's own home replica: the master membership
// already exists there, so admission must degrade to a watermark handoff —
// the old code released the source first, failed the admission, and left
// the device membership-less everywhere.
func TestMigrateRoamerBackToOwnHome(t *testing.T) {
	sys, rs, _ := replicatedSystem(t)
	sys.Run(8 * time.Second)
	if err := sys.MoveDevice("dev00", "agg2", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	sys.Run(12 * time.Second) // transit + temporary-membership handshake
	net2, _ := sys.Network("agg2")
	if m, ok := net2.Aggregator.Member("dev00"); !ok || m.Kind != protocol.MemberTemporary {
		t.Fatalf("dev00 not a temporary at agg2 after roaming (member=%v)", ok)
	}

	if ok := rs.execMigration(loadbalance.Migration{DeviceID: "dev00", From: "agg2", To: "agg1"}, false); !ok {
		t.Fatal("migration back home refused")
	}
	net1, _ := sys.Network("agg1")
	if m, ok := net1.Aggregator.Member("dev00"); !ok || m.Kind != protocol.MemberMaster {
		t.Fatal("master membership at the home replica lost in the migration")
	}
	if _, ok := net2.Aggregator.Member("dev00"); ok {
		t.Fatal("source membership not released")
	}
	// The device keeps reporting (to its home) and its records keep
	// sealing: it was steered, not stranded.
	chain, _ := rs.ChainOf("agg3")
	before := len(recordsOf(t, chain, "dev00"))
	sys.Run(4 * time.Second)
	if after := len(recordsOf(t, chain, "dev00")); after <= before {
		t.Fatalf("dev00 stranded after migrating home: records %d -> %d", before, after)
	}
}

// TestRoamerSurvivesHomeCrash is the regression for the acked-but-dropped
// forward: a roaming temporary whose home replica crashes must have its
// acknowledged measurements recorded by its host (home-down marking)
// instead of forwarded into a black hole, with zero sequence gaps across
// the outage once the home recovers.
func TestRoamerSurvivesHomeCrash(t *testing.T) {
	sys, rs, _ := replicatedSystem(t)
	sys.Run(8 * time.Second)
	if err := sys.MoveDevice("dev00", "agg2", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	sys.Run(12 * time.Second)
	net2, _ := sys.Network("agg2")
	if _, ok := net2.Aggregator.Member("dev00"); !ok {
		t.Fatal("dev00 not admitted at agg2")
	}

	if err := rs.Crash("agg1"); err != nil { // dev00's home
		t.Fatal(err)
	}
	if m, _ := net2.Aggregator.Member("dev00"); !m.HomeDown {
		t.Fatal("host not told the roamer's home is down")
	}
	// The stale master membership at the dead home must not be "rescued":
	// the device is already served by agg2.
	for _, id := range []string{"agg2", "agg3", "agg4"} {
		rep, _ := rs.Replica(id)
		if m, ok := rep.Agg.Member("dev00"); ok && m.ForeignFeeder {
			t.Fatalf("roamed-out dev00 wrongly failed over to %s as a guest", id)
		}
	}
	sys.Run(5 * time.Second) // outage: host records what it acks
	if err := rs.Recover("agg1"); err != nil {
		t.Fatal(err)
	}
	sys.Run(5*time.Second + 300*time.Millisecond)
	if m, _ := net2.Aggregator.Member("dev00"); m.HomeDown {
		t.Fatal("home-down marking not cleared on recovery")
	}

	// Zero verified-record loss for the roamer across the outage: its
	// sealed sequence numbers are unique and contiguous.
	chain, _ := rs.ChainOf("agg3")
	seen := map[uint64]int{}
	var max uint64
	for _, r := range recordsOf(t, chain, "dev00") {
		seen[r.Seq]++
		if r.Seq > max {
			max = r.Seq
		}
	}
	if max < 200 {
		t.Fatalf("dev00 sealed only up to seq %d", max)
	}
	for s := uint64(1); s <= max; s++ {
		switch {
		case seen[s] == 0:
			t.Fatalf("dev00 seq %d lost across the home outage", s)
		case seen[s] > 1:
			t.Fatalf("dev00 seq %d sealed %d times", s, seen[s])
		}
	}
}

// TestReplicatedFleetScenario runs the fleet-scale choreography: mid-window
// leader crash, recovery with catch-up, roaming hot-spot wave and dynamic
// rebalancing — asserting the replicated tier's acceptance envelope: view
// change, every window verified, hot spot shed below high water, zero
// record loss or duplication, byte-identical replica chains.
func TestReplicatedFleetScenario(t *testing.T) {
	res, err := RunFleet(FleetConfig{Devices: 600, Replicas: 4, Shards: 2, Producers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.ViewChanges == 0 {
		t.Fatal("leader crash forced no view change")
	}
	if res.Crashes != 1 || res.Recoveries != 1 {
		t.Fatalf("crash/recovery = %d/%d, want 1/1", res.Crashes, res.Recoveries)
	}
	if res.DevicesRehomed != 150 {
		t.Fatalf("failover rehomed %d devices, want the dead replica's 150", res.DevicesRehomed)
	}
	if res.WaveRoamers == 0 || res.RebalanceMigrations == 0 {
		t.Fatalf("wave/rebalance = %d/%d, want both non-zero", res.WaveRoamers, res.RebalanceMigrations)
	}
	if res.HotspotLoadAfter >= 0.75 {
		t.Fatalf("hot spot still at %.2f occupancy, want below the 0.75 high-water mark", res.HotspotLoadAfter)
	}
	if res.WindowsFlagged != 0 || res.WindowsClosed == 0 {
		t.Fatalf("windows: %d closed, %d flagged — every window must verify OK",
			res.WindowsClosed, res.WindowsFlagged)
	}
	if res.RecordsLost != 0 || res.RecordsDuplicated != 0 {
		t.Fatalf("ledger audit: %d lost, %d duplicated — want zero of both",
			res.RecordsLost, res.RecordsDuplicated)
	}
	if !res.ChainsIdentical {
		t.Fatal("replica chains diverged")
	}
	if res.ImportErrors != 0 {
		t.Fatalf("%d block import errors", res.ImportErrors)
	}
	if res.RecordsSealed < 40000 {
		t.Fatalf("only %d records sealed over the run", res.RecordsSealed)
	}
}

// TestPipelinedSealWindowDeep pins the consensus-seal pipeline's two core
// promises: submit (the aggregators' CloseWindow hook) returns without
// doing any Merkle/ECDSA pre-seal work, and the agreement queue drains
// several batches deep in flight — all deciding in submission order onto
// byte-identical replica chains.
func TestPipelinedSealWindowDeep(t *testing.T) {
	sys, rs, nets := replicatedSystem(t)
	sys.Run(8 * time.Second) // attach + settle a few real windows

	chain0, _ := rs.ChainOf(nets[0])
	base := chain0.Length()
	pendingBefore := rs.PendingBatches()
	proposedBefore := rs.proposed

	const batches = 6
	epoch := time.Date(2020, 4, 29, 0, 0, 0, 0, time.UTC)
	for i := 0; i < batches; i++ {
		recs := []blockchain.Record{{
			DeviceID:       fmt.Sprintf("pipe-dev-%d", i),
			Seq:            1,
			HomeAggregator: nets[0],
			ReportedVia:    nets[0],
			Timestamp:      epoch,
			Interval:       100 * time.Millisecond,
			Current:        5 * units.Milliampere,
			Voltage:        5 * units.Volt,
		}}
		if err := rs.submit(nets[0], recs); err != nil {
			t.Fatal(err)
		}
	}
	// The submit path must only enqueue: pre-sealing (Merkle + ECDSA)
	// happens in the deferred pump event, off CloseWindow's stack.
	if rs.proposed != proposedBefore {
		t.Fatalf("submit proposed synchronously (%d -> %d in-flight)", proposedBefore, rs.proposed)
	}
	if got := rs.PendingBatches(); got != pendingBefore+batches {
		t.Fatalf("queue holds %d batches, want %d", got, pendingBefore+batches)
	}

	// A fraction of a window interval is plenty: the pipeline keeps
	// several proposals in flight instead of one agreement round-trip per
	// batch.
	sys.Run(100 * time.Millisecond)
	if got := rs.PendingBatches(); got != 0 {
		t.Fatalf("%d batches still queued after the pipeline drained", got)
	}
	if !rs.ChainsIdentical() {
		t.Fatal("replica chains diverged under pipelined sealing")
	}
	if rs.ImportErrors() != 0 {
		t.Fatalf("%d block import errors", rs.ImportErrors())
	}
	if chain0.Length() < base+batches {
		t.Fatalf("chain grew %d blocks, want >= %d", chain0.Length()-base, batches)
	}
	// Submission order is preserved on the ledger.
	next := 0
	for i := base; i < chain0.Length(); i++ {
		b, err := chain0.Block(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range b.Records {
			var k int
			if _, err := fmt.Sscanf(r.DeviceID, "pipe-dev-%d", &k); err == nil {
				if k != next {
					t.Fatalf("batch %d sealed out of order (want %d)", k, next)
				}
				next++
			}
		}
	}
	if next != batches {
		t.Fatalf("only %d of %d pipelined batches sealed", next, batches)
	}
	if bad, err := chain0.Verify(); err != nil || bad != -1 {
		t.Fatalf("pipelined chain failed verification: block %d, %v", bad, err)
	}
}
