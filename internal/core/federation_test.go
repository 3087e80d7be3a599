package core

import (
	"strings"
	"testing"
	"time"

	"decentmeter/internal/blockchain"
	"decentmeter/internal/protocol"
	"decentmeter/internal/sim"
	"decentmeter/internal/telemetry"
	"decentmeter/internal/units"
)

// TestFederationSmallEndToEnd runs the full two-tier choreography at test
// scale: three neighborhood clusters, a cross-cluster roaming wave out and
// home, a mid-run leader crash in cluster 0, per-boundary anchoring — and
// asserts the federation's acceptance envelope: completed handoffs both
// ways, zero loss and zero duplication across the union of chains,
// byte-identical replica chains per cluster, and every neighborhood head
// included in the verified anchor super-chain.
func TestFederationSmallEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	res, err := RunFederation(FederationConfig{
		Clusters: 3, Replicas: 4, Devices: 240,
		Shards: 2, Producers: 4, Seconds: 4, Seed: 1,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Devices != 240 || len(res.PerCluster) != 3 {
		t.Fatalf("population: %d devices over %d summaries", res.Devices, len(res.PerCluster))
	}
	if res.Handoffs == 0 || res.Handbacks != res.Handoffs || res.HandoffRefusals != 0 {
		t.Fatalf("roaming: %d handoffs, %d handbacks, %d refusals — want matching non-zero legs, no refusals",
			res.Handoffs, res.Handbacks, res.HandoffRefusals)
	}
	if res.Crashes != 1 || res.Recoveries != 1 {
		t.Fatalf("crash/recovery = %d/%d, want 1/1", res.Crashes, res.Recoveries)
	}
	if res.ViewChanges == 0 {
		t.Fatal("leader crash forced no view change")
	}
	if res.WindowsFlagged != 0 || res.WindowsClosed == 0 {
		t.Fatalf("windows: %d closed, %d flagged — every window must verify OK",
			res.WindowsClosed, res.WindowsFlagged)
	}
	if res.RecordsLost != 0 || res.RecordsDuplicated != 0 {
		t.Fatalf("federation audit: %d lost, %d duplicated — want zero of both",
			res.RecordsLost, res.RecordsDuplicated)
	}
	if !res.ChainsIdentical || res.ImportErrors != 0 {
		t.Fatalf("chains identical=%v, import errors=%d", res.ChainsIdentical, res.ImportErrors)
	}
	if !res.AnchorsVerified {
		t.Fatal("anchor inclusion did not verify")
	}
	if res.AnchorBlocks == 0 || res.AnchorRecords < res.Clusters {
		t.Fatalf("anchor super-chain: %d blocks, %d records — want at least one anchor per cluster",
			res.AnchorBlocks, res.AnchorRecords)
	}
	for _, c := range res.PerCluster {
		if c.Blocks == 0 || c.Records == 0 {
			t.Fatalf("cluster %s sealed nothing: %+v", c.ID, c)
		}
	}
	// The per-cluster tiers publish under "fed.<cluster>.*", the federation
	// under "fed.*" — spot-check both levels landed in the registry.
	snap := reg.Snapshot()
	if got := snap.Counters["fed.handoffs"]; got != float64(res.Handoffs) {
		t.Fatalf("fed.handoffs = %v, want %d", got, res.Handoffs)
	}
	if snap.Counters["fed.nb00.records_decided"] == 0 {
		t.Fatal("fed.nb00.records_decided never moved")
	}
	if got := snap.Gauges["fed.clusters"]; got != 3 {
		t.Fatalf("fed.clusters gauge = %v", got)
	}
}

// TestFederationConfigValidation pins the loud failures for configs the
// choreography cannot run.
func TestFederationConfigValidation(t *testing.T) {
	cases := map[string]FederationConfig{
		"one cluster":        {Clusters: 1, Devices: 240},
		"too short":          {Clusters: 2, Devices: 240, Seconds: 3},
		"no fault tolerance": {Clusters: 2, Replicas: 3, Devices: 240},
		"too few devices":    {Clusters: 10, Replicas: 4, Devices: 100},
	}
	for name, cfg := range cases {
		if _, err := RunFederation(cfg); err == nil {
			t.Errorf("%s: want error, got none", name)
		}
	}
}

// TestFederationRoamAToBToA drives one device through the full cross-cluster
// watermark handoff cycle by hand — home cluster A, visit cluster B, return
// to A — reporting in every phase, and asserts the union of the two
// neighborhood chains holds exactly one record per sequence number with no
// gaps: the watermark carried over the inter-cluster mesh suppressed every
// cross-boundary duplicate without dropping anything.
func TestFederationRoamAToBToA(t *testing.T) {
	env := sim.NewEnv(7)
	acked := make(map[string]uint64)
	cfg := FederationConfig{Clusters: 2, Replicas: 4, Devices: 64, Seconds: 4}
	cfg.defaults()
	f, err := newFederation(env, cfg, 32, func(devID string, seq uint64) {
		if seq > acked[devID] {
			acked[devID] = seq
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	where := struct{ cluster, rep int }{0, 0}
	f.steer = func(devID string, cluster, rep int) {
		f.rigs[where.cluster].reps[where.rep].load.I -= f.perDevice
		f.rigs[cluster].reps[rep].load.I += f.perDevice
		where.cluster, where.rep = cluster, rep
	}

	const dev = "fed-roamer"
	homeAgg := f.rigs[0].reps[0].id
	f.rigs[0].reps[0].agg.HandleDeviceMessage(dev, protocol.Register{DeviceID: dev})
	f.rigs[0].reps[0].load.I += f.perDevice
	if _, ok := f.rigs[0].reps[0].agg.Member(dev); !ok {
		t.Fatal("device not admitted at home")
	}

	var seq uint64
	unacked := []protocol.Measurement{}
	// report sends the next measurement plus the unacked tail (marked
	// buffered) to wherever the device currently roams, then lets the sim
	// deliver the ack — the same retransmit discipline as the fleet driver,
	// so a handoff mid-stream must not lose or double-record anything.
	report := func() {
		seq++
		m := protocol.Measurement{
			Seq: seq, Timestamp: scenarioEpoch.Add(env.Now()),
			Interval: 100 * time.Millisecond, Current: f.perDevice,
		}
		batch := make([]protocol.Measurement, 0, 1+len(unacked))
		batch = append(batch, m)
		for _, u := range unacked {
			u.Buffered = true
			batch = append(batch, u)
		}
		unacked = append(unacked, m)
		f.rigs[where.cluster].reps[where.rep].agg.HandleDeviceMessage(dev,
			protocol.Report{DeviceID: dev, Measurements: batch})
		keep := unacked[:0]
		for _, u := range unacked {
			if u.Seq > acked[dev] {
				keep = append(keep, u)
			}
		}
		unacked = keep
		env.RunUntil(env.Now() + 100*time.Millisecond)
	}

	for i := 0; i < 5; i++ { // phase 1: at home in A
		report()
	}
	f.handoff(dev, 0, 0, 1, homeAgg) // A -> B with the ack watermark
	env.RunUntil(env.Now() + 10*time.Millisecond)
	if where.cluster != 1 {
		t.Fatalf("after outbound handoff device serves at cluster %d, want 1", where.cluster)
	}
	if f.handoffs != 1 {
		t.Fatalf("handoffs = %d, want 1", f.handoffs)
	}
	mem, ok := f.rigs[1].reps[where.rep].agg.Member(dev)
	if !ok || mem.Kind != protocol.MemberTemporary || mem.LastSeq != acked[dev] {
		t.Fatalf("guest membership = %+v ok=%v, want temporary seeded at watermark %d", mem, ok, acked[dev])
	}
	for i := 0; i < 7; i++ { // phase 2: visiting B
		report()
	}
	f.handback(dev, where.cluster, where.rep, 0, homeAgg) // B -> A
	env.RunUntil(env.Now() + 10*time.Millisecond)
	if where.cluster != 0 {
		t.Fatalf("after handback device serves at cluster %d, want 0", where.cluster)
	}
	if f.handbacks != 1 {
		t.Fatalf("handbacks = %d, want 1", f.handbacks)
	}
	if _, ok := f.rigs[1].reps[0].agg.Member(dev); ok {
		t.Fatal("visited cluster still holds a membership after release")
	}
	mem, ok = f.rigs[0].reps[0].agg.Member(dev)
	if !ok || mem.Kind != protocol.MemberMaster || mem.LastSeq != acked[dev] {
		t.Fatalf("home membership = %+v ok=%v, want master synced to watermark %d", mem, ok, acked[dev])
	}
	for i := 0; i < 5; i++ { // phase 3: home again in A
		report()
	}

	// Run the sim long enough for every window to close and seal, then
	// audit the union of both neighborhood chains.
	env.RunUntil(env.Now() + 3*time.Second)
	f.rigs[0].stop()
	f.rigs[1].stop()
	if acked[dev] != seq {
		t.Fatalf("acked %d of %d reports", acked[dev], seq)
	}
	chains := []*blockchain.Chain{f.rigs[0].chain(), f.rigs[1].chain()}
	lost, dup := auditChains(chains, map[string]uint64{dev: acked[dev]})
	if lost != 0 || dup != 0 {
		t.Fatalf("A->B->A audit: %d lost, %d duplicated — want contiguous unique seqs 1..%d", lost, dup, seq)
	}
	// Both chains must hold part of the story: the device sealed records in
	// A and in B.
	for i, c := range chains {
		found := false
		for b := 0; b < c.Length() && !found; b++ {
			blk, err := c.Block(b)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range blk.Records {
				if r.DeviceID == dev {
					found = true
					break
				}
			}
		}
		if !found {
			t.Fatalf("cluster %d sealed no records for the roamer", i)
		}
	}
}

// TestFederationAuditCatchesLossAndDup sanity-checks the federation-wide
// audit itself: a gap inside one chain, a duplicate across two chains, and
// sealed-but-unacked tails must all be counted correctly.
func TestFederationAuditCatchesLossAndDup(t *testing.T) {
	mk := func(seqs ...uint64) *blockchain.Chain {
		c := sealedChainWith(t, "agg-a", seqs)
		return c
	}
	// Contiguous across two chains: clean.
	if lost, dup := auditChains([]*blockchain.Chain{mk(1, 2, 3), mk(4, 5)},
		map[string]uint64{"dev-1": 5}); lost != 0 || dup != 0 {
		t.Fatalf("clean split audit = %d lost, %d dup", lost, dup)
	}
	// Seq 3 missing everywhere: one lost.
	if lost, dup := auditChains([]*blockchain.Chain{mk(1, 2), mk(4, 5)},
		map[string]uint64{"dev-1": 5}); lost != 1 || dup != 0 {
		t.Fatalf("gap audit = %d lost, %d dup, want 1/0", lost, dup)
	}
	// Seq 2 sealed in both clusters: one duplicate.
	if lost, dup := auditChains([]*blockchain.Chain{mk(1, 2), mk(2, 3)},
		map[string]uint64{"dev-1": 3}); lost != 0 || dup != 1 {
		t.Fatalf("dup audit = %d lost, %d dup, want 0/1", lost, dup)
	}
	// Acked beyond anything sealed: the tail counts as lost.
	if lost, dup := auditChains([]*blockchain.Chain{mk(1, 2)},
		map[string]uint64{"dev-1": 4}); lost != 2 || dup != 0 {
		t.Fatalf("tail audit = %d lost, %d dup, want 2/0", lost, dup)
	}
	// Acked but sealed nowhere at all.
	if lost, dup := auditChains([]*blockchain.Chain{},
		map[string]uint64{"dev-1": 3}); lost != 3 || dup != 0 {
		t.Fatalf("empty audit = %d lost, %d dup, want 3/0", lost, dup)
	}
}

// TestClusterRigRejectsMoreThan64Replicas pins that the consensus tier's
// 64-member vote-bitmask cap surfaces loudly through the cluster wiring: a
// federation config asking for a 65-replica neighborhood must fail at
// construction, not corrupt quorum counting at runtime.
func TestClusterRigRejectsMoreThan64Replicas(t *testing.T) {
	env := sim.NewEnv(1)
	_, err := buildClusterRig(env, clusterRigConfig{
		AggPrefix: "big-agg", Replicas: 65, F: 1,
		Devices: 650, Shards: 1,
		MaxExpected: units.MilliampsToCurrent(5) * 650, Seed: 1,
	}, func(string, uint64) {})
	if err == nil || !strings.Contains(err.Error(), "64-member limit") {
		t.Fatalf("65-replica rig: want the 64-member limit error, got %v", err)
	}
}

// sealedChainWith seals the given seqs for dev-1, one block per seq.
func sealedChainWith(t *testing.T, producer string, seqs []uint64) *blockchain.Chain {
	t.Helper()
	auth := blockchain.NewAuthority()
	signer, err := blockchain.NewSigner(producer)
	if err != nil {
		t.Fatal(err)
	}
	if err := auth.Admit(producer, signer.Public()); err != nil {
		t.Fatal(err)
	}
	c := blockchain.NewChain(auth)
	at := time.Date(2020, 4, 29, 0, 0, 0, 0, time.UTC)
	for i, s := range seqs {
		rec := blockchain.Record{DeviceID: "dev-1", Seq: s, HomeAggregator: producer, Timestamp: at}
		if _, err := c.Seal(signer, at.Add(time.Duration(i)*time.Second), []blockchain.Record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}
