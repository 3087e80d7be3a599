// Federated two-tier topology: N neighborhood clusters — each a full
// replicated tier (clusterRig: mesh, authority, replica aggregators,
// consensus-sealed chain) — joined by an inter-cluster backhaul mesh and a
// regional super-chain that anchors every neighborhood chain's block roots.
// This is the ROADMAP's "hierarchical / federated clusters" path from 20k
// devices on one box to hundreds of thousands: device traffic, windowing
// and sealing stay cluster-local (the per-report hot path is untouched);
// only chain-head commitments and roaming handoffs cross the federation
// boundary.
//
// Cross-cluster roaming reuses the PR 4 guest/watermark machinery end to
// end: a device handed from cluster A to cluster B carries its
// acknowledged-sequence watermark in a protocol.HandoffWatermark over the
// inter-cluster mesh; B admits it as a home-down guest (recorded locally,
// never forwarded across the boundary) seeded at that watermark, and the
// homeward leg syncs B's watermark back onto the master membership before
// B releases the visit. The federation-wide ledger audit therefore proves
// zero loss and zero duplication across every neighborhood chain at once.
//
// RunFederation is the scenario engine (scenario.go) assembled over this
// topology: its rigs, reporters that know their home and serving cluster,
// and the wave / crash / anchor choreography as the engine's hooks.
package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"decentmeter/internal/backhaul"
	"decentmeter/internal/blockchain"
	"decentmeter/internal/consensus"
	"decentmeter/internal/protocol"
	"decentmeter/internal/sim"
	"decentmeter/internal/telemetry"
	"decentmeter/internal/units"
)

// FederationConfig parameterizes a federated run.
type FederationConfig struct {
	// Clusters is the neighborhood count (default 10).
	Clusters int
	// Replicas per cluster (default 4; must allow F >= 1 for the
	// leader-crash choreography).
	Replicas int
	// F is each cluster's consensus fault tolerance (default
	// (Replicas-1)/3).
	F int
	// Devices is the federation-wide population, partitioned evenly
	// across clusters (default 200000).
	Devices int
	// Shards is every aggregator's ingest shard count (default 8).
	Shards int
	// Producers is the number of concurrent report feeders (default 8).
	Producers int
	// Seconds is the simulated duration (default and minimum 4: wave out
	// at 1, leader crash at 1.5, recovery at 3, wave home at Seconds-1).
	Seconds int
	// LossRate is the per-report uplink/ack loss probability (default
	// 0.01 each way).
	LossRate float64
	// WaveFraction of each cluster's devices roams to the next cluster in
	// the cross-cluster wave (default 0.05).
	WaveFraction float64
	// PerDeviceMilliamps is each device's constant draw (default 5).
	PerDeviceMilliamps float64
	// Seed drives the run deterministically (default 1).
	Seed uint64
	// MaxPendingRecords caps each aggregator's seal backlog (0 = default).
	MaxPendingRecords int
	// PipelineDepth is each cluster's consensus-seal pipeline window
	// (0 = the Cluster default of 4).
	PipelineDepth int
	// Byzantine adds an adversary stint to the choreography: cluster 1's
	// consensus leader is corrupted just before the sec-2 window boundary
	// (it equivocates on the boundary batch and withholds heartbeats until
	// its followers depose it) and restored at sec 3 — while cluster 0
	// independently runs the leader-crash choreography. The federation-wide
	// audit and anchor verification must still come back clean.
	Byzantine bool
	// ExportDir, when set, receives every neighborhood chain
	// ("<cluster>.chain") and the regional super-chain ("anchor.chain")
	// for offline verification with chainctl.
	ExportDir string
	// Physics carries the device-physics plane configuration. The
	// federation's clusters currently run ideal producers; the field rides
	// here so a federation run and its per-cluster fleet runs share one
	// physics parameterization (see FleetConfig.Physics for the tier that
	// consumes it).
	Physics PhysicsConfig
	// Registry receives every tier's instruments — per-cluster
	// orchestration and consensus under "fed.<cluster>.*", plus the
	// federation's own "fed.handoffs" / "fed.handbacks" /
	// "fed.anchor_blocks"; nil disables instrumentation.
	Registry *telemetry.Registry
	// Tracer samples report journeys; nil disables it.
	Tracer *telemetry.Tracer
}

func (c *FederationConfig) defaults() {
	if c.Clusters <= 0 {
		c.Clusters = 10
	}
	if c.Replicas <= 0 {
		c.Replicas = 4
	}
	if c.F <= 0 {
		c.F = (c.Replicas - 1) / 3
	}
	if c.Devices <= 0 {
		c.Devices = 200000
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Producers <= 0 {
		c.Producers = 8
	}
	if c.Seconds <= 0 {
		c.Seconds = 4
	}
	if c.LossRate < 0 {
		c.LossRate = 0
	} else if c.LossRate == 0 {
		c.LossRate = 0.01
	}
	if c.WaveFraction <= 0 {
		c.WaveFraction = 0.05
	}
	if c.PerDeviceMilliamps <= 0 {
		c.PerDeviceMilliamps = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// FederationClusterSummary is one neighborhood's slice of the result.
type FederationClusterSummary struct {
	ID              string
	Devices         int
	Blocks          int
	Records         int
	ViewChanges     uint64
	WindowsFlagged  int
	ChainsIdentical bool
}

// FederationResult is the outcome of a federated run.
type FederationResult struct {
	Clusters, ReplicasPerCluster, Devices, Seconds int

	ReportsDelivered     uint64
	MeasurementsAccepted uint64
	UplinksLost          uint64
	AcksLost             uint64

	// Handoffs counts completed outbound cross-cluster admissions;
	// Handbacks counts completed homeward legs; Refusals counts
	// admissions the receiving cluster declined (the device stays put).
	Handoffs, Handbacks, HandoffRefusals int

	Crashes, Recoveries, DevicesRehomed int
	Corruptions, Restores               int
	ViewChanges                         uint64

	WindowsClosed, WindowsOK, WindowsFlagged int
	BlocksSealed                             uint64
	RecordsSealed                            int

	// AnchorBlocks / AnchorRecords are the super-chain's size; every
	// neighborhood head must be covered by the final anchor.
	AnchorBlocks, AnchorRecords int
	// AnchorsVerified is true when every neighborhood chain's roots are
	// included in the anchor chain and the anchor chain itself verifies.
	AnchorsVerified bool

	// RecordsLost / RecordsDuplicated audit per-device seq contiguity and
	// uniqueness across every neighborhood chain at once.
	RecordsLost       int
	RecordsDuplicated int
	ChainsIdentical   bool
	ImportErrors      int

	IngestElapsed time.Duration
	IngestPerSec  float64

	PerCluster []FederationClusterSummary
}

// federation owns the two-tier wiring: cluster rigs, the inter-cluster
// mesh carrying handoff watermarks, and the regional anchor chain.
type federation struct {
	env       *sim.Env
	cfg       FederationConfig
	perDevice units.Current

	mesh *backhaul.Mesh // tier-2: cluster <-> cluster
	rigs []*clusterRig

	anchorSigner *blockchain.Signer
	anchorChain  *blockchain.Chain
	lastAnchor   []uint64 // per-cluster anchored height

	// steer is the driver hook: the device now reports to rigs[cluster]
	// .reps[rep]. Fired when a handoff (either leg) completes.
	steer func(devID string, cluster, rep int)

	guestRR   []int // per-cluster round-robin replica pick for admissions
	handoffs  int
	handbacks int
	refused   int

	mHandoffs  *telemetry.Counter
	mHandbacks *telemetry.Counter
	mAnchors   *telemetry.Counter
}

// clusterName names neighborhood i.
func clusterName(i int) string { return fmt.Sprintf("nb%02d", i) }

// newFederation wires cfg.Clusters rigs (each sized for devicesPer
// devices) plus the inter-cluster mesh and the anchor chain onto env.
func newFederation(env *sim.Env, cfg FederationConfig, devicesPer int,
	onAck func(devID string, seq uint64)) (*federation, error) {
	f := &federation{
		env:        env,
		cfg:        cfg,
		perDevice:  units.MilliampsToCurrent(cfg.PerDeviceMilliamps),
		mesh:       backhaul.NewMesh(env, time.Millisecond),
		rigs:       make([]*clusterRig, cfg.Clusters),
		guestRR:    make([]int, cfg.Clusters),
		lastAnchor: make([]uint64, cfg.Clusters),
	}
	for i := range f.rigs {
		id := clusterName(i)
		rig, err := buildClusterRig(env, clusterRigConfig{
			ID:        id,
			AggPrefix: id + "-agg",
			Replicas:  cfg.Replicas, F: cfg.F,
			Devices: devicesPer, Shards: cfg.Shards,
			MaxPendingRecords: cfg.MaxPendingRecords,
			PipelineDepth:     cfg.PipelineDepth,
			RebalanceMaxMoves: 64,
			// Cluster-wide draw as the head meters' expected maximum.
			MaxExpected: f.perDevice * units.Current(devicesPer),
			Seed:        cfg.Seed + uint64(i+1)*0x517cc1b727220a95,
			Registry:    cfg.Registry, Tracer: cfg.Tracer,
		}, onAck)
		if err != nil {
			return nil, err
		}
		f.rigs[i] = rig
		ci := i
		if err := f.mesh.Join(id, func(from string, msg protocol.Message) {
			f.handleFed(ci, from, msg)
		}); err != nil {
			return nil, err
		}
	}

	// The regional super-chain has its own authority: neighborhood
	// signers cannot seal anchors, the regional signer cannot seal
	// neighborhood blocks.
	anchorAuth := blockchain.NewAuthority()
	signer, err := blockchain.NewSigner("region-0")
	if err != nil {
		return nil, err
	}
	if err := anchorAuth.Admit("region-0", signer.Public()); err != nil {
		return nil, err
	}
	f.anchorSigner = signer
	f.anchorChain = blockchain.NewChain(anchorAuth)

	if reg := cfg.Registry; reg != nil {
		f.mHandoffs = reg.Counter("fed.handoffs")
		f.mHandbacks = reg.Counter("fed.handbacks")
		f.mAnchors = reg.Counter("fed.anchor_blocks")
		reg.Gauge("fed.clusters").Set(float64(cfg.Clusters))
	}
	return f, nil
}

// handoff starts the outbound leg: the serving cluster reads the device's
// acknowledged-sequence watermark off its membership and sends it to the
// target cluster over the inter-cluster mesh.
func (f *federation) handoff(devID string, fromCluster, fromRep, toCluster int, homeAggID string) {
	f.sendWatermark(devID, fromCluster, fromRep, toCluster, homeAggID, false)
}

// handback starts the homeward leg: the visited cluster hands the device
// (and its watermark) back to its home cluster.
func (f *federation) handback(devID string, visitCluster, visitRep, homeCluster int, homeAggID string) {
	f.sendWatermark(devID, visitCluster, visitRep, homeCluster, homeAggID, true)
}

func (f *federation) sendWatermark(devID string, fromCluster, fromRep, toCluster int, homeAggID string, homeward bool) {
	from := f.rigs[fromCluster]
	mem, ok := from.reps[fromRep].agg.Member(devID)
	if !ok {
		return
	}
	_ = f.mesh.Send(from.id, f.rigs[toCluster].id, protocol.HandoffWatermark{
		DeviceID:       devID,
		HomeAggregator: homeAggID,
		FromCluster:    from.id,
		ToCluster:      f.rigs[toCluster].id,
		LastSeq:        mem.LastSeq,
		Return:         homeward,
	})
}

// servingRep finds the live replica holding a membership for devID.
func (rig *clusterRig) servingRep(devID string) (int, bool) {
	for r := range rig.reps {
		if _, ok := rig.reps[r].agg.Member(devID); ok && !rig.crashed(r) {
			return r, true
		}
	}
	return 0, false
}

// handleFed processes inter-cluster traffic arriving at cluster ci.
func (f *federation) handleFed(ci int, from string, msg protocol.Message) {
	rig := f.rigs[ci]
	switch m := msg.(type) {
	case protocol.HandoffWatermark:
		var r int
		var accepted bool
		if m.Return {
			// Homeward leg: sync the visited cluster's watermark onto the
			// master membership (nothing it acknowledged may be stored
			// again), steer the device home, tell the host to release.
			if r, accepted = rig.servingRep(m.DeviceID); accepted {
				rig.reps[r].agg.SyncSeq(m.DeviceID, m.LastSeq)
			}
		} else {
			// Outbound leg: admit as a guest seeded at the carried
			// watermark. The home aggregator lives in another cluster, off
			// this mesh, so the guest is marked home-down: its data is
			// recorded where it is acknowledged, exactly the PR 4
			// crash-roaming rule.
			r, accepted = f.admitGuest(ci, m)
		}
		if accepted && f.steer != nil {
			f.steer(m.DeviceID, ci, r)
		}
		_ = f.mesh.Send(rig.id, m.FromCluster, protocol.HandoffAck{
			DeviceID: m.DeviceID, FromCluster: m.FromCluster,
			ToCluster: rig.id, Accepted: accepted, Return: m.Return,
		})
	case protocol.HandoffAck:
		if !m.Accepted {
			f.refused++
			return
		}
		if m.Return {
			// The home cluster holds the device again: release the
			// temporary membership that served the visit.
			if r, ok := rig.servingRep(m.DeviceID); ok {
				rig.reps[r].agg.ReleaseTemporary(m.DeviceID)
			}
			f.handbacks++
			if f.mHandbacks != nil {
				f.mHandbacks.Inc()
			}
			return
		}
		f.handoffs++
		if f.mHandoffs != nil {
			f.mHandoffs.Inc()
		}
	}
}

// admitGuest places an inbound roamer on a live replica (round-robin).
func (f *federation) admitGuest(ci int, m protocol.HandoffWatermark) (int, bool) {
	rig := f.rigs[ci]
	n := len(rig.reps)
	for try := 0; try < n; try++ {
		r := f.guestRR[ci] % n
		f.guestRR[ci]++
		agg := rig.reps[r].agg
		if rig.crashed(r) || agg.AdmitGuest(m.DeviceID, m.HomeAggregator, false, m.LastSeq) != nil {
			continue
		}
		agg.SetHomeDown(m.DeviceID, true)
		return r, true
	}
	return 0, false
}

// anchorNow commits every grown neighborhood chain's head (height + root)
// into one anchor block on the regional super-chain.
func (f *federation) anchorNow() error {
	var recs []blockchain.Record
	at := scenarioEpoch.Add(f.env.Now())
	for i, rig := range f.rigs {
		c := rig.chain()
		h := uint64(c.Length())
		if h == 0 || h == f.lastAnchor[i] {
			continue
		}
		recs = append(recs, blockchain.AnchorRecord{
			ClusterID: rig.id, Height: h, Root: c.Head().Hash(), SealedAt: at,
		}.Record())
		f.lastAnchor[i] = h
	}
	if len(recs) == 0 {
		return nil
	}
	if _, err := f.anchorChain.Seal(f.anchorSigner, at, recs); err != nil {
		return fmt.Errorf("core: anchor seal: %w", err)
	}
	if f.mAnchors != nil {
		f.mAnchors.Inc()
	}
	return nil
}

// verifyAnchors checks the super-chain and every neighborhood chain's
// inclusion in it.
func (f *federation) verifyAnchors() error {
	if _, err := f.anchorChain.Verify(); err != nil {
		return fmt.Errorf("core: anchor chain: %w", err)
	}
	for _, rig := range f.rigs {
		if err := blockchain.VerifyAnchorInclusion(f.anchorChain, rig.id, rig.chain()); err != nil {
			return err
		}
	}
	return nil
}

// exportChains writes every neighborhood chain and the super-chain to dir.
func (f *federation) exportChains(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, rig := range f.rigs {
		if err := rig.chain().WriteFile(filepath.Join(dir, rig.id+".chain")); err != nil {
			return err
		}
	}
	return f.anchorChain.WriteFile(filepath.Join(dir, "anchor.chain"))
}

// RunFederation assembles and runs the federated two-tier scenario:
// cfg.Clusters neighborhood clusters partition cfg.Devices devices, a
// cross-cluster roaming wave hands WaveFraction of every cluster's fleet
// to its neighbor (watermarks over the inter-cluster mesh), cluster 0's
// consensus leader crashes mid-window and recovers, the wave returns home,
// and every window boundary anchors each neighborhood chain's head on the
// regional super-chain. The run ends with the federation-wide ledger audit
// and anchor-inclusion verification.
func RunFederation(cfg FederationConfig) (FederationResult, error) {
	cfg.defaults()
	res := FederationResult{
		Clusters: cfg.Clusters, ReplicasPerCluster: cfg.Replicas,
		Seconds: cfg.Seconds,
	}
	if cfg.Clusters < 2 {
		return res, fmt.Errorf("core: federation needs at least 2 clusters, got %d", cfg.Clusters)
	}
	if cfg.Seconds < 4 {
		return res, fmt.Errorf("core: federation needs at least 4 seconds (wave out, crash, recover, wave home), got %d", cfg.Seconds)
	}
	if cfg.Replicas < 4 || cfg.F < 1 {
		return res, fmt.Errorf("core: federation needs >= 4 replicas per cluster (F >= 1) for the leader-crash choreography")
	}
	perCluster := cfg.Devices / cfg.Clusters
	if perCluster < 4*cfg.Replicas {
		return res, fmt.Errorf("core: %d devices cannot spread over %d clusters of %d replicas",
			cfg.Devices, cfg.Clusters, cfg.Replicas)
	}
	res.Devices = perCluster * cfg.Clusters

	s := newScenario(cfg.Seed)
	s.seconds, s.producers, s.lossRate = cfg.Seconds, cfg.Producers, cfg.LossRate
	s.tracer = cfg.Tracer
	f, err := newFederation(s.env, cfg, perCluster, s.onAck)
	if err != nil {
		return res, err
	}
	s.rigs, s.perDevice = f.rigs, f.perDevice

	// Cross-cluster steer: the federation completed a handoff leg — move
	// the device's draw to the new serving feeder and retarget its
	// reporting. Runs on the driver thread between reporting ticks.
	f.steer = func(devID string, cluster, rep int) {
		r, ok := s.byID[devID]
		if !ok {
			return
		}
		f.rigs[r.at.cluster].reps[r.at.rep].load.I -= s.perDevice
		f.rigs[cluster].reps[rep].load.I += s.perDevice
		r.at = place{cluster, rep}
		r.guest = false
	}
	// Intra-cluster steers (failover, reclaim, rebalance) follow the
	// replicated fleet's rules, scoped to the rig that fired them.
	for ci, rig := range f.rigs {
		rig.rs.Steer = s.steerWithin(ci)
	}

	// The population: geographic partition into contiguous cluster blocks,
	// round-robin across replicas within a cluster.
	if err := s.registerMasters("fed-dev-%06d", res.Devices, func(i int) place {
		return place{i / perCluster, i % cfg.Replicas}
	}); err != nil {
		return res, err
	}

	const (
		waveOutSec = 1
		crashSec   = 1
		crashTick  = 5
		// The sec-2 window must close and seal while the leader is dead —
		// that is what forces the view change — so recovery waits for sec 3.
		recoverSec = 3
	)
	if cfg.Byzantine {
		// The Byzantine stint corrupts cluster 1's leader at sec 1 tick 9 —
		// just before the sec-2 boundary, so the boundary batch lands on a
		// leader that equivocates on it — and restores it at sec 3, leaving
		// a second-plus of honest sealing for catch-up before the audit.
		// Cluster 0 owns the crash choreography; the stint runs in cluster 1
		// so the two fault families exercise independent clusters.
		s.chaos = newChaosDriver(&FaultPlan{Faults: []Fault{{
			Kind: FaultByzantine, Sec: 1, Tick: 9, Ticks: 11, Target: -1,
			Behaviors: consensus.BehaviorEquivocate | consensus.BehaviorWithhold,
		}}}, f.rigs[1], 0)
	}
	waveBackSec := cfg.Seconds - 1
	var crashedID string
	s.beforeTick = func(sec, tick int) error {
		if sec == crashSec && tick == crashTick {
			crashedID = f.rigs[0].rs.LeaderID()
			if err := f.rigs[0].rs.Crash(crashedID); err != nil {
				return err
			}
			res.DevicesRehomed = len(f.rigs[0].rs.Migrations())
		}
		return nil
	}
	s.beforeBoundary = func(sec int) error {
		if sec == recoverSec && crashedID != "" {
			if err := f.rigs[0].rs.Recover(crashedID); err != nil {
				return err
			}
		}
		if sec == waveOutSec {
			f.waveOut(s.reporters, perCluster)
			s.env.RunUntil(s.env.Now() + 10*time.Millisecond) // settle both mesh legs
		}
		if sec == waveBackSec {
			f.waveBack(s.reporters)
			s.env.RunUntil(s.env.Now() + 10*time.Millisecond)
		}
		return f.anchorNow()
	}
	if err := s.run(); err != nil {
		return res, err
	}
	s.env.RunUntil(s.env.Now() + tickInterval) // final closes + settle decides
	if err := f.anchorNow(); err != nil {      // cover every head
		return res, err
	}
	for _, rig := range f.rigs {
		rig.stop()
	}

	res.ReportsDelivered, res.UplinksLost, res.AcksLost = s.delivered, s.uplinksLost, s.acksLost
	res.IngestElapsed, res.IngestPerSec = s.ingestElapsed, s.ingestPerSec()
	res.Handoffs, res.Handbacks, res.HandoffRefusals = f.handoffs, f.handbacks, f.refused
	res.ChainsIdentical = true
	for _, rig := range f.rigs {
		t := rig.tally(nil)
		c := rig.chain()
		sum := FederationClusterSummary{
			ID: rig.id, ChainsIdentical: rig.rs.ChainsIdentical(),
			Blocks: c.Length(), Records: c.TotalRecords(),
			ViewChanges: rig.rs.CurrentView(), WindowsFlagged: t.flagged,
		}
		for r := range rig.reps {
			sum.Devices += len(rig.reps[r].agg.Members())
		}
		res.MeasurementsAccepted += t.accepted
		res.WindowsClosed += t.closed
		res.WindowsOK += t.ok
		res.WindowsFlagged += t.flagged
		res.ViewChanges += sum.ViewChanges
		res.Crashes += rig.rs.Crashes()
		res.Recoveries += rig.rs.Recoveries()
		res.Corruptions += rig.rs.Corruptions()
		res.Restores += rig.rs.Restores()
		res.ImportErrors += rig.rs.ImportErrors()
		res.ChainsIdentical = res.ChainsIdentical && sum.ChainsIdentical
		res.BlocksSealed += uint64(sum.Blocks)
		res.RecordsSealed += sum.Records
		res.PerCluster = append(res.PerCluster, sum)
	}
	res.AnchorBlocks = f.anchorChain.Length()
	res.AnchorRecords = f.anchorChain.TotalRecords()

	res.RecordsLost, res.RecordsDuplicated = s.audit()
	if err := f.verifyAnchors(); err != nil {
		return res, fmt.Errorf("core: federation anchor verification failed: %w", err)
	}
	res.AnchorsVerified = true
	if cfg.ExportDir != "" {
		if err := f.exportChains(cfg.ExportDir); err != nil {
			return res, err
		}
	}
	return res, nil
}

// waveOut hands WaveFraction of every cluster's at-home masters to the next
// cluster around the ring.
func (f *federation) waveOut(reporters []*reporter, perCluster int) {
	want := max(int(f.cfg.WaveFraction*float64(perCluster)), 1)
	waved := make([]int, len(f.rigs))
	for _, r := range reporters {
		if waved[r.home.cluster] >= want || r.guest || r.at != r.home {
			continue
		}
		to := (r.home.cluster + 1) % len(f.rigs)
		f.handoff(r.id, r.at.cluster, r.at.rep, to, f.homeAgg(r))
		waved[r.home.cluster]++
	}
}

// waveBack returns every visiting device to its home cluster.
func (f *federation) waveBack(reporters []*reporter) {
	for _, r := range reporters {
		if r.away() {
			f.handback(r.id, r.at.cluster, r.at.rep, r.home.cluster, f.homeAgg(r))
		}
	}
}

// homeAgg names the aggregator holding r's master membership.
func (f *federation) homeAgg(r *reporter) string {
	return f.rigs[r.home.cluster].reps[r.home.rep].id
}

// WriteFederation prints a federated run's result.
func WriteFederation(w io.Writer, r FederationResult) {
	fmt.Fprintf(w, "Federated fleet: %d clusters x %d replicas, %d devices, %d simulated seconds\n",
		r.Clusters, r.ReplicasPerCluster, r.Devices, r.Seconds)
	fmt.Fprintf(w, "  reports delivered:        %d (%.0f/s ingest; %d uplinks, %d acks lost)\n",
		r.ReportsDelivered, r.IngestPerSec, r.UplinksLost, r.AcksLost)
	fmt.Fprintf(w, "  measurements accepted:    %d\n", r.MeasurementsAccepted)
	fmt.Fprintf(w, "  cross-cluster roaming:    %d handoffs out, %d handed back (%d refused)\n",
		r.Handoffs, r.Handbacks, r.HandoffRefusals)
	fmt.Fprintf(w, "  leader crash:             %d crash, %d recovery, %d devices rehomed, %d view changes\n",
		r.Crashes, r.Recoveries, r.DevicesRehomed, r.ViewChanges)
	if r.Corruptions > 0 {
		fmt.Fprintf(w, "  byzantine leader:         %d corruption(s), %d restore(s), audit clean: %v\n",
			r.Corruptions, r.Restores, r.RecordsLost == 0 && r.RecordsDuplicated == 0)
	}
	fmt.Fprintf(w, "  windows:                  %d closed, %d OK, %d flagged\n",
		r.WindowsClosed, r.WindowsOK, r.WindowsFlagged)
	fmt.Fprintf(w, "  neighborhood chains:      %d blocks, %d records sealed (identical per cluster: %v, import errors: %d)\n",
		r.BlocksSealed, r.RecordsSealed, r.ChainsIdentical, r.ImportErrors)
	fmt.Fprintf(w, "  anchor super-chain:       %d blocks, %d anchors (inclusion verified: %v)\n",
		r.AnchorBlocks, r.AnchorRecords, r.AnchorsVerified)
	fmt.Fprintf(w, "  federation-wide audit:    %d lost, %d duplicated\n",
		r.RecordsLost, r.RecordsDuplicated)
	for _, c := range r.PerCluster {
		fmt.Fprintf(w, "    %s: %5d devices, %3d blocks, %7d records, %d view changes, %d flagged\n",
			c.ID, c.Devices, c.Blocks, c.Records, c.ViewChanges, c.WindowsFlagged)
	}
}
