// Replicated aggregator tier: the paper's future-work extensions made
// load-bearing. A Cluster runs N aggregators as one consensus.Cluster —
// every verified window batch goes through PBFT-style agreement instead of
// a local Chain.Seal, and the decided block (header pre-sealed and signed
// by the proposing leader, so ECDSA randomness cannot diverge the copies)
// is imported byte-identically onto every replica's chain. chainctl
// therefore verifies any replica's export, and an aggregator crash no
// longer strands its devices or its ledger: the orchestrator fails the
// devices over to live replicas as foreign-feeder guests, the view changes,
// windows keep sealing, and a recovered replica catches up to the decided
// sequence and reclaims its fleet.
//
// The same orchestrator runs the dynamic load-balancing loop: it snapshots
// per-aggregator TDMA occupancy into loadbalance.AggregatorState, runs the
// planner, and executes migrations with the existing Fig. 3 membership
// machinery (release slot at the source, temporary registration at the
// target) plus an 802.11v-style steer of the device.
//
// A Cluster is a value, not a singleton: Federation instantiates one per
// geographic neighborhood (each with its own mesh, authority and chain) and
// anchors their block roots on a regional super-chain — see federation.go.
// ClusterConfig.ID scopes a federated cluster's instruments under
// "fed.<id>.*" so N clusters share one telemetry registry without
// colliding.
package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"decentmeter/internal/aggregator"
	"decentmeter/internal/blockchain"
	"decentmeter/internal/consensus"
	"decentmeter/internal/loadbalance"
	"decentmeter/internal/protocol"
	"decentmeter/internal/sim"
	"decentmeter/internal/telemetry"
)

// ClusterConfig tunes the replication/orchestration layer.
type ClusterConfig struct {
	// ID names the cluster inside a federation. When set, the
	// orchestration instruments register under "fed.<ID>." (for example
	// "fed.nb03.failovers") and the consensus instruments under
	// "fed.<ID>.consensus." so many clusters can share one registry;
	// empty keeps the single-cluster names ("replicaset.", "consensus.").
	ID string
	// F is the fault tolerance; the member count must be at least 3F+1.
	F int
	// ConsensusLatency is the replica-to-replica delivery delay (default
	// the backhaul's 1 ms).
	ConsensusLatency time.Duration
	// AuthSecret, when non-empty, provisions the consensus tier's
	// per-replica HMAC keys deterministically (key_i = HMAC(secret, id));
	// empty keeps the random secret drawn at cluster construction.
	// Message authentication is on either way.
	AuthSecret []byte
	// ProposeRetry paces the proposal pump: how often a queued batch is
	// retried when the leader was busy, behind, or replaced (default
	// 100 ms).
	ProposeRetry time.Duration
	// StaleAfter declares an in-flight proposal abandoned (its slot was
	// discarded by a view change) and frees the pump to re-propose
	// (default 1 s, twice the consensus view timeout).
	StaleAfter time.Duration
	// RebalanceInterval runs the load-balancing loop periodically; zero
	// disables the ticker (RebalanceNow still works for drivers that
	// align migrations with window boundaries).
	RebalanceInterval time.Duration
	// MaxQueuedRecords bounds the records held in the agreement queue.
	// When consensus stalls (quorum lost) submissions are refused and the
	// records stay in each aggregator's own bounded backlog — memory
	// stays bounded end to end, exactly as with failing local seals
	// (default aggregator.DefaultMaxPendingRecords).
	MaxQueuedRecords int
	// PipelineDepth is the consensus-seal pipeline's window: how many
	// pre-sealed proposals the leader keeps in flight at once (default 4).
	// 1 restores the classic one-outstanding-proposal behaviour. Decisions
	// always apply in sequence order, so depth affects throughput and
	// latency, never correctness.
	PipelineDepth int
	// Balance tunes the planner (zero value = loadbalance.DefaultConfig).
	Balance loadbalance.Config
	// Registry receives the orchestrator's instruments
	// ("replicaset.failovers", ".guest_admissions", ".roams",
	// ".batches_decided", ".records_decided", ".queued_records") and the
	// cluster's consensus instruments; nil disables them.
	Registry *telemetry.Registry
	// Tracer records the consensus_decide and seal_attach journey stages;
	// nil disables tracing.
	Tracer *telemetry.Tracer
}

func (c *ClusterConfig) defaults() {
	if c.ConsensusLatency <= 0 {
		c.ConsensusLatency = time.Millisecond
	}
	if c.ProposeRetry <= 0 {
		c.ProposeRetry = 100 * time.Millisecond
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = time.Second
	}
	if c.MaxQueuedRecords <= 0 {
		c.MaxQueuedRecords = aggregator.DefaultMaxPendingRecords
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 4
	}
	// Balance keeps its zero values: loadbalance.Plan applies field-wise
	// defaults, so a partially-configured planner is not clobbered here.
}

// ReplicaMember is one aggregator joining a Cluster.
type ReplicaMember struct {
	ID     string
	Agg    *aggregator.Aggregator
	Signer *blockchain.Signer
}

// Replica is one member's replication state.
type Replica struct {
	ID string
	// Agg is the member aggregator (its Chain config is bypassed; sealing
	// goes through the cluster).
	Agg *aggregator.Aggregator
	// Chain is this replica's copy of the consensus-sealed ledger.
	Chain *blockchain.Chain
	// Signer pre-seals blocks when this replica leads.
	Signer *blockchain.Signer
	// Consensus is the PBFT participant.
	Consensus *consensus.Replica

	crashed    bool
	byzantine  bool
	importErrs int
}

// Crashed reports whether the replica is currently down.
func (r *Replica) Crashed() bool { return r.crashed }

// Byzantine reports whether the replica is currently adversarial (its
// consensus participation hijacked by a consensus.Adversary; its chain is
// frozen until Restore catches it back up).
func (r *Replica) Byzantine() bool { return r.byzantine }

// sealBatch is one submitted window batch awaiting agreement.
type sealBatch struct {
	from    string
	records []blockchain.Record
	key     consensus.Digest // records-only digest, stable across re-proposals
	// proposedAt is when the batch last entered the consensus pipeline
	// (staleness detection across view changes).
	proposedAt time.Duration
}

// specState is the leader-side speculative chain position of the pipelined
// seal path: block k+1 is prepared against the header hash of the
// just-proposed (still undecided) block k, so up to PipelineDepth pre-sealed
// proposals chain correctly while in flight. It is rebased from the
// leader's applied chain whenever the leader or view changes.
type specState struct {
	valid  bool
	leader string
	view   uint64
	prev   blockchain.Hash
	index  uint64
}

// guestPlacement remembers where a crashed replica's device was failed
// over, so recovery can reclaim it.
type guestPlacement struct {
	from, to string
}

// Cluster runs N aggregators as a consensus cluster with crash failover
// and dynamic rebalancing. It is single-threaded on the simulation
// goroutine, like everything else in the DES control plane.
type Cluster struct {
	env       *sim.Env
	cfg       ClusterConfig
	cluster   *consensus.Cluster
	replicas  map[string]*Replica
	ids       []string
	wallClock func() time.Time

	// Host hooks (optional). Steer points a device at an aggregator
	// (System: Device.Steer; fleet driver: retarget the synthetic
	// reporter). OnCrash/OnRecover let the host fail the substrate (AP,
	// mesh) alongside the replica.
	Steer     func(deviceID, aggregatorID string)
	OnCrash   func(id string)
	OnRecover func(id string)
	// SnapshotOverride, when set, replaces the built-in occupancy
	// snapshot for the rebalance planner.
	SnapshotOverride func(id string) loadbalance.AggregatorState

	queue         []sealBatch
	queuedRecords int
	// proposed marks queue[:proposed] as in flight (proposed, undecided);
	// decisions pop the head and re-proposals rewind it to 0.
	proposed    int
	spec        specState
	decidedSeqs uint64 // frontier: every consensus slot below it decided
	// pump scheduling: submit defers proposing to a zero-delay event so
	// CloseWindow returns before any Merkle/ECDSA work happens.
	pumpFn        func()
	pumpScheduled bool
	keyBuf        []byte // DigestRecordsInto scratch

	guests     map[string]guestPlacement
	migrations []loadbalance.Migration

	batchesSubmitted uint64
	batchesDecided   uint64
	recordsDecided   uint64
	crashes          int
	recoveries       int
	corruptions      int
	restores         int

	// instruments, all nil when Config.Registry is nil.
	mFailovers  *telemetry.Counter
	mGuests     *telemetry.Counter
	mRoams      *telemetry.Counter
	mDecided    *telemetry.Counter
	mDecidedRec *telemetry.Counter
	mQueuedRec  *telemetry.Gauge
	tracer      *telemetry.Tracer

	stopPump      func()
	stopRebalance func()
}

// NewCluster wires members into a consensus cluster. Every member's
// signer must already be admitted to auth — imports verify the producer
// signature of each decided block. wallClock stamps pre-sealed blocks
// (leader-local; the stamp rides through consensus so replicas agree).
func NewCluster(env *sim.Env, auth *blockchain.Authority, wallClock func() time.Time,
	cfg ClusterConfig, members []ReplicaMember) (*Cluster, error) {
	if env == nil || auth == nil || wallClock == nil {
		return nil, errors.New("core: cluster requires env, authority and wall clock")
	}
	if len(members) < 2 {
		return nil, fmt.Errorf("core: cluster needs at least 2 members, got %d", len(members))
	}
	cfg.defaults()
	ids := make([]string, 0, len(members))
	for _, m := range members {
		if m.ID == "" || m.Agg == nil || m.Signer == nil {
			return nil, errors.New("core: replica member requires ID, Agg and Signer")
		}
		ids = append(ids, m.ID)
	}
	cluster, err := consensus.NewCluster(env, ids, cfg.F, cfg.ConsensusLatency)
	if err != nil {
		return nil, err
	}
	if len(cfg.AuthSecret) > 0 {
		cluster.SetAuthSecret(cfg.AuthSecret)
	}
	rs := &Cluster{
		env:       env,
		cfg:       cfg,
		cluster:   cluster,
		replicas:  make(map[string]*Replica, len(members)),
		wallClock: wallClock,
		guests:    make(map[string]guestPlacement),
	}
	for _, m := range members {
		rep := &Replica{
			ID:        m.ID,
			Agg:       m.Agg,
			Chain:     blockchain.NewChain(auth),
			Signer:    m.Signer,
			Consensus: cluster.Replicas[m.ID],
		}
		rep.Consensus.OnDecideMeta = func(seq uint64, records []blockchain.Record, meta []byte) {
			rs.applyDecided(rep, seq, records, meta)
		}
		id := m.ID
		m.Agg.SetSeal(func(records []blockchain.Record) error {
			return rs.submit(id, records)
		})
		rs.replicas[m.ID] = rep
	}
	rs.ids = append(rs.ids, ids...)
	sort.Strings(rs.ids)
	cluster.SetWindow(cfg.PipelineDepth)
	rs.tracer = cfg.Tracer
	prefix, consensusPrefix := "replicaset", ""
	if cfg.ID != "" {
		prefix = "fed." + cfg.ID
		consensusPrefix = prefix + ".consensus"
	}
	cluster.SetRegistry(cfg.Registry, consensusPrefix, cfg.Tracer)
	if reg := cfg.Registry; reg != nil {
		rs.mFailovers = reg.Counter(prefix + ".failovers")
		rs.mGuests = reg.Counter(prefix + ".guest_admissions")
		rs.mRoams = reg.Counter(prefix + ".roams")
		rs.mDecided = reg.Counter(prefix + ".batches_decided")
		rs.mDecidedRec = reg.Counter(prefix + ".records_decided")
		rs.mQueuedRec = reg.Gauge(prefix + ".queued_records")
	}
	rs.pumpFn = func() {
		rs.pumpScheduled = false
		rs.tryPropose()
	}
	rs.stopPump = env.Ticker(cfg.ProposeRetry, func(sim.Time) { rs.pumpTick() })
	if cfg.RebalanceInterval > 0 {
		rs.stopRebalance = env.Ticker(cfg.RebalanceInterval, func(sim.Time) { rs.RebalanceNow() })
	}
	return rs, nil
}

// Stop halts the pump and rebalance loops.
func (rs *Cluster) Stop() {
	if rs.stopPump != nil {
		rs.stopPump()
		rs.stopPump = nil
	}
	if rs.stopRebalance != nil {
		rs.stopRebalance()
		rs.stopRebalance = nil
	}
}

// IDs returns the member IDs, sorted.
func (rs *Cluster) IDs() []string { return append([]string(nil), rs.ids...) }

// Replica returns a member by ID.
func (rs *Cluster) Replica(id string) (*Replica, bool) {
	r, ok := rs.replicas[id]
	return r, ok
}

// ChainOf returns a replica's copy of the consensus-sealed ledger.
func (rs *Cluster) ChainOf(id string) (*blockchain.Chain, bool) {
	r, ok := rs.replicas[id]
	if !ok {
		return nil, false
	}
	return r.Chain, true
}

// LeaderID returns the current view's leader.
func (rs *Cluster) LeaderID() string {
	return rs.cluster.Leader(rs.cluster.CurrentView())
}

// CurrentView returns the cluster's operating view (view changes so far).
func (rs *Cluster) CurrentView() uint64 { return rs.cluster.CurrentView() }

// PendingBatches returns how many submitted batches await agreement.
func (rs *Cluster) PendingBatches() int { return len(rs.queue) }

// Stats returns (batches submitted, batches decided, records decided).
func (rs *Cluster) Stats() (submitted, decided, records uint64) {
	return rs.batchesSubmitted, rs.batchesDecided, rs.recordsDecided
}

// Migrations returns every executed migration, in order.
func (rs *Cluster) Migrations() []loadbalance.Migration {
	return append([]loadbalance.Migration(nil), rs.migrations...)
}

// ImportErrors sums per-replica block-import failures (0 in a healthy set).
func (rs *Cluster) ImportErrors() int {
	n := 0
	for _, r := range rs.replicas {
		n += r.importErrs
	}
	return n
}

// ChainsIdentical checks that every replica's ledger has identical blocks
// (header hash and signature; records are covered by the Merkle root).
// Replicas still catching up compare as false.
func (rs *Cluster) ChainsIdentical() bool {
	var ref *blockchain.Chain
	for _, id := range rs.ids {
		if rs.replicas[id].byzantine {
			// A currently-adversarial replica's chain is frozen by
			// definition; the audit covers the honest set. Restore
			// clears the flag once the replica has rejoined the
			// protocol (catch-up makes it comparable again).
			continue
		}
		c := rs.replicas[id].Chain
		if ref == nil {
			ref = c
			continue
		}
		if c.Length() != ref.Length() {
			return false
		}
		for i := 0; i < c.Length(); i++ {
			a, _ := ref.Block(i)
			b, _ := c.Block(i)
			if a.Hash() != b.Hash() || a.Sig.R.Cmp(b.Sig.R) != 0 || a.Sig.S.Cmp(b.Sig.S) != 0 {
				return false
			}
		}
	}
	return true
}

// --- consensus-sealed chain -----------------------------------------------------

// submit is the aggregators' seal hook: the batch joins the agreement queue
// and the pump proposes it when the leader is ready. Returning nil hands
// ownership of the records to the Cluster (the aggregator clears its
// backlog; the queue is the durability buffer until the cluster decides).
// A full queue — consensus stalled past MaxQueuedRecords — refuses the
// batch, which then stays in the submitting aggregator's own bounded
// backlog until a later window retries.
//
// submit only enqueues: the Merkle/ECDSA pre-seal work runs in a zero-delay
// pump event, so CloseWindow's latency is independent of the signature cost
// (the consensus-seal pipeline's whole point).
func (rs *Cluster) submit(from string, records []blockchain.Record) error {
	// The cap bounds queue growth, not a single batch: an empty queue
	// always admits one batch (whose own size the submitting aggregator's
	// MaxPendingRecords already bounds) — otherwise a batch larger than
	// the cap could never seal at all.
	if len(rs.queue) > 0 && rs.queuedRecords+len(records) > rs.cfg.MaxQueuedRecords {
		return fmt.Errorf("core: consensus backlog full (%d records queued)", rs.queuedRecords)
	}
	batch := sealBatch{
		from:    from,
		records: append([]blockchain.Record(nil), records...),
	}
	batch.key, rs.keyBuf = consensus.DigestRecordsInto(rs.keyBuf, batch.records)
	rs.queue = append(rs.queue, batch)
	rs.queuedRecords += len(batch.records)
	rs.batchesSubmitted++
	if rs.mQueuedRec != nil {
		rs.mQueuedRec.Set(float64(rs.queuedRecords))
	}
	rs.schedulePump()
	return nil
}

// schedulePump arms (at most one) zero-delay propose event.
func (rs *Cluster) schedulePump() {
	if rs.pumpScheduled {
		return
	}
	rs.pumpScheduled = true
	rs.env.Schedule(0, rs.pumpFn)
}

// tryPropose drains the agreement queue up to PipelineDepth proposals deep.
// Each batch is pre-sealed against the speculative chain position (the hash
// of the previously proposed block, decided or not — header hashes never
// cover the signature, so the linkage is exact). The speculation is rebased
// from the leader's applied chain whenever the leader or its view changed,
// which requires the leader to have applied every decided slot first: a
// stale head would produce a block no replica could import.
func (rs *Cluster) tryPropose() {
	if rs.proposed >= len(rs.queue) {
		return
	}
	leaderID := rs.LeaderID()
	leader, ok := rs.replicas[leaderID]
	if !ok || leader.crashed {
		return // wait for the view change
	}
	view := leader.Consensus.View()
	if !rs.spec.valid || rs.spec.leader != leaderID || rs.spec.view != view {
		if leader.Consensus.Frontier() != rs.decidedSeqs {
			return // leader still applying; the pump retries
		}
		rs.proposed = 0 // in-flight batches re-propose under this leader
		rs.spec = specState{valid: true, leader: leaderID, view: view}
		if head := leader.Chain.Head(); head != nil {
			rs.spec.prev = head.Hash()
			rs.spec.index = head.Header.Index + 1
		}
	}
	for rs.proposed < len(rs.queue) {
		batch := &rs.queue[rs.proposed]
		blk, err := leader.Chain.PrepareBlockAt(leader.Signer, rs.wallClock(),
			rs.spec.index, rs.spec.prev, batch.records)
		if err != nil {
			return
		}
		meta, err := blockchain.EncodeSealMeta(blk.Header, blk.Sig)
		if err != nil {
			return
		}
		if err := leader.Consensus.ProposeMeta(batch.records, meta); err != nil {
			// Window full (or the view just moved): the pre-sealed block is
			// discarded and the batch retries from the pump. Discarding is
			// deliberate — a header prepared now could go stale before the
			// window frees.
			return
		}
		batch.proposedAt = rs.env.Now()
		rs.spec.prev = blk.Hash()
		rs.spec.index++
		rs.proposed++
	}
}

// pumpTick retries stalled proposals and declares view-change-abandoned
// slots dead so their batches re-propose under the new leader.
func (rs *Cluster) pumpTick() {
	if rs.proposed > 0 && rs.env.Now()-rs.queue[0].proposedAt > rs.cfg.StaleAfter {
		rs.proposed = 0
		rs.spec.valid = false
	}
	rs.tryPropose()
}

// applyDecided runs on every replica's decide callback: import the agreed
// block onto that replica's chain, and (once per slot) advance the pump.
// The decided record batch is shared immutably between the queue, the
// consensus log and every replica's imported block — four chains, one
// backing array.
func (rs *Cluster) applyDecided(rep *Replica, seq uint64, records []blockchain.Record, meta []byte) {
	// first marks the first replica's callback for this slot — the point
	// where cluster-wide counters and the terminal seal_attach journey
	// stage are observed exactly once per decided sequence.
	first := seq >= rs.decidedSeqs
	var importStart time.Time
	if first && rs.tracer != nil {
		importStart = time.Now()
	}
	hdr, sig, err := blockchain.DecodeSealMeta(meta)
	if err != nil {
		rep.importErrs++
	} else {
		blk := &blockchain.Block{Header: hdr, Records: records, Sig: sig}
		if err := rep.Chain.Import(blk); err != nil {
			rep.importErrs++
		}
	}
	if first {
		rs.decidedSeqs = seq + 1
		rs.batchesDecided++
		rs.recordsDecided += uint64(len(records))
		if rs.mDecided != nil {
			rs.mDecided.Inc()
			rs.mDecidedRec.AddInt(uint64(len(records)))
		}
		if rs.tracer != nil {
			rs.tracer.ObserveStage(telemetry.StageSealAttach, importStart, time.Since(importStart))
		}
		var key consensus.Digest
		key, rs.keyBuf = consensus.DigestRecordsInto(rs.keyBuf, records)
		if len(rs.queue) > 0 && rs.queue[0].key == key {
			rs.queuedRecords -= len(rs.queue[0].records)
			rs.queue = rs.queue[1:]
			if rs.proposed > 0 {
				rs.proposed--
			}
		}
		if rs.mQueuedRec != nil {
			rs.mQueuedRec.Set(float64(rs.queuedRecords))
		}
	}
	rs.schedulePump()
}

// --- crash / recovery -----------------------------------------------------------

// Crash takes a replica down: consensus participant, aggregator loops and
// (via OnCrash) the host substrate — then immediately fails its devices
// over to live replicas as foreign-feeder guests.
func (rs *Cluster) Crash(id string) error {
	rep, ok := rs.replicas[id]
	if !ok {
		return fmt.Errorf("core: unknown replica %q", id)
	}
	if rep.crashed {
		return nil
	}
	rep.crashed = true
	rep.Consensus.Crash()
	rep.Agg.Pause()
	if rs.OnCrash != nil {
		rs.OnCrash(id)
	}
	rs.crashes++
	rs.failover(id)
	rs.setHomeDown(id, true)
	return nil
}

// setHomeDown flips the home-unreachable marking on every live replica's
// roaming temporaries homed at id: while the home is dark their data must
// be recorded where it is acknowledged, not forwarded into a black hole.
func (rs *Cluster) setHomeDown(id string, down bool) {
	for _, other := range rs.ids {
		rep := rs.replicas[other]
		if other == id || rep.crashed {
			continue
		}
		for _, m := range rep.Agg.Members() {
			if m.Home == id && m.Kind == protocol.MemberTemporary && !m.ForeignFeeder {
				rep.Agg.SetHomeDown(m.DeviceID, down)
			}
		}
	}
}

// Recover brings a replica back: consensus catch-up (the decided sequence
// replays and the missed blocks import in order), aggregator loops, host
// substrate — then reclaims the devices failover scattered, whose frozen
// memberships (and any pre-crash pending records) survived the outage.
func (rs *Cluster) Recover(id string) error {
	rep, ok := rs.replicas[id]
	if !ok {
		return fmt.Errorf("core: unknown replica %q", id)
	}
	if !rep.crashed {
		return nil
	}
	rep.crashed = false
	rep.Consensus.Recover()
	rep.Agg.Resume()
	if rs.OnRecover != nil {
		rs.OnRecover(id)
	}
	// Roamed-out temporaries homed here resume forwarding: what their
	// hosts recorded during the outage stays put (the hosts' watermarks
	// gate the retransmits), and fresh data flows home again.
	rs.setHomeDown(id, false)
	// Sorted reclaim order keeps the simulation deterministic.
	reclaim := make([]string, 0, len(rs.guests))
	for dev, g := range rs.guests {
		if g.from == id {
			reclaim = append(reclaim, dev)
		}
	}
	sort.Strings(reclaim)
	for _, dev := range reclaim {
		g := rs.guests[dev]
		if target, ok := rs.replicas[g.to]; ok {
			// Hand the duplicate-suppression frontier back before the
			// release: what the target acknowledged, the recovered home
			// must not store again.
			if mem, ok := target.Agg.Member(dev); ok {
				rep.Agg.SyncSeq(dev, mem.LastSeq)
			}
			target.Agg.ReleaseTemporary(dev)
		}
		if rs.Steer != nil {
			rs.Steer(dev, id)
		}
		delete(rs.guests, dev)
	}
	rs.recoveries++
	return nil
}

// Crashes and Recoveries report failure-injection counts.
func (rs *Cluster) Crashes() int    { return rs.crashes }
func (rs *Cluster) Recoveries() int { return rs.recoveries }

// Corrupt turns a live replica Byzantine: its consensus participation is
// hijacked by a consensus.Adversary running the given behavior suite (0 =
// the default full suite), its chain freezes, and the fleet audit skips it
// until Restore. Ingest and device acknowledgements are untouched — a
// compromised consensus stack does not stop the node's radio — so every
// record acked through this replica must still seal via the honest quorum's
// replication (that is exactly what the chaos ledger audit proves).
func (rs *Cluster) Corrupt(id string, behaviors consensus.Behavior) error {
	rep, ok := rs.replicas[id]
	if !ok {
		return fmt.Errorf("core: unknown replica %q", id)
	}
	if rep.crashed {
		return fmt.Errorf("core: replica %q is crashed, cannot corrupt", id)
	}
	if rep.byzantine {
		return nil
	}
	if _, err := rs.cluster.Corrupt(id, behaviors); err != nil {
		return err
	}
	rep.byzantine = true
	rs.corruptions++
	return nil
}

// Restore rejoins a Byzantine replica to the protocol: the adversary is
// detached and the replica catches up on everything decided during its
// stint (syncreq replay -> decided attestations -> chain imports), after
// which ChainsIdentical covers it again.
func (rs *Cluster) Restore(id string) error {
	rep, ok := rs.replicas[id]
	if !ok {
		return fmt.Errorf("core: unknown replica %q", id)
	}
	if !rep.byzantine {
		return nil
	}
	if err := rs.cluster.Restore(id); err != nil {
		return err
	}
	rep.byzantine = false
	rs.restores++
	return nil
}

// Corruptions and Restores report Byzantine-injection counts.
func (rs *Cluster) Corruptions() int { return rs.corruptions }
func (rs *Cluster) Restores() int    { return rs.restores }

// failover plans and executes the rescue of a crashed replica's devices.
// The planner sees the dead replica at zero capacity — infinite load, every
// device migratable — and distributes them across live neighbours without
// the per-round churn cap (stranding a device is worse than churn).
func (rs *Cluster) failover(dead string) {
	cfg := rs.cfg.Balance
	cfg.MaxMovesPerRound = int(^uint(0) >> 1)
	plan, _ := loadbalance.Plan(cfg, rs.snapshot())
	for _, m := range plan {
		if m.From != dead {
			continue // periodic rebalancing handles live hot spots
		}
		if rs.memberElsewhere(m.DeviceID, dead) {
			// A master whose device currently roams is already served by
			// a live replica (which now records its data — see
			// SetHomeDown); "rescuing" the stale home membership would
			// double-home the device and hijack its reporting.
			continue
		}
		rs.execMigration(m, true)
	}
}

// memberElsewhere reports whether a device holds a membership at any live
// replica other than except.
func (rs *Cluster) memberElsewhere(deviceID, except string) bool {
	for _, id := range rs.ids {
		rep := rs.replicas[id]
		if id == except || rep.crashed {
			continue
		}
		if _, ok := rep.Agg.Member(deviceID); ok {
			return true
		}
	}
	return false
}

// --- rebalancing ----------------------------------------------------------------

// snapshot builds the planner's view of every replica.
func (rs *Cluster) snapshot() []loadbalance.AggregatorState {
	states := make([]loadbalance.AggregatorState, 0, len(rs.ids))
	for _, id := range rs.ids {
		states = append(states, rs.stateOf(id))
	}
	return states
}

// stateOf converts one replica's TDMA occupancy into an AggregatorState.
// Live replicas offer migratable temporaries (masters are pinned to their
// feeder); a crashed replica has zero capacity and every device migratable.
func (rs *Cluster) stateOf(id string) loadbalance.AggregatorState {
	if rs.SnapshotOverride != nil {
		return rs.SnapshotOverride(id)
	}
	rep := rs.replicas[id]
	st := loadbalance.AggregatorState{ID: id, Devices: make(map[string]bool)}
	if !rep.crashed {
		_, st.Capacity = rep.Agg.SlotStats()
	}
	for _, m := range rep.Agg.Members() {
		migratable := m.Kind == protocol.MemberTemporary && !m.ForeignFeeder
		if rep.crashed {
			migratable = true
		}
		st.Devices[m.DeviceID] = migratable
	}
	for _, other := range rs.ids {
		if other != id && !rs.replicas[other].crashed {
			st.Neighbors = append(st.Neighbors, other)
		}
	}
	return st
}

// RebalanceNow snapshots occupancy, runs the planner and executes the
// resulting migrations. Drivers that need window-aligned churn call this at
// window boundaries instead of (or in addition to) the periodic ticker.
func (rs *Cluster) RebalanceNow() []loadbalance.Migration {
	plan, _ := loadbalance.Plan(rs.cfg.Balance, rs.snapshot())
	var done []loadbalance.Migration
	for _, m := range plan {
		src, ok := rs.replicas[m.From]
		if !ok {
			continue
		}
		if rs.execMigration(m, src.crashed) {
			done = append(done, m)
		}
	}
	return done
}

// execMigration moves one device with the Fig. 3 membership machinery,
// control-plane driven: release the slot at the source, temporary
// registration at the target (the orchestrator vouches in place of the
// home-verification round trip, and hands over the acknowledged-sequence
// watermark so nothing is double-stored). A failover move admits the
// device as a foreign-feeder guest — its home cannot vouch for it and its
// draw stays on the dead network's feeder — and leaves the frozen source
// membership in place for the recovery reclaim.
func (rs *Cluster) execMigration(m loadbalance.Migration, failover bool) bool {
	src, okS := rs.replicas[m.From]
	dst, okD := rs.replicas[m.To]
	if !okS || !okD || dst.crashed {
		return false
	}
	mem, ok := src.Agg.Member(m.DeviceID)
	if !ok {
		return false
	}
	if failover {
		if err := dst.Agg.AdmitGuest(m.DeviceID, mem.Home, true, mem.LastSeq); err != nil {
			return false
		}
		rs.guests[m.DeviceID] = guestPlacement{from: m.From, to: m.To}
		if rs.mFailovers != nil {
			rs.mFailovers.Inc()
			rs.mGuests.Inc()
		}
	} else {
		// Target first, then release: a failed admission must leave the
		// device where it is, not strand it membership-less. When the
		// target already holds a membership — a roamer migrated back to
		// its own home — only the watermark handoff is needed.
		if _, atHome := dst.Agg.Member(m.DeviceID); atHome {
			dst.Agg.SyncSeq(m.DeviceID, mem.LastSeq)
		} else if err := dst.Agg.AdmitGuest(m.DeviceID, mem.Home, false, mem.LastSeq); err != nil {
			return false
		} else {
			if mem.HomeDown {
				dst.Agg.SetHomeDown(m.DeviceID, true)
			}
			if rs.mGuests != nil {
				rs.mGuests.Inc()
			}
		}
		src.Agg.ReleaseTemporary(m.DeviceID)
		if rs.mRoams != nil {
			rs.mRoams.Inc()
		}
	}
	if rs.Steer != nil {
		rs.Steer(m.DeviceID, m.To)
	}
	rs.migrations = append(rs.migrations, m)
	return true
}
