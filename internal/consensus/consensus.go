// Package consensus implements the paper's future-work mode: "In a truly
// decentralized network, the aggregators' role could be performed by the
// devices themselves having a consensus among themselves. In that case, the
// consumption data must be broadcast to the network and a common blockchain
// is formed once a consensus is achieved among them."
//
// The protocol is a compact PBFT-style three-phase commit (pre-prepare /
// prepare / commit) over the simulated network: n = 3f+1 replicas tolerate
// f faulty devices; the view's leader batches broadcast consumption records
// into a proposal, and a 2f+1 quorum of commits decides it. A view change
// (leader rotation) fires when a proposal fails to decide within a timeout.
// This intentionally omits PBFT's checkpointing and new-view proofs: blocks
// decide in strict sequence order, which is what the metering ledger needs.
package consensus

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"time"

	"decentmeter/internal/blockchain"
	"decentmeter/internal/sim"
	"decentmeter/internal/telemetry"
)

// instruments is the cluster-wide telemetry set, shared by every replica
// (nil when no registry is wired; every touch is nil-guarded so the
// agreement hot path pays one predictable branch).
type instruments struct {
	proposals     *telemetry.Counter   // batches entering agreement
	votes         *telemetry.Counter   // prepare/commit votes processed
	viewChanges   *telemetry.Counter   // leader rotations
	decides       *telemetry.Counter   // slots finalized
	records       *telemetry.Counter   // records across decided slots
	authFailures  *telemetry.Counter   // messages dropped for a bad auth tag
	equivocations *telemetry.Counter   // provable double-proposals detected
	floodDrops    *telemetry.Counter   // vote messages beyond the seq horizon
	syncTruncated *telemetry.Counter   // syncreq replays cut at the cap
	inflight      *telemetry.Gauge     // leader's uncommitted pipelined slots
	decideUs      *telemetry.Histogram // propose -> local decide wall latency
	tracer        *telemetry.Tracer
}

// decideBoundsUs buckets propose->decide wall latency, µs.
var decideBoundsUs = []float64{25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000}

// DefaultMaxSyncReplay is the per-syncreq replay cap (Replica.MaxSyncReplay):
// one catch-up request unicasts at most this many decided record batches back
// to the requester, so a tight syncreq loop cannot amplify into unbounded
// full-batch traffic. Truncations count in consensus.syncreq_truncated.
const DefaultMaxSyncReplay = 64

// slotHorizonSlack is how far beyond the pipelined window a message's seq
// may run before the replica refuses to allocate vote state for it. Honest
// traffic never exceeds frontier+Window (plus broadcast reordering well
// under the slack); anything further is a flood and is dropped, counted in
// consensus.flood_drops.
const slotHorizonSlack = 64

// minSyncReqGap rate-limits receive-triggered syncreqs (see
// Replica.lastSyncReq). Explicit recovery (Recover) bypasses the gap.
const minSyncReqGap = 10 * time.Millisecond

// Phase labels a proposal's progress.
type Phase int

// Proposal phases.
const (
	PhaseIdle Phase = iota
	PhasePrePrepared
	PhasePrepared
	PhaseCommitted
)

// Digest identifies a proposal's content.
type Digest [sha256.Size]byte

// digestInto computes the proposal digest using buf (capacity reused, length
// ignored) as marshalling scratch: every record's canonical encoding is
// appended via blockchain.Record.AppendMarshal and the concatenation is
// hashed in one sha256.Sum256 on the stack. The byte stream is identical to
// the historical per-record Marshal()+sha256.New() digest (pinned by
// TestDigestGoldenVectors), so the scratch path is a pure allocation win,
// not a format break. The possibly-grown buffer is returned for reuse.
func digestInto(buf []byte, records []blockchain.Record, meta []byte) (Digest, []byte) {
	buf = buf[:0]
	for _, r := range records {
		buf = r.AppendMarshal(buf)
	}
	if len(meta) > 0 {
		buf = append(buf, 0xff) // domain-separate the metadata blob
		buf = append(buf, meta...)
	}
	return sha256.Sum256(buf), buf
}

func digestOf(records []blockchain.Record, meta []byte) Digest {
	d, _ := digestInto(nil, records, meta)
	return d
}

// DigestRecords hashes a record batch alone (no metadata). Orchestration
// layers use it to correlate a decided batch with a submitted one whose
// metadata was re-stamped across a view change.
func DigestRecords(records []blockchain.Record) Digest {
	return digestOf(records, nil)
}

// DigestRecordsInto is DigestRecords with a caller-owned scratch buffer, for
// hosts (core.Cluster) that correlate batches on every decide.
func DigestRecordsInto(buf []byte, records []blockchain.Record) (Digest, []byte) {
	return digestInto(buf, records, nil)
}

// Message is a consensus protocol message.
type Message struct {
	// Kind is "preprepare", "prepare", "commit".
	Kind string
	// View and Seq locate the slot.
	View, Seq uint64
	// From is the sender replica.
	From string
	// Digest commits to the proposal body (records and metadata).
	Digest Digest
	// Records is the body (pre-prepare, decided and syncreq replay).
	Records []blockchain.Record
	// Meta is an opaque proposer-supplied blob agreed alongside the
	// records — the replicated-aggregator tier carries the pre-sealed
	// block header and signature here so every replica appends a
	// byte-identical block.
	Meta []byte
	// Auth is the sender's truncated HMAC-SHA256 tag over (kind, view,
	// seq, digest, from); see auth.go. The Net signs on behalf of the true
	// sender and verifies injected traffic before delivery, so a replica
	// never counts a vote or attestation whose From was spoofed.
	Auth AuthTag
}

// Net is the broadcast fabric among replicas (the WAN of the device
// cluster). A broadcast is one scheduled event that fans the shared message
// out to its recipients in ID order — the same per-destination delivery
// order the per-recipient events used to produce, without allocating a
// closure and an ids sort per recipient. Delivery objects are pooled, so
// steady-state broadcasting does not grow the heap; the Records/Meta slices
// ride through by reference (proposals are immutable once handed to the
// protocol).
type Net struct {
	env     *sim.Env
	latency time.Duration
	nodes   map[string]*Replica
	// order is every registered replica sorted by ID — the recipient walk
	// order of broadcast (refreshed on registration).
	order []*Replica
	// Partitioned pairs drop messages (failure injection).
	partitioned map[[2]string]bool
	// free is the delivery pool (LIFO for cache warmth).
	free []*delivery
	// keys authenticates every message (nil = auth disabled, benchmark
	// ablation only). Honest sends are signed here, once per message, on
	// behalf of the true sender; injected traffic is verified at delivery.
	keys *Keychain
	// ins mirrors the cluster instrument set for transport-level drops
	// (auth failures happen before any replica sees the message).
	ins *instruments
}

// delivery is one pooled broadcast in flight: the shared message plus the
// recipients snapshotted at send time (partition filter applied at send,
// crash filter at delivery — exactly the old per-recipient semantics).
type delivery struct {
	net     *Net
	msg     Message
	targets []*Replica
	// verified marks transport-signed sends: the Net tagged the message
	// itself with the true sender's key, so re-deriving the same HMAC at
	// delivery would prove nothing. Injected traffic arrives unverified
	// and pays one real verify for the whole fan-out (same bytes, same
	// verdict for every recipient).
	verified bool
	run      func() // pre-bound deliver, so Schedule gets a reused closure
}

func (d *delivery) deliver() {
	ok := d.verified
	if !ok && d.net.keys != nil {
		ok = d.net.keys.verify(&d.msg)
		if !ok && d.net.ins != nil && d.net.ins.authFailures != nil {
			d.net.ins.authFailures.Inc()
		}
	} else if !ok {
		ok = true // auth disabled: every message passes
	}
	if ok {
		for _, t := range d.targets {
			if !t.crashed {
				t.receive(d.msg)
			}
		}
	}
	d.msg = Message{} // drop slice references while pooled
	d.targets = d.targets[:0]
	d.verified = false
	d.net.free = append(d.net.free, d)
}

// NewNet creates the fabric.
func NewNet(env *sim.Env, latency time.Duration) *Net {
	if latency <= 0 {
		latency = 2 * time.Millisecond
	}
	return &Net{
		env:         env,
		latency:     latency,
		nodes:       make(map[string]*Replica),
		partitioned: make(map[[2]string]bool),
	}
}

// register adds a replica to the fabric and keeps the broadcast order
// sorted.
func (n *Net) register(r *Replica) {
	n.nodes[r.ID] = r
	n.order = append(n.order, r)
	sort.Slice(n.order, func(i, j int) bool { return n.order[i].ID < n.order[j].ID })
}

// Partition cuts (or heals) the link between two replicas.
func (n *Net) Partition(a, b string, cut bool) {
	n.partitioned[[2]string{a, b}] = cut
	n.partitioned[[2]string{b, a}] = cut
}

// getDelivery pops a pooled delivery (or allocates the pool's first).
func (n *Net) getDelivery() *delivery {
	if k := len(n.free); k > 0 {
		d := n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
		return d
	}
	d := &delivery{net: n}
	d.run = d.deliver
	return d
}

// broadcast delivers msg to every replica except the sender. The honest
// send path: when the caller is the message's claimed sender, the Net signs
// with that sender's key and the delivery skips re-verification (the tag is
// correct by construction). A caller broadcasting someone else's message
// (adversary injection via injectBroadcast) never signs here.
func (n *Net) broadcast(from string, msg Message) {
	d := n.getDelivery()
	for _, node := range n.order {
		if node.ID == from {
			continue
		}
		if len(n.partitioned) > 0 && n.partitioned[[2]string{from, node.ID}] {
			continue
		}
		d.targets = append(d.targets, node)
	}
	if len(d.targets) == 0 {
		n.free = append(n.free, d)
		return
	}
	if from == msg.From {
		if n.keys != nil {
			n.keys.signAs(from, &msg)
		}
		d.verified = true
	}
	d.msg = msg
	n.env.Schedule(n.latency, d.run)
}

// unicast delivers msg to a single replica (signed like broadcast when the
// caller is the claimed sender). Honest code uses it for syncreq replay —
// a catch-up stream addressed to one requester must not amplify into
// cluster-wide record-batch broadcasts — and the adversary harness uses it
// to show different digests to different peers.
func (n *Net) unicast(from, to string, msg Message) {
	node, ok := n.nodes[to]
	if !ok || to == from {
		return
	}
	if len(n.partitioned) > 0 && n.partitioned[[2]string{from, to}] {
		return
	}
	d := n.getDelivery()
	d.targets = append(d.targets, node)
	if from == msg.From {
		if n.keys != nil {
			n.keys.signAs(from, &msg)
		}
		d.verified = true
	}
	d.msg = msg
	n.env.Schedule(n.latency, d.run)
}

// injectBroadcast sends msg exactly as supplied — no signing, no trust —
// from the network position of `from` (which may differ from msg.From: a
// spoofed sender is the point). Delivery runs the real verification path;
// the adversary harness and auth tests are the only callers.
func (n *Net) injectBroadcast(from string, msg Message) {
	n.broadcast(injectedSender(from, msg), msg)
}

// injectUnicast is injectBroadcast to a single target.
func (n *Net) injectUnicast(from, to string, msg Message) {
	n.unicast(injectedSender(from, msg), to, msg)
}

// injectedSender keeps an injected send unsigned even when the claimed
// From happens to equal the injecting node (e.g. replaying one's own old
// message): the send path signs and trusts only when caller == msg.From,
// so that case is routed under a sentinel position matching no registered
// replica. The sentinel also bypasses the sender partition filter — an
// attacker replaying from a new network position is exactly the threat.
func injectedSender(from string, msg Message) string {
	if from == msg.From {
		return "\x00injected:" + from
	}
	return from
}

// slot tracks one (view, seq) proposal's votes. Prepare/commit votes are
// bitmasks indexed by the cluster-wide replica index (clusters are capped at
// 64 members), so a slot costs one small struct instead of five maps.
type slot struct {
	phase     Phase
	digest    Digest
	records   []blockchain.Record
	meta      []byte
	prepares  uint64
	commits   uint64
	committed bool
	// counted marks a slot currently in the replica's uncommitted
	// in-flight count (arms the view timer; see armViewTimer).
	counted bool
	// early buffers votes that arrive before the pre-prepare (broadcast
	// reordering); they replay once the proposal is known.
	early []Message
	// proposedAt stamps the pre-prepare arrival for decide-latency
	// telemetry (zero when the cluster is uninstrumented).
	proposedAt time.Time
	// attests counts "decided" attestations per digest, for catch-up by
	// replicas that missed the vote rounds. f+1 matching attestations
	// prove at least one honest replica decided that content. The maps are
	// lazily allocated — the happy path never attests.
	attests       map[Digest]map[string]bool
	attestRecords map[Digest][]blockchain.Record
	attestMeta    map[Digest][]byte
}

// Replica is one device participating in consensus.
type Replica struct {
	ID  string
	net *Net
	env *sim.Env

	ids     []string       // all replica IDs, sorted (defines leader rotation)
	idIndex map[string]int // replica ID -> vote-bitmask index (shared per cluster)
	f       int            // fault tolerance

	view    uint64
	nextSeq uint64
	// proposeSeq is the next slot this replica assigns when leading; it
	// runs at most Window ahead of nextSeq (pipelined agreement) and snaps
	// back to nextSeq on a view change, which abandons undecided slots.
	proposeSeq uint64
	// Window is the number of proposals the leader may keep in flight
	// before Propose returns ErrWindowFull (pipelined agreement; <= 0 or 1
	// is the classic one-outstanding-proposal protocol). Delivery at
	// OnDecide stays strictly in sequence order regardless of depth.
	Window int
	slots  map[uint64]*slot
	// blocks is the decided log, indexed by sequence number; Release nils
	// the batches below released and deletes their slots.
	blocks   [][]blockchain.Record
	released uint64
	// decided is the flattened view of blocks, extended lazily and
	// incrementally by Decided(): flattened counts the blocks already
	// folded in. Commit never touches it, so the agreement hot path pays
	// nothing for a log nobody is reading, and an audit that reads it
	// every window pays only for the blocks decided since its last read —
	// not an O(n) rebuild (or copy) per call.
	decided   []*blockchain.Record
	flattened int

	// digestBuf is the proposal-digest marshalling scratch (see digestInto).
	digestBuf []byte
	// uncommitted counts in-flight pre-prepared slots; the view timer is
	// armed while it is non-zero.
	uncommitted int

	viewTimer sim.EventRef
	// viewTimerFn is the timer callback, bound once so arming does not
	// allocate; viewTimerView is the view it was armed in.
	viewTimerFn   func()
	viewTimerView uint64
	// ViewTimeout triggers leader rotation (default 500 ms).
	ViewTimeout time.Duration
	// lastLeaderSign is the last instant the current leader was heard.
	lastLeaderSign time.Duration
	// lastSyncReq rate-limits receive-triggered catch-up requests: a burst
	// of decided attestations beyond the frontier must not turn into a
	// syncreq per attestation (each one triggers full-batch replays).
	lastSyncReq time.Duration
	// MaxSyncReplay caps how many decided slots one syncreq replays
	// (default DefaultMaxSyncReplay). A requester far behind issues another
	// syncreq when the capped replay lands it on a still-missing decision.
	MaxSyncReplay int

	crashed bool

	// adv, when non-nil, hijacks this replica's protocol behavior (receive,
	// liveness ticks and proposals) — see adversary.go. The replica keeps
	// its key, so it can sign as itself but nobody else.
	adv *Adversary

	// ins is the cluster-shared instrument set (nil when uninstrumented).
	ins *instruments

	// OnDecide fires when a block decides locally.
	OnDecide func(seq uint64, records []blockchain.Record)
	// OnDecideMeta fires alongside OnDecide with the proposal's agreed
	// metadata blob (nil when the proposer attached none).
	OnDecideMeta func(seq uint64, records []blockchain.Record, meta []byte)
}

// voteBit returns the bitmask bit for a sender, or 0 for unknown senders
// (their votes are ignored).
func (r *Replica) voteBit(from string) uint64 {
	i, ok := r.idIndex[from]
	if !ok {
		return 0
	}
	return uint64(1) << uint(i)
}

// Cluster is a set of replicas over one Net.
type Cluster struct {
	Net      *Net
	Replicas map[string]*Replica
	ids      []string
	f        int
}

// NewCluster creates n = len(ids) replicas tolerating f faults. n must be
// at least 3f+1 and at most 64 (vote bookkeeping is a bitmask; a PBFT-style
// all-to-all protocol is quadratic in n anyway, so larger clusters would be
// a design change, not a parameter).
func NewCluster(env *sim.Env, ids []string, f int, latency time.Duration) (*Cluster, error) {
	if len(ids) < 3*f+1 {
		return nil, fmt.Errorf("consensus: %d replicas cannot tolerate f=%d (need %d)", len(ids), f, 3*f+1)
	}
	if len(ids) > 64 {
		return nil, fmt.Errorf("consensus: %d replicas exceeds the 64-member limit", len(ids))
	}
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	idIndex := make(map[string]int, len(sorted))
	for i, id := range sorted {
		idIndex[id] = i
	}
	net := NewNet(env, latency)
	// Provision per-replica HMAC keys from a random cluster secret — auth
	// is on by default. Deterministic runs re-key via SetAuthSecret;
	// benchmark ablation turns it off via DisableAuth.
	secret := make([]byte, 32)
	if _, err := rand.Read(secret); err != nil {
		return nil, fmt.Errorf("consensus: provisioning auth secret: %w", err)
	}
	net.keys = NewKeychain(secret, sorted)
	c := &Cluster{Net: net, Replicas: make(map[string]*Replica), ids: sorted, f: f}
	for _, id := range sorted {
		r := &Replica{
			ID:            id,
			net:           net,
			env:           env,
			ids:           sorted,
			idIndex:       idIndex,
			f:             f,
			slots:         make(map[uint64]*slot),
			ViewTimeout:   500 * time.Millisecond,
			MaxSyncReplay: DefaultMaxSyncReplay,
			lastSyncReq:   -time.Hour, // the first catch-up request always passes
		}
		r.viewTimerFn = func() {
			if r.crashed || r.view != r.viewTimerView {
				return
			}
			r.advanceView()
		}
		net.register(r)
		c.Replicas[id] = r
		r.lastLeaderSign = env.Now()
		// Leader-liveness loop: leaders emit heartbeats, followers
		// rotate the view when the leader goes silent for a full
		// timeout.
		env.Ticker(r.ViewTimeout/2, func(sim.Time) { r.livenessTick() })
	}
	return c, nil
}

// SetWindow sets every replica's pipelined-agreement window (the number of
// proposals a leader may keep in flight; see Replica.Window).
func (c *Cluster) SetWindow(w int) {
	for _, r := range c.Replicas {
		r.Window = w
	}
}

// SetRegistry wires cluster-wide instruments onto reg under prefix
// (default "consensus"): proposals, votes, view_changes, decides,
// decided_records, auth_failures, equivocations_detected, flood_drops,
// syncreq_truncated, inflight and decide_us. tracer, when non-nil,
// additionally records the consensus_decide journey stage. Call before
// driving traffic.
func (c *Cluster) SetRegistry(reg *telemetry.Registry, prefix string, tracer *telemetry.Tracer) {
	if reg == nil && tracer == nil {
		return
	}
	if prefix == "" {
		prefix = "consensus"
	}
	ins := &instruments{tracer: tracer}
	if reg != nil {
		ins.proposals = reg.Counter(prefix + ".proposals")
		ins.votes = reg.Counter(prefix + ".votes")
		ins.viewChanges = reg.Counter(prefix + ".view_changes")
		ins.decides = reg.Counter(prefix + ".decides")
		ins.records = reg.Counter(prefix + ".decided_records")
		ins.authFailures = reg.Counter(prefix + ".auth_failures")
		ins.equivocations = reg.Counter(prefix + ".equivocations_detected")
		ins.floodDrops = reg.Counter(prefix + ".flood_drops")
		ins.syncTruncated = reg.Counter(prefix + ".syncreq_truncated")
		ins.inflight = reg.Gauge(prefix + ".inflight")
		ins.decideUs = reg.Histogram(prefix+".decide_us", decideBoundsUs)
	}
	for _, r := range c.Replicas {
		r.ins = ins
	}
	c.Net.ins = ins
}

// SetAuthSecret re-derives every replica's HMAC key from a caller-chosen
// cluster secret (deterministic provisioning for reproducible runs).
func (c *Cluster) SetAuthSecret(secret []byte) {
	c.Net.keys = NewKeychain(secret, c.ids)
}

// DisableAuth turns message authentication off. Benchmark ablation only —
// an unauthenticated cluster trusts every From field on the wire.
func (c *Cluster) DisableAuth() { c.Net.keys = nil }

// AuthEnabled reports whether messages are authenticated.
func (c *Cluster) AuthEnabled() bool { return c.Net.keys != nil }

// Leader returns the leader ID for a view.
func (c *Cluster) Leader(view uint64) string {
	return c.ids[int(view)%len(c.ids)]
}

// leader returns the current view's leader from a replica's perspective.
func (r *Replica) leader() string {
	return r.ids[int(r.view)%len(r.ids)]
}

// quorum is 2f+1.
func (r *Replica) quorum() int { return 2*r.f + 1 }

// Crash takes the replica offline.
func (r *Replica) Crash() { r.crashed = true }

// Recover brings the replica back and immediately asks the cluster to
// replay every decided slot from its delivery frontier, so a crashed
// replica catches up on the sequence it missed instead of waiting to
// stumble over a future decision.
func (r *Replica) Recover() {
	if !r.crashed {
		return
	}
	r.crashed = false
	r.lastLeaderSign = r.env.Now()
	r.lastSyncReq = r.env.Now() // explicit recovery bypasses the receive-path gap
	r.net.broadcast(r.ID, Message{Kind: "syncreq", View: r.view, Seq: r.nextSeq, From: r.ID})
}

// View returns the replica's current view.
func (r *Replica) View() uint64 { return r.view }

// Frontier returns the next undelivered sequence number: every slot below
// it has decided locally (and, for the replicated-aggregator tier, been
// applied to this replica's chain).
func (r *Replica) Frontier() uint64 { return r.nextSeq }

// Decided returns the flattened decided record log. The flat view is
// cached and extended incrementally — only blocks decided since the last
// call are folded in — and returned as a capacity-capped view of the
// append-only internal slice: callers may read and even append (a copy
// triggers on append), but must not reorder or overwrite elements. Fleet
// ledger audits call this every window over runs of millions of records —
// the former per-call copy made those audits O(n²) in total.
func (r *Replica) Decided() []*blockchain.Record {
	for _, blk := range r.blocks[r.flattened:] {
		for i := range blk {
			r.decided = append(r.decided, &blk[i])
		}
	}
	r.flattened = len(r.blocks)
	return r.decided[:len(r.decided):len(r.decided)]
}

// DecidedBlocks returns the per-slot decided batches as a capacity-capped
// view (same contract as Decided). A released batch is nil.
func (r *Replica) DecidedBlocks() [][]blockchain.Record {
	return r.blocks[:len(r.blocks):len(r.blocks)]
}

// Release drops the decided batches at or below seq from memory: their
// decided-log entries and the committed slots catch-up replay serves. A
// host calls it once those batches are durable elsewhere; a syncreq for a
// released slot replays nothing, and Decided no longer lists them.
// Undecided slots are never released.
func (r *Replica) Release(seq uint64) {
	end := min(seq+1, r.nextSeq)
	if end <= r.released {
		return
	}
	for s := r.released; s < end; s++ {
		r.blocks[s] = nil
		delete(r.slots, s)
	}
	r.released = end
	// The flat view points into the released batches: rebuild it lazily.
	r.decided, r.flattened = nil, 0
}

// ErrNotLeader is returned when Propose is called on a follower.
var ErrNotLeader = errors.New("consensus: not the current leader")

// ErrWindowFull is returned when the leader already has Window proposals in
// flight; the caller retries after the next decision frees a slot.
var ErrWindowFull = errors.New("consensus: proposal window full")

// Propose starts agreement on a batch. Only the current leader proposes;
// followers buffer via Submit.
func (r *Replica) Propose(records []blockchain.Record) error {
	return r.ProposeMeta(records, nil)
}

// ProposeMeta starts agreement on a batch plus an opaque metadata blob the
// digest also commits to (e.g. a pre-sealed block header + signature).
//
// The records slice is handed to the protocol as a shared immutable batch:
// it is broadcast, retained by decided slots for catch-up replay, and
// delivered to every replica's OnDecide without further copying, so the
// caller must not mutate it afterwards. Up to Window proposals may be in
// flight at once (ErrWindowFull beyond that); decisions still deliver in
// strict sequence order.
func (r *Replica) ProposeMeta(records []blockchain.Record, meta []byte) error {
	if r.adv != nil {
		return r.adv.proposeMeta(records, meta)
	}
	return r.proposeMetaHonest(records, meta)
}

// proposeMetaHonest is the real proposal path (see ProposeMeta); the
// adversary hijack above replaces it wholesale for corrupted replicas.
func (r *Replica) proposeMetaHonest(records []blockchain.Record, meta []byte) error {
	if r.crashed {
		return errors.New("consensus: replica crashed")
	}
	if r.leader() != r.ID {
		return ErrNotLeader
	}
	if len(records) == 0 {
		return errors.New("consensus: empty proposal")
	}
	if r.proposeSeq < r.nextSeq {
		r.proposeSeq = r.nextSeq
	}
	window := uint64(1)
	if r.Window > 1 {
		window = uint64(r.Window)
	}
	if r.proposeSeq-r.nextSeq >= window {
		return ErrWindowFull
	}
	seq := r.proposeSeq
	if r.ins != nil && r.ins.proposals != nil {
		r.ins.proposals.Inc()
	}
	var d Digest
	d, r.digestBuf = digestInto(r.digestBuf, records, meta)
	msg := Message{
		Kind:    "preprepare",
		View:    r.view,
		Seq:     seq,
		From:    r.ID,
		Digest:  d,
		Records: records,
		Meta:    meta,
	}
	r.proposeSeq = seq + 1
	r.receive(msg) // self-delivery
	r.net.broadcast(r.ID, msg)
	return nil
}

// Submit hands records to the cluster: the current leader proposes them,
// a follower forwards to the leader (modelled as a direct schedule).
func (c *Cluster) Submit(records []blockchain.Record) error {
	leader := c.Replicas[c.Leader(c.anyView())]
	return leader.Propose(records)
}

// CurrentView returns the highest view among live replicas — the view the
// cluster is operating in once heartbeats settle.
func (c *Cluster) CurrentView() uint64 { return c.anyView() }

// IDs returns the sorted replica IDs (the leader-rotation order).
func (c *Cluster) IDs() []string { return append([]string(nil), c.ids...) }

// anyView picks the highest view among live replicas (they track together
// in the absence of faults).
func (c *Cluster) anyView() uint64 {
	var v uint64
	for _, r := range c.Replicas {
		if !r.crashed && r.view > v {
			v = r.view
		}
	}
	return v
}

// livenessTick drives heartbeats (leader) and the silence watchdog
// (followers).
func (r *Replica) livenessTick() {
	if r.crashed {
		return
	}
	if r.adv != nil {
		r.adv.tick()
		return
	}
	if r.leader() == r.ID {
		r.net.broadcast(r.ID, Message{Kind: "heartbeat", View: r.view, From: r.ID})
		return
	}
	if r.env.Now()-r.lastLeaderSign > r.ViewTimeout {
		r.advanceView()
	}
}

// receive processes one protocol message.
func (r *Replica) receive(msg Message) {
	if r.crashed {
		return
	}
	if r.adv != nil {
		// Corrupted replica: the adversary decides what (if anything)
		// happens with this message; the honest state machine is frozen.
		r.adv.observe(msg)
		return
	}
	// View adoption: a heartbeat or pre-prepare from the legitimate leader
	// of a later view proves a quorum moved on (e.g. while this replica was
	// crashed); jump forward instead of walking one silence timeout per
	// missed view.
	if msg.View > r.view && (msg.Kind == "heartbeat" || msg.Kind == "preprepare") &&
		r.ids[int(msg.View)%len(r.ids)] == msg.From {
		r.view = msg.View
		r.lastLeaderSign = r.env.Now()
		r.dropUncommittedSlots()
	}
	if msg.From == r.leader() && msg.View == r.view {
		r.lastLeaderSign = r.env.Now()
	}
	if msg.Kind == "heartbeat" {
		return
	}
	if msg.Kind != "decided" && msg.Kind != "syncreq" && msg.View != r.view {
		// Stale or future view: future prepares/commits for the next
		// view are dropped (retransmission is the leader's job; the
		// metering workload re-proposes every interval). Decided
		// attestations and sync requests are view-independent: they
		// describe finalized slots.
		return
	}
	if msg.Kind == "syncreq" {
		// Answer before any slot bookkeeping: a request describes the
		// *requester's* frontier and must never allocate state here.
		r.replaySync(msg)
		return
	}
	if msg.Seq < r.released {
		return // decided, durable and forgotten: nothing left to vote on
	}
	// Seq horizon: refuse to allocate vote state for slots far beyond the
	// pipelined window — honest traffic never runs that far ahead, so this
	// is a flood (or a catch-up signal, which only needs a syncreq).
	if msg.Seq >= r.seqHorizon() {
		if msg.Kind == "decided" && msg.Seq > r.nextSeq {
			r.requestSync()
		}
		if r.ins != nil && r.ins.floodDrops != nil {
			r.ins.floodDrops.Inc()
		}
		return
	}
	sl, ok := r.slots[msg.Seq]
	if !ok {
		sl = &slot{}
		r.slots[msg.Seq] = sl
	}
	if msg.Kind == "decided" {
		r.handleDecidedAttest(sl, msg)
		// A decision beyond our delivery frontier means we missed
		// earlier slots (partition, crash recovery): ask the cluster
		// to replay them.
		if msg.Seq > r.nextSeq {
			r.requestSync()
		}
		return
	}
	switch msg.Kind {
	case "preprepare":
		if msg.From != r.leader() {
			return // only the leader may pre-prepare
		}
		if sl.phase != PhaseIdle {
			if msg.Digest != sl.digest && !sl.committed {
				// Provable equivocation: the same leader proposed two
				// different digests for one (view, seq). The auth tag
				// rules out spoofing, so the leader itself is Byzantine —
				// rotate it out immediately instead of waiting for the
				// silence timeout.
				if r.ins != nil && r.ins.equivocations != nil {
					r.ins.equivocations.Inc()
				}
				r.advanceView()
				return
			}
			// Duplicate of the known proposal: ignored.
			return
		}
		if msg.From != r.ID {
			// Verify the digest commits to the body (corrupt-proposal
			// guard). Self-delivery skips it: the leader just computed
			// this digest in ProposeMeta.
			var d Digest
			d, r.digestBuf = digestInto(r.digestBuf, msg.Records, msg.Meta)
			if d != msg.Digest {
				return
			}
		}
		sl.phase = PhasePrePrepared
		sl.digest = msg.Digest
		sl.records = msg.Records
		sl.meta = msg.Meta
		sl.counted = true
		r.uncommitted++
		if r.ins != nil {
			sl.proposedAt = time.Now()
			if r.ins.inflight != nil && msg.From == r.ID {
				r.ins.inflight.Set(float64(r.uncommitted))
			}
		}
		r.armViewTimer()
		vote := Message{Kind: "prepare", View: r.view, Seq: msg.Seq, From: r.ID, Digest: msg.Digest}
		r.handlePrepare(sl, vote)
		r.net.broadcast(r.ID, vote)
		// Replay votes that raced ahead of this pre-prepare.
		early := sl.early
		sl.early = nil
		for _, e := range early {
			switch e.Kind {
			case "prepare":
				r.handlePrepare(sl, e)
			case "commit":
				r.handleCommit(sl, e)
			}
		}
	case "prepare":
		if sl.phase == PhaseIdle {
			r.bufferEarly(sl, msg)
			return
		}
		r.handlePrepare(sl, msg)
	case "commit":
		if sl.phase == PhaseIdle {
			r.bufferEarly(sl, msg)
			return
		}
		r.handleCommit(sl, msg)
	}
}

// bufferEarly holds a vote that raced ahead of its pre-prepare (broadcast
// reordering). The buffer is bounded: honest reordering yields at most one
// prepare and one commit per replica, so anything beyond 2n entries for a
// slot is flood traffic and is dropped.
func (r *Replica) bufferEarly(sl *slot, msg Message) {
	if len(sl.early) >= 2*len(r.ids) {
		if r.ins != nil && r.ins.floodDrops != nil {
			r.ins.floodDrops.Inc()
		}
		return
	}
	sl.early = append(sl.early, msg)
}

// seqHorizon is the first sequence number this replica refuses to track
// vote state for: the pipelined window ahead of the delivery frontier plus
// reordering slack. Without it, one message for an absurd future seq costs
// a slots entry forever (see TestFloodBeyondHorizonAllocatesNoSlots).
func (r *Replica) seqHorizon() uint64 {
	window := uint64(1)
	if r.Window > 1 {
		window = uint64(r.Window)
	}
	return r.nextSeq + window + slotHorizonSlack
}

// requestSync broadcasts a catch-up request for this replica's delivery
// frontier, rate-limited to one per minSyncReqGap: a burst of decided
// attestations beyond the frontier must not fan out into a syncreq (and a
// cluster-wide batch replay) per attestation.
func (r *Replica) requestSync() {
	now := r.env.Now()
	if now-r.lastSyncReq < minSyncReqGap {
		return
	}
	r.lastSyncReq = now
	r.net.broadcast(r.ID, Message{Kind: "syncreq", View: r.view, Seq: r.nextSeq, From: r.ID})
}

// replaySync answers a syncreq: decided slots from the requested frontier
// are unicast back to the requester — not broadcast, so a catch-up stream
// cannot amplify record batches across the whole cluster — and at most
// MaxSyncReplay of them per request. A requester still behind after a
// truncated replay re-requests when the next beyond-frontier decision
// arrives, so catch-up proceeds in bounded chunks.
func (r *Replica) replaySync(msg Message) {
	limit := r.MaxSyncReplay
	if limit <= 0 {
		limit = DefaultMaxSyncReplay
	}
	replayed := 0
	for s := msg.Seq; s < r.nextSeq; s++ {
		past, ok := r.slots[s]
		if !ok || !past.committed {
			continue
		}
		if replayed >= limit {
			if r.ins != nil && r.ins.syncTruncated != nil {
				r.ins.syncTruncated.Inc()
			}
			return
		}
		r.net.unicast(r.ID, msg.From, Message{
			Kind: "decided", View: r.view, Seq: s, From: r.ID,
			Digest: past.digest, Records: past.records, Meta: past.meta,
		})
		replayed++
	}
}

func (r *Replica) handlePrepare(sl *slot, msg Message) {
	if sl.phase == PhaseIdle || sl.digest != msg.Digest {
		return
	}
	sl.prepares |= r.voteBit(msg.From)
	if r.ins != nil && r.ins.votes != nil {
		r.ins.votes.Inc()
	}
	if sl.phase == PhasePrePrepared && bits.OnesCount64(sl.prepares) >= r.quorum() {
		sl.phase = PhasePrepared
		vote := Message{Kind: "commit", View: r.view, Seq: msg.Seq, From: r.ID, Digest: sl.digest}
		r.handleCommit(sl, vote)
		r.net.broadcast(r.ID, vote)
	}
}

func (r *Replica) handleCommit(sl *slot, msg Message) {
	if sl.phase == PhaseIdle || sl.digest != msg.Digest {
		return
	}
	sl.commits |= r.voteBit(msg.From)
	if r.ins != nil && r.ins.votes != nil {
		r.ins.votes.Inc()
	}
	if sl.phase == PhasePrepared && !sl.committed && bits.OnesCount64(sl.commits) >= r.quorum() {
		r.markCommitted(msg.Seq, sl)
	}
}

// handleDecidedAttest processes a catch-up attestation: f+1 matching
// attestations prove at least one honest replica decided this content.
func (r *Replica) handleDecidedAttest(sl *slot, msg Message) {
	if sl.committed {
		return
	}
	if sl.attests == nil {
		sl.attests = make(map[Digest]map[string]bool)
		sl.attestRecords = make(map[Digest][]blockchain.Record)
		sl.attestMeta = make(map[Digest][]byte)
	}
	set, ok := sl.attests[msg.Digest]
	if !ok {
		set = make(map[string]bool)
		sl.attests[msg.Digest] = set
	}
	set[msg.From] = true
	var bodyDigest Digest
	if len(msg.Records) > 0 {
		bodyDigest, r.digestBuf = digestInto(r.digestBuf, msg.Records, msg.Meta)
	}
	if len(msg.Records) > 0 && bodyDigest == msg.Digest {
		sl.attestRecords[msg.Digest] = msg.Records
		sl.attestMeta[msg.Digest] = msg.Meta
	}
	if len(set) >= r.f+1 {
		records, ok := sl.attestRecords[msg.Digest]
		if !ok {
			return
		}
		sl.records = records
		sl.meta = sl.attestMeta[msg.Digest]
		sl.digest = msg.Digest
		r.markCommitted(msg.Seq, sl)
	}
}

// markCommitted finalizes a slot and delivers every in-order decision.
func (r *Replica) markCommitted(seq uint64, sl *slot) {
	sl.committed = true
	sl.phase = PhaseCommitted
	if sl.counted {
		sl.counted = false
		r.uncommitted--
	}
	// Decide instruments observe from the leader's perspective only, so a
	// cluster-wide counter reads one decide per slot, not one per replica;
	// votes (above) are genuinely cluster-wide message counts.
	if r.ins != nil && r.leader() == r.ID {
		if r.ins.decides != nil {
			r.ins.decides.Inc()
			r.ins.records.AddInt(uint64(len(sl.records)))
			r.ins.inflight.Set(float64(r.uncommitted))
		}
		if !sl.proposedAt.IsZero() {
			dur := time.Since(sl.proposedAt)
			if r.ins.decideUs != nil {
				r.ins.decideUs.Observe(float64(dur) / float64(time.Microsecond))
			}
			r.ins.tracer.ObserveStage(telemetry.StageConsensusDecide, sl.proposedAt, dur)
		}
	}
	if r.uncommitted == 0 {
		r.disarmViewTimer()
	} else {
		// Pipelined slots remain in flight; progress restarts the clock.
		r.armViewTimer()
	}
	// Announce for catch-up by replicas that missed the vote rounds.
	r.net.broadcast(r.ID, Message{
		Kind: "decided", View: r.view, Seq: seq, From: r.ID,
		Digest: sl.digest, Records: sl.records, Meta: sl.meta,
	})
	// Decide in sequence order only.
	for {
		s, ok := r.slots[r.nextSeq]
		if !ok || !s.committed {
			break
		}
		r.blocks = append(r.blocks, s.records)
		if r.OnDecide != nil {
			r.OnDecide(r.nextSeq, s.records)
		}
		if r.OnDecideMeta != nil {
			r.OnDecideMeta(r.nextSeq, s.records, s.meta)
		}
		r.nextSeq++
	}
	if r.proposeSeq < r.nextSeq {
		r.proposeSeq = r.nextSeq
	}
}

// armViewTimer starts (or restarts) the leader-failure timeout.
func (r *Replica) armViewTimer() {
	r.env.Cancel(r.viewTimer)
	r.viewTimerView = r.view
	r.viewTimer = r.env.Schedule(r.ViewTimeout, r.viewTimerFn)
}

func (r *Replica) disarmViewTimer() {
	r.env.Cancel(r.viewTimer)
	r.viewTimer = sim.EventRef{}
}

// dropUncommittedSlots abandons every in-flight slot (view change / view
// adoption) and resets the pipelining state that referred to them.
func (r *Replica) dropUncommittedSlots() {
	for seq, sl := range r.slots {
		if !sl.committed {
			delete(r.slots, seq)
		}
	}
	r.uncommitted = 0
	r.proposeSeq = r.nextSeq
	r.disarmViewTimer()
}

// advanceView rotates the leader. Undecided slots are abandoned; the
// metering workload rebroadcasts its records with the next interval, so no
// data is lost, only delayed — the same recovery the paper's store-and-
// forward device layer already provides.
func (r *Replica) advanceView() {
	r.view++
	r.lastLeaderSign = r.env.Now()
	if r.ins != nil && r.ins.viewChanges != nil {
		r.ins.viewChanges.Inc()
	}
	r.dropUncommittedSlots()
}

// ForceViewChange triggers the timeout path immediately on every live
// replica (test/ops hook).
func (c *Cluster) ForceViewChange() {
	for _, id := range c.ids {
		rep := c.Replicas[id]
		if !rep.crashed {
			rep.advanceView()
		}
	}
}
