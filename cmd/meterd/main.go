// Command meterd runs one aggregator as a real network service: an embedded
// MQTT 3.1.1 broker plus the registration / report / blockchain pipeline,
// mirroring the Raspberry Pi aggregators of the paper's testbed.
//
//	meterd -id agg1 -addr :1883 -chain agg1.chain -shards 8
//
// Devices (cmd/devicesim or real firmware speaking the protocol envelopes)
// connect over TCP, publish protocol.Register to meters/agg1/register and
// reports to meters/agg1/<device>/report, and receive grants and acks on
// meters/agg1/<device>/control. Verified records seal into a block every
// -block interval and persist to the -chain file on shutdown (and
// periodically), where chainctl can verify them.
//
// Report ingest is sharded: devices hash onto -shards ingest shards, each
// owning its members' sequence tracking and pending-record batch under its
// own lock, so concurrent broker sessions publishing for different shards
// never contend. The seal loop merges the per-shard batches into one block.
//
// With -replicas N (N > 1) the ledger itself is replicated: every sealed
// batch runs through an in-process PBFT-style consensus cluster, the
// current leader pre-seals the block, and N chain replicas import the
// byte-identical result. The seal loop is pipelined: an oversized backlog
// is split into up to -pipeline chunks kept in flight simultaneously
// (speculatively chained by header hash), and each replica group-commits
// the decided blocks onto its chain in one batch import. Shutdown persists
// all copies (-chain plus -chain.r1 .. -chain.r(N-1)); chainctl verify
// passes on each.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"decentmeter/internal/aggregator"
	"decentmeter/internal/blockchain"
	"decentmeter/internal/consensus"
	"decentmeter/internal/mqtt"
	"decentmeter/internal/protocol"
	"decentmeter/internal/sim"
	"decentmeter/internal/telemetry"
)

// maxSealBacklog caps records retained across failing seals; beyond it the
// oldest are dropped (recency matters most for billing reconciliation).
const maxSealBacklog = 1 << 18

type server struct {
	id       string
	broker   *mqtt.Broker
	signer   *blockchain.Signer
	tmeasure time.Duration

	// shards own the report path; admitMu covers admission bookkeeping
	// (slot budget and slot numbering) only.
	shards  []*ingestShard
	admitMu sync.Mutex
	slots   int
	maxSlot int
	members atomic.Int64

	// sealMu covers the chain and the merged backlog.
	sealMu  sync.Mutex
	chain   *blockchain.Chain
	backlog []blockchain.Record
	dropped uint64
	// rep, when -replicas > 1, seals through an in-process consensus
	// cluster onto N chain replicas instead of a single local chain.
	rep *repSealer

	chainPath string
	logger    *log.Logger

	// registerTopic is "meters/<id>/register"; deviceTopicPrefix is
	// "meters/<id>/" — precomputed so onPublish routes without parsing.
	registerTopic     string
	deviceTopicPrefix string

	// Observability plane (all nil/zero without -telemetry): the registry
	// feeds /metrics and /series, the tracer samples report journeys for
	// /trace/spans, and health backs /healthz.
	reg        *telemetry.Registry
	tracer     *telemetry.Tracer
	health     *telemetry.Health
	mIngested  *telemetry.ShardedCounter
	mNacked    *telemetry.Counter
	mMembers   *telemetry.Gauge
	mBacklog   *telemetry.Gauge
	mBlocks    *telemetry.Counter
	mDropped   *telemetry.Counter
	blockEvery time.Duration
	startedAt  time.Time
	// lastSealTick is the unix-nano stamp of the latest mergeAndSeal entry
	// — the window-grid liveness signal for /healthz.
	lastSealTick atomic.Int64
}

type member struct {
	kind    protocol.MembershipKind
	home    string
	slot    int
	lastSeq uint64
}

// ingestShard owns the members that hash to it and their pending records.
type ingestShard struct {
	mu      sync.Mutex
	members map[string]*member
	pending []blockchain.Record
}

func (s *server) shardFor(deviceID string) *ingestShard {
	return s.shards[aggregator.ShardOf(deviceID, len(s.shards))]
}

// repSealer replicates the daemon's ledger: N consensus replicas agree on
// every sealed batch, the leader pre-seals the block (header + signature),
// and each replica imports the identical result onto its own chain copy —
// the single-process form of the simulation's replicated-aggregator tier.
// Sealing is pipelined: a backlog larger than one block's worth is split
// into up to `window` chunks proposed back-to-back (each chunk's header
// speculatively chained to the hash of the previous in-flight one), and the
// decided blocks land on each replica's chain through one group-committed
// ImportBatch instead of per-block imports. All methods run under the
// server's sealMu, so the embedded DES (which exists only to drive the
// consensus message exchange) is single-threaded.
type repSealer struct {
	env     *sim.Env
	cluster *consensus.Cluster
	window  int
	ids     []string
	chains  map[string]*blockchain.Chain
	signers map[string]*blockchain.Signer
	// pending buffers each replica's decided blocks, in decide order,
	// until the group commit at the end of the seal round.
	pending map[string][]*blockchain.Block
	// importErrs counts per-replica decode/import failures; a diverged
	// replica must be loud, not silently persisted short.
	importErrs map[string]int
	logger     *log.Logger
}

// sealChunkRecords is the backlog size at which the seal loop starts
// splitting into pipelined chunks: below it one proposal per interval is
// cheapest, above it the agreement round-trips overlap instead of queueing.
const sealChunkRecords = 4096

func newRepSealer(baseID string, n, window int, auth *blockchain.Authority, logger *log.Logger,
	reg *telemetry.Registry, tracer *telemetry.Tracer) (*repSealer, error) {
	if window < 1 {
		window = 1
	}
	env := sim.NewEnv(1)
	r := &repSealer{
		env:        env,
		window:     window,
		chains:     make(map[string]*blockchain.Chain, n),
		signers:    make(map[string]*blockchain.Signer, n),
		pending:    make(map[string][]*blockchain.Block, n),
		importErrs: make(map[string]int, n),
		logger:     logger,
	}
	for k := 0; k < n; k++ {
		id := fmt.Sprintf("%s-r%d", baseID, k)
		signer, err := blockchain.NewSigner(id)
		if err != nil {
			return nil, err
		}
		if err := auth.Admit(id, signer.Public()); err != nil {
			return nil, err
		}
		r.ids = append(r.ids, id)
		r.signers[id] = signer
		r.chains[id] = blockchain.NewChain(auth)
	}
	cluster, err := consensus.NewCluster(env, r.ids, (n-1)/3, time.Millisecond)
	if err != nil {
		return nil, err
	}
	cluster.SetWindow(window)
	cluster.SetRegistry(reg, "", tracer)
	r.cluster = cluster
	for _, id := range r.ids {
		id := id
		cluster.Replicas[id].OnDecideMeta = func(seq uint64, records []blockchain.Record, meta []byte) {
			hdr, sig, err := blockchain.DecodeSealMeta(meta)
			if err != nil {
				r.importErrs[id]++
				return
			}
			// The decided records slice is the proposal's chunk copy,
			// immutable and shared by every replica's block.
			r.pending[id] = append(r.pending[id], &blockchain.Block{
				Header: hdr, Records: records, Sig: sig,
			})
		}
	}
	return r, nil
}

// flush group-commits each replica's decided blocks onto its chain.
func (r *repSealer) flush() {
	for _, id := range r.ids {
		group := r.pending[id]
		if len(group) == 0 {
			continue
		}
		r.pending[id] = nil
		if err := r.chains[id].ImportBatch(group); err != nil {
			r.importErrs[id]++
			r.logger.Printf("replica %s group commit of %d blocks failed: %v", id, len(group), err)
		}
	}
}

// seal runs one backlog through the pipelined consensus; the caller holds
// sealMu.
func (r *repSealer) seal(at time.Time, records []blockchain.Record) error {
	leaderID := r.cluster.Leader(r.cluster.CurrentView())
	leader := r.cluster.Replicas[leaderID]
	chain := r.chains[leaderID]
	primary := r.chains[r.ids[0]]
	before := primary.Length()

	// Chunking: pipeline the backlog as up to `window` in-flight proposals
	// once it exceeds one chunk's worth of records.
	chunks := (len(records) + sealChunkRecords - 1) / sealChunkRecords
	if chunks < 1 {
		chunks = 1
	}
	if chunks > r.window {
		chunks = r.window
	}
	per := (len(records) + chunks - 1) / chunks

	var prev blockchain.Hash
	var index uint64
	if head := chain.Head(); head != nil {
		prev = head.Hash()
		index = head.Header.Index + 1
	}
	proposed := 0
	for start := 0; start < len(records); start += per {
		end := start + per
		if end > len(records) {
			end = len(records)
		}
		// Copy the chunk: consensus retains the batch (decided log,
		// catch-up replay) while the caller reuses its backlog buffer.
		chunk := append([]blockchain.Record(nil), records[start:end]...)
		blk, err := chain.PrepareBlockAt(r.signers[leaderID], at, index, prev, chunk)
		if err != nil {
			return err
		}
		meta, err := blockchain.EncodeSealMeta(blk.Header, blk.Sig)
		if err != nil {
			return err
		}
		if err := leader.ProposeMeta(chunk, meta); err != nil {
			return err
		}
		prev = blk.Hash()
		index++
		proposed++
	}
	// Drive the embedded DES until the decide round-trips settle, then
	// group-commit every replica's decided window.
	r.env.RunUntil(r.env.Now() + time.Second)
	r.flush()
	if primary.Length() != before+proposed {
		return fmt.Errorf("backlog did not decide (%d of %d blocks landed)",
			primary.Length()-before, proposed)
	}
	// Primary advanced — the batch is consumed (returning an error here
	// would re-propose it and double-seal the primary). A replica that
	// failed to keep up is a divergence bug: log it loudly; persist()
	// warns again before writing the short copy.
	for _, id := range r.ids[1:] {
		if r.chains[id].Length() != before+proposed {
			r.logger.Printf("replica %s DIVERGED at %d blocks (%d import errors); primary sealed %d",
				id, r.chains[id].Length(), r.importErrs[id], before+proposed)
		}
	}
	return nil
}

// daemonConfig carries the parsed flag set; newServer builds a server from
// it so tests can run the daemon in-process against real TCP listeners.
type daemonConfig struct {
	ID         string
	ChainPath  string
	Tmeasure   time.Duration
	BlockEvery time.Duration
	Slots      int
	Shards     int
	Replicas   int
	Pipeline   int
	// SessionPath, when non-empty, journals durable MQTT sessions there so a
	// restarted daemon resumes them (SessionPresent, DUP redelivery).
	SessionPath string
	// Telemetry enables the observability plane (registry, tracer, health)
	// regardless of whether an HTTP listener is started.
	Telemetry  bool
	TraceEvery int
	Logger     *log.Logger
}

func newServer(cfg daemonConfig) (*server, error) {
	if cfg.Logger == nil {
		cfg.Logger = log.New(os.Stderr, "meterd ", log.LstdFlags|log.Lmsgprefix)
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.BlockEvery <= 0 {
		cfg.BlockEvery = time.Second
	}
	signer, err := blockchain.NewSigner(cfg.ID)
	if err != nil {
		return nil, err
	}
	auth := blockchain.NewAuthority()
	if err := auth.Admit(cfg.ID, signer.Public()); err != nil {
		return nil, err
	}
	s := &server{
		id:                cfg.ID,
		chain:             blockchain.NewChain(auth),
		signer:            signer,
		tmeasure:          cfg.Tmeasure,
		shards:            make([]*ingestShard, cfg.Shards),
		slots:             cfg.Slots,
		chainPath:         cfg.ChainPath,
		logger:            cfg.Logger,
		registerTopic:     protocol.RegisterTopic(cfg.ID),
		deviceTopicPrefix: "meters/" + cfg.ID + "/",
		blockEvery:        cfg.BlockEvery,
		startedAt:         time.Now(),
	}
	if cfg.Telemetry {
		s.reg = telemetry.NewRegistry()
		s.tracer = telemetry.NewTracer(s.reg, cfg.TraceEvery)
		s.mIngested = s.reg.ShardedCounter(cfg.ID + ".reports_ingested")
		s.mNacked = s.reg.Counter(cfg.ID + ".reports_nacked")
		s.mMembers = s.reg.Gauge(cfg.ID + ".members")
		s.mBacklog = s.reg.Gauge(cfg.ID + ".seal_backlog")
		s.mBlocks = s.reg.Counter(cfg.ID + ".blocks")
		s.mDropped = s.reg.Counter(cfg.ID + ".records_dropped")
		s.health = telemetry.NewHealth()
		// Window-grid liveness: the seal ticker must have fired recently
		// (3 block intervals of grace, never under 3 s for tight -block).
		s.health.Register("window_grid", func() error {
			grace := 3 * s.blockEvery
			if grace < 3*time.Second {
				grace = 3 * time.Second
			}
			last := s.lastSealTick.Load()
			ref := s.startedAt
			if last != 0 {
				ref = time.Unix(0, last)
			}
			if age := time.Since(ref); age > grace {
				return fmt.Errorf("no seal tick for %v (grid interval %v)", age.Round(time.Millisecond), s.blockEvery)
			}
			return nil
		})
		// Seal-backlog state: a backlog pinned at the drop-oldest cap means
		// sealing cannot keep up and records are being discarded.
		s.health.Register("seal_backlog", func() error {
			s.sealMu.Lock()
			n, dropped := len(s.backlog), s.dropped
			s.sealMu.Unlock()
			if n >= maxSealBacklog {
				return fmt.Errorf("seal backlog full (%d records, %d dropped)", n, dropped)
			}
			return nil
		})
	}
	if cfg.Replicas > 1 {
		rep, err := newRepSealer(cfg.ID, cfg.Replicas, cfg.Pipeline, auth, cfg.Logger, s.reg, s.tracer)
		if err != nil {
			return nil, err
		}
		s.rep = rep
		// The "server chain" becomes replica 0's copy, so persistence and
		// logging keep working unchanged.
		s.chain = rep.chains[rep.ids[0]]
		cfg.Logger.Printf("replicated sealing: %d chain replicas, pipeline depth %d, consensus leader %s",
			cfg.Replicas, rep.window, rep.cluster.Leader(0))
	}
	for i := range s.shards {
		s.shards[i] = &ingestShard{members: make(map[string]*member)}
	}
	broker, err := mqtt.NewBroker(mqtt.BrokerOptions{
		Logger:      cfg.Logger,
		OnPublish:   s.onPublish,
		Registry:    s.reg,
		Tracer:      s.tracer,
		SessionPath: cfg.SessionPath,
	})
	if err != nil {
		return nil, err
	}
	s.broker = broker
	if s.health != nil && cfg.SessionPath != "" {
		// Durable-session journal state: a failed append or checkpoint means
		// a broker crash would lose inflight QoS state.
		s.health.Register("broker_sessions", func() error {
			return s.broker.SessionJournalErr()
		})
	}
	return s, nil
}

// serveTelemetry mounts the observability surface (/metrics, /series,
// /series/query, /trace/spans, /healthz, /debug/pprof/) on addr and serves
// it in the background, returning the bound listener.
func (s *server) serveTelemetry(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry listen %s: %w", addr, err)
	}
	mux := telemetry.NewMux(s.reg, s.tracer, s.health)
	go func() {
		if err := http.Serve(ln, mux); err != nil && !strings.Contains(err.Error(), "use of closed") {
			s.logger.Printf("telemetry server: %v", err)
		}
	}()
	return ln, nil
}

func main() {
	id := flag.String("id", "agg1", "aggregator identity")
	addr := flag.String("addr", ":1883", "MQTT listen address")
	chainPath := flag.String("chain", "meterd.chain", "blockchain file")
	tmeasure := flag.Duration("tmeasure", 100*time.Millisecond, "mandated reporting interval")
	blockEvery := flag.Duration("block", time.Second, "block sealing interval")
	slots := flag.Int("slots", 40, "TDMA slot budget (device admission limit)")
	shards := flag.Int("shards", 1, "report ingest shards (device-hash partitions)")
	replicas := flag.Int("replicas", 1, "chain replicas sealing via in-process consensus\n(1 = plain local sealing; N > 1 writes -chain plus -chain.r1..r(N-1), all byte-identical)")
	pipeline := flag.Int("pipeline", 4, "consensus-seal pipeline depth: proposals kept in flight\nwhen the replicated seal loop splits an oversized backlog")
	telemetryAddr := flag.String("telemetry", "", "serve /metrics, /series, /trace/spans, /healthz and /debug/pprof/\non this address (e.g. :9090); empty disables the observability plane")
	traceEvery := flag.Int("trace-every", 0, "sample one report journey in every N publishes (0 = default 256)")
	sessionPath := flag.String("session", "", "durable MQTT session journal file; a restarted daemon resumes\npersistent sessions from it (empty disables session durability)")
	flag.Parse()

	logger := log.New(os.Stderr, "meterd ", log.LstdFlags|log.Lmsgprefix)
	s, err := newServer(daemonConfig{
		ID:          *id,
		ChainPath:   *chainPath,
		Tmeasure:    *tmeasure,
		BlockEvery:  *blockEvery,
		Slots:       *slots,
		Shards:      *shards,
		Replicas:    *replicas,
		Pipeline:    *pipeline,
		SessionPath: *sessionPath,
		Telemetry:   *telemetryAddr != "",
		TraceEvery:  *traceEvery,
		Logger:      logger,
	})
	if err != nil {
		logger.Fatal(err)
	}
	if *telemetryAddr != "" {
		ln, err := s.serveTelemetry(*telemetryAddr)
		if err != nil {
			logger.Fatal(err)
		}
		logger.Printf("telemetry on http://%s (metrics, series, trace spans, healthz, pprof)", ln.Addr())
	}

	go s.sealLoop(*blockEvery)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		logger.Printf("shutting down; writing chain to %s", s.chainPath)
		s.persist()
		s.broker.Close()
		os.Exit(0)
	}()

	logger.Printf("aggregator %s listening on %s (Tmeasure=%v, %d slots, %d shards)",
		*id, *addr, *tmeasure, *slots, *shards)
	if err := s.broker.ListenAndServe(*addr); err != nil {
		logger.Fatal(err)
	}
}

// reportSuffix ends every device report topic ("meters/<id>/<device>/report").
const reportSuffix = "/report"

// onPublish routes application messages by topic shape. The two accepted
// shapes are matched against precomputed strings, so per-publish routing
// stays allocation-free.
func (s *server) onPublish(topic string, payload []byte) {
	switch {
	case topic == s.registerTopic:
		msg, err := protocol.Decode(payload)
		if err != nil {
			s.logger.Printf("bad register payload: %v", err)
			return
		}
		if reg, ok := msg.(protocol.Register); ok {
			s.handleRegister(reg)
		}
	case len(topic) > len(s.deviceTopicPrefix)+len(reportSuffix) &&
		strings.HasPrefix(topic, s.deviceTopicPrefix) &&
		strings.HasSuffix(topic, reportSuffix) &&
		!strings.Contains(topic[len(s.deviceTopicPrefix):len(topic)-len(reportSuffix)], "/"):
		// Uplink termination: the envelope decode is the daemon-side cost
		// of the device's radio uplink. Timestamps are taken only while a
		// sampled journey is open.
		traced := s.tracer.Active()
		var decodeStart time.Time
		if traced {
			decodeStart = time.Now()
		}
		msg, err := protocol.Decode(payload)
		if traced {
			s.tracer.ObserveStage(telemetry.StageDeviceUplink, decodeStart, time.Since(decodeStart))
		}
		if err != nil {
			s.logger.Printf("bad report payload: %v", err)
			return
		}
		if rep, ok := msg.(protocol.Report); ok {
			s.handleReport(rep)
		}
	}
}

func (s *server) sendControl(deviceID string, msg protocol.Message) {
	payload, err := protocol.Encode(msg)
	if err != nil {
		s.logger.Printf("encode control: %v", err)
		return
	}
	topic := protocol.ControlTopic(s.id, deviceID)
	if err := s.broker.Publish(topic, payload, mqtt.QoS1, false); err != nil {
		s.logger.Printf("publish control: %v", err)
	}
}

// sendControlAsync publishes off the caller's lock (the broker has its own
// locking and may call back into OnPublish).
func (s *server) sendControlAsync(deviceID string, msg protocol.Message) {
	go s.sendControl(deviceID, msg)
}

func (s *server) handleRegister(reg protocol.Register) {
	sh := s.shardFor(reg.DeviceID)
	sh.mu.Lock()
	if m, ok := sh.members[reg.DeviceID]; ok {
		ack := protocol.RegisterAck{
			DeviceID: reg.DeviceID, Kind: m.kind, AggregatorID: s.id,
			Slot: m.slot, Tmeasure: s.tmeasure,
		}
		sh.mu.Unlock()
		s.sendControlAsync(reg.DeviceID, ack)
		return
	}
	sh.mu.Unlock()

	s.admitMu.Lock()
	if int(s.members.Load()) >= s.slots {
		s.admitMu.Unlock()
		s.sendControlAsync(reg.DeviceID, protocol.RegisterNack{
			DeviceID: reg.DeviceID, Reason: "no free time-slots",
		})
		return
	}
	slot := s.maxSlot
	s.maxSlot++
	s.members.Add(1)
	s.admitMu.Unlock()
	if s.mMembers != nil {
		s.mMembers.Set(float64(s.members.Load()))
	}

	kind := protocol.MemberMaster
	home := s.id
	if reg.MasterAddr != "" && reg.MasterAddr != s.id {
		// Standalone daemon: no backhaul peer to verify with, so
		// roaming devices are admitted as temporary cost centres and
		// flagged in the log. Multi-aggregator deployments federate
		// through the simulation harness or a shared broker.
		kind = protocol.MemberTemporary
		home = reg.MasterAddr
		s.logger.Printf("temporary membership for %s (home %s)", reg.DeviceID, home)
	}
	m := &member{kind: kind, home: home, slot: slot}
	sh.mu.Lock()
	if _, ok := sh.members[reg.DeviceID]; ok {
		// Lost a registration race; release the slot budget we took.
		m = sh.members[reg.DeviceID]
		sh.mu.Unlock()
		s.members.Add(-1)
		if s.mMembers != nil {
			s.mMembers.Set(float64(s.members.Load()))
		}
	} else {
		sh.members[reg.DeviceID] = m
		sh.mu.Unlock()
		s.logger.Printf("registered %s (%s, slot %d)", reg.DeviceID, kind, m.slot)
	}
	s.sendControlAsync(reg.DeviceID, protocol.RegisterAck{
		DeviceID: reg.DeviceID, Kind: m.kind, AggregatorID: s.id,
		Slot: m.slot, Tmeasure: s.tmeasure,
	})
}

func (s *server) handleReport(rep protocol.Report) {
	si := aggregator.ShardOf(rep.DeviceID, len(s.shards))
	sh := s.shards[si]
	traced := s.tracer.Active()
	var ingestStart time.Time
	if traced {
		ingestStart = time.Now()
	}
	sh.mu.Lock()
	m, ok := sh.members[rep.DeviceID]
	if !ok {
		sh.mu.Unlock()
		if s.mNacked != nil {
			s.mNacked.Inc()
		}
		s.sendControlAsync(rep.DeviceID, protocol.ReportNack{
			DeviceID: rep.DeviceID, Seq: aggregator.MaxSeq(rep.Measurements), Reason: "not a member",
		})
		return
	}
	// Ingest everything beyond the pre-batch high-water mark, then
	// acknowledge and advance by the batch maximum: an unsorted batch
	// (buffered tail) must not drop interior measurements or ack a stale
	// seq that would force needless retransmission.
	prev := m.lastSeq
	var maxSeq uint64
	accepted := 0
	for _, meas := range rep.Measurements {
		if meas.Seq > maxSeq {
			maxSeq = meas.Seq
		}
		if meas.Seq <= prev {
			continue
		}
		accepted++
		sh.pending = append(sh.pending, blockchain.Record{
			DeviceID:       rep.DeviceID,
			Seq:            meas.Seq,
			HomeAggregator: m.home,
			ReportedVia:    s.id,
			Timestamp:      meas.Timestamp,
			Interval:       meas.Interval,
			Current:        meas.Current,
			Voltage:        meas.Voltage,
			Energy:         meas.Energy,
			Buffered:       meas.Buffered,
		})
	}
	if maxSeq > m.lastSeq {
		m.lastSeq = maxSeq
	}
	sh.mu.Unlock()
	if s.mIngested != nil && accepted > 0 {
		s.mIngested.Add(si, uint64(accepted))
	}
	if traced {
		s.tracer.ObserveStage(telemetry.StageShardIngest, ingestStart, time.Since(ingestStart))
	}
	if len(rep.Measurements) > 0 {
		s.sendControlAsync(rep.DeviceID, protocol.ReportAck{
			DeviceID: rep.DeviceID,
			Seq:      maxSeq,
		})
	}
}

// mergeAndSeal folds the per-shard batches into the backlog and seals one
// block; on failure the backlog is retained, bounded by maxSealBacklog with
// drop-oldest.
func (s *server) mergeAndSeal(at time.Time) {
	s.lastSealTick.Store(time.Now().UnixNano())
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	instrumented := s.reg != nil || s.tracer != nil
	var closeStart time.Time
	if instrumented {
		closeStart = time.Now()
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		s.backlog = append(s.backlog, sh.pending...)
		sh.pending = sh.pending[:0]
		sh.mu.Unlock()
	}
	if over := len(s.backlog) - maxSealBacklog; over > 0 {
		copy(s.backlog, s.backlog[over:])
		s.backlog = s.backlog[:maxSealBacklog]
		s.dropped += uint64(over)
		if s.mDropped != nil {
			s.mDropped.AddInt(uint64(over))
		}
		s.logger.Printf("seal backlog full: dropped %d oldest records (%d total)", over, s.dropped)
	}
	if s.mBacklog != nil {
		defer func() { s.mBacklog.Set(float64(len(s.backlog))) }()
	}
	// The merge is the daemon's window close: it always feeds the stage
	// histogram, and a sampled journey records it before the terminal seal.
	if instrumented {
		s.tracer.ObserveStage(telemetry.StageWindowClose, closeStart, time.Since(closeStart))
	}
	if len(s.backlog) == 0 {
		return
	}
	blocksBefore := s.chain.Length()
	var sealStart time.Time
	if instrumented {
		sealStart = time.Now()
	}
	if s.rep != nil {
		if err := s.rep.seal(at, s.backlog); err != nil {
			s.logger.Printf("replicated seal: %v (%d records retained)", err, len(s.backlog))
			return
		}
	} else if _, err := s.chain.Seal(s.signer, at, s.backlog); err != nil {
		s.logger.Printf("seal: %v (%d records retained)", err, len(s.backlog))
		return
	}
	if instrumented {
		// Terminal journey stage: completes and retires sampled journeys.
		s.tracer.ObserveStage(telemetry.StageSealAttach, sealStart, time.Since(sealStart))
	}
	if s.mBlocks != nil {
		s.mBlocks.AddInt(uint64(s.chain.Length() - blocksBefore))
	}
	s.backlog = s.backlog[:0]
}

func (s *server) sealLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for range t.C {
		s.mergeAndSeal(time.Now())
	}
}

func (s *server) persist() {
	s.mergeAndSeal(time.Now())
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	if s.chain.Length() == 0 {
		return
	}
	// Every other replica's copy lands next to the primary; chainctl
	// verify passes on each, and the files are byte-identical. They are
	// independent chains and independent fsyncs, so they are written at
	// once.
	chains := []*blockchain.Chain{s.chain}
	paths := []string{s.chainPath}
	if s.rep != nil {
		for k := 1; k < len(s.rep.ids); k++ {
			id := s.rep.ids[k]
			if got := s.rep.chains[id].Length(); got != s.chain.Length() {
				s.logger.Printf("WARNING: replica %s diverged (%d blocks vs %d, %d import errors)",
					id, got, s.chain.Length(), s.rep.importErrs[id])
			}
			chains = append(chains, s.rep.chains[id])
			paths = append(paths, fmt.Sprintf("%s.r%d", s.chainPath, k))
		}
	}
	errs := make([]error, len(chains))
	var wg sync.WaitGroup
	for k := range chains {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = chains[k].WriteFile(paths[k])
		}()
	}
	wg.Wait()
	for k, err := range errs {
		switch {
		case err != nil:
			s.logger.Printf("persist chain %s: %v", paths[k], err)
		case k == 0:
			fmt.Fprintf(os.Stderr, "meterd: %d blocks (%d records) written to %s\n",
				s.chain.Length(), s.chain.TotalRecords(), s.chainPath)
		default:
			fmt.Fprintf(os.Stderr, "meterd: replica %d chain written to %s\n", k, paths[k])
		}
	}
}
