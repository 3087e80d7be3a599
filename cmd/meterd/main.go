// Command meterd runs one aggregator as a real network service: an embedded
// MQTT 3.1.1 broker in front of the same aggregator.Aggregator the simulator
// hosts, here on the process clock (sim.Wall), mirroring the Raspberry Pi
// aggregators of the paper's testbed.
//
//	meterd -id agg1 -addr :1883 -chain agg1.chain -shards 8
//
// Devices (cmd/devicesim or real firmware speaking the protocol envelopes)
// connect over TCP, publish protocol.Register to meters/agg1/register and
// reports to meters/agg1/<device>/report, and receive grants, acks and nacks
// on meters/agg1/<device>/control. The daemon decodes each publish and hands
// it to the aggregator, whose downlink is a broker publish. Admission into
// -slots TDMA slots of one -tmeasure superframe, sequence tracking, the
// -shards ingest shards, the verification window closed every -block
// interval and the bounded seal backlog are the aggregator's. Each window's
// records seal into a block that is appended to the -chain file and synced
// before the window close returns; the daemon then keeps only the block's
// header, so its memory does not grow with the ledger. chainctl verifies the
// file at any time, after SIGKILL too. A start never overwrites a ledger: an
// existing -chain file is first moved aside to <path>.prevN.
//
// Two inputs the simulator gives an aggregator are absent here, and the
// daemon says so. It has no feeder-head meter: no sum check runs, every
// window is reported "unverified: no head meter" (start-up log line,
// <id>.sum_check_enabled = 0). It has no backhaul peer: a device naming a
// foreign home aggregator is refused ("home ... unreachable"), not admitted
// unverified. The timestamp-skew quarantine stays off, as load generators
// and replayed traces stamp measurements with their own epoch.
//
// With -replicas N (N > 1) the ledger itself is replicated: every window's
// batch runs through an in-process PBFT-style consensus cluster, pipelined
// up to -pipeline proposals deep, onto N byte-identical chain replicas (see
// repSealer). Each replica appends to its own file (-chain plus -chain.r1 ..
// -chain.r(N-1)); the files are byte-identical and chainctl verify passes on
// each.
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
	"sync/atomic"
	"syscall"
	"time"

	"decentmeter/internal/aggregator"
	"decentmeter/internal/backhaul"
	"decentmeter/internal/blockchain"
	"decentmeter/internal/consensus"
	"decentmeter/internal/mqtt"
	"decentmeter/internal/protocol"
	"decentmeter/internal/sim"
	"decentmeter/internal/tdma"
	"decentmeter/internal/telemetry"
)

type server struct {
	broker *mqtt.Broker
	agg    *aggregator.Aggregator
	// chain is the ledger the aggregator seals onto: its own, or replica 0's
	// copy when rep (-replicas > 1) seals through consensus onto N replicas.
	chain *blockchain.Chain
	rep   *repSealer

	// chainPath is the primary's file; replica k > 0 appends to
	// chainPath.rK.
	chainPath string
	logger    *log.Logger

	// registerTopic is "meters/<id>/register"; deviceTopicPrefix is
	// "meters/<id>/" — precomputed so onPublish routes without parsing.
	registerTopic     string
	deviceTopicPrefix string

	// Observability plane (all nil without -telemetry): the registry feeds
	// /metrics and /series, the tracer samples report journeys for
	// /trace/spans, and health backs /healthz.
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	health *telemetry.Health
	// lastClose is the unix-nano stamp of the latest window close (of the
	// start, before the first): /healthz's window-grid liveness signal.
	lastClose atomic.Int64
	// windows counts the closed windows that had reporters, flagged the
	// non-OK ones among them. onWindow writes them under the aggregator's
	// control-plane lock; persist reads them after its own CloseWindow.
	windows, flagged uint64
}

// repSealer replicates the daemon's ledger: N consensus replicas agree on
// every sealed batch, the leader pre-seals the block (header + signature),
// and each replica imports the identical result onto its own chain copy —
// the single-process form of the simulation's replicated-aggregator tier.
// Sealing is pipelined: a backlog larger than one block's worth is split
// into up to `window` chunks proposed back-to-back (each chunk's header
// speculatively chained to the hash of the previous in-flight one), and the
// decided blocks land on every replica's chain file through one group commit
// (blockchain.ImportBatches) instead of per-block imports: the replicas'
// groups share their records, so the group's Merkle roots and signatures are
// checked and its frames encoded once, while each replica checks that the
// group links onto its own chain head. seal runs as the aggregator's seal
// hook, under its control-plane lock, so the embedded DES (which exists only
// to drive the consensus message exchange) is single-threaded.
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

// flush group-commits each replica's decided blocks onto its chain file,
// checking and encoding the group once for all replicas that decided the
// same data, and then releases from consensus memory what every replica
// file holds.
func (r *repSealer) flush() {
	chains := make([]*blockchain.Chain, len(r.ids))
	groups := make([][]*blockchain.Block, len(r.ids))
	for k, id := range r.ids {
		chains[k], groups[k] = r.chains[id], r.pending[id]
		r.pending[id] = nil
	}
	synced := true
	for k, err := range blockchain.ImportBatches(chains, groups) {
		if err != nil {
			r.importErrs[r.ids[k]]++
			r.logger.Printf("replica %s group commit of %d blocks failed: %v", r.ids[k], len(groups[k]), err)
		}
		synced = synced && err == nil && chains[k].Length() == chains[0].Length()
	}
	if !synced {
		return // a diverged replica keeps consensus memory: it may need replay
	}
	// Every decision below each replica's frontier was just flushed, and
	// every file holds the same blocks.
	for _, id := range r.ids {
		if rep := r.cluster.Replicas[id]; rep.Frontier() > 0 {
			rep.Release(rep.Frontier() - 1)
		}
	}
}

// seal runs one backlog through the pipelined consensus.
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
	if cfg.Slots < 1 || time.Duration(cfg.Slots) > cfg.Tmeasure {
		return nil, fmt.Errorf("%d slots do not fit a %v superframe", cfg.Slots, cfg.Tmeasure)
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
		chain:             blockchain.NewChain(auth),
		chainPath:         cfg.ChainPath,
		logger:            cfg.Logger,
		registerTopic:     protocol.RegisterTopic(cfg.ID),
		deviceTopicPrefix: "meters/" + cfg.ID + "/",
	}
	s.lastClose.Store(time.Now().UnixNano())
	if cfg.Telemetry {
		s.reg = telemetry.NewRegistry()
		s.tracer = telemetry.NewTracer(s.reg, cfg.TraceEvery)
		s.health = telemetry.NewHealth()
		// Window-grid liveness: the aggregator must have closed a window
		// recently (3 block intervals of grace, never under 3 s for tight
		// -block).
		grace := max(3*cfg.BlockEvery, 3*time.Second)
		s.health.Register("window_grid", func() error {
			if age := time.Since(time.Unix(0, s.lastClose.Load())); age > grace {
				return fmt.Errorf("no window close for %v (grid interval %v)", age.Round(time.Millisecond), cfg.BlockEvery)
			}
			return nil
		})
		// Seal-backlog state: a backlog pinned at the drop-oldest cap means
		// sealing cannot keep up and records are being discarded.
		s.health.Register("seal_backlog", func() error {
			if n := s.agg.PendingRecords(); n >= aggregator.DefaultMaxPendingRecords {
				return fmt.Errorf("seal backlog full (%d records, %d dropped)", n, s.agg.DroppedRecords())
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
		s.chain = rep.chains[rep.ids[0]]
		cfg.Logger.Printf("replicated sealing: %d chain replicas, pipeline depth %d, consensus leader %s",
			cfg.Replicas, rep.window, rep.cluster.Leader(0))
	}
	for k, chain := range s.chains() {
		path := s.chainFile(k)
		if err := moveAside(path, cfg.Logger); err != nil {
			return nil, err
		}
		if err := chain.OpenLog(path); err != nil {
			return nil, err
		}
	}
	if s.reg != nil {
		durable := s.reg.Gauge(cfg.ID + ".durable_height")
		s.chain.OnDurable(func(blocks, _ int) { durable.Set(float64(blocks)) })
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
	// New starts the window ticker, so the aggregator is built last. It has
	// no HeadMeter and is alone on its mesh (see the package comment).
	pitch := cfg.Tmeasure / time.Duration(cfg.Slots)
	s.agg, err = aggregator.New(aggregator.Config{
		ID:             cfg.ID,
		Env:            sim.NewWall(),
		WallClock:      time.Now,
		Mesh:           backhaul.NewMesh(sim.NewEnv(1), 0),
		Chain:          s.chain,
		Signer:         signer,
		SendToDevice:   s.sendControlAsync,
		Tmeasure:       cfg.Tmeasure,
		WindowInterval: cfg.BlockEvery,
		Slots:          tdma.Config{Superframe: cfg.Tmeasure, SlotLen: pitch * 4 / 5, Guard: pitch - pitch*4/5},
		Shards:         cfg.Shards,
		Registry:       s.reg,
		Tracer:         s.tracer,
	})
	if err != nil {
		return nil, err
	}
	s.agg.SetWindowSink(s.onWindow)
	if s.rep != nil {
		s.agg.SetSeal(s.sealReplicated)
	}
	cfg.Logger.Printf("no feeder-head meter: sum check disabled, windows are reported unverified; " +
		"no backhaul peer: devices naming a foreign home are refused")
	return s, nil
}

// chains returns the ledger copies the daemon appends to, the primary first.
func (s *server) chains() []*blockchain.Chain {
	if s.rep == nil {
		return []*blockchain.Chain{s.chain}
	}
	out := make([]*blockchain.Chain, len(s.rep.ids))
	for k, id := range s.rep.ids {
		out[k] = s.rep.chains[id]
	}
	return out
}

// chainFile is the file chains()[k] appends to.
func (s *server) chainFile(k int) string {
	if k == 0 {
		return s.chainPath
	}
	return fmt.Sprintf("%s.r%d", s.chainPath, k)
}

// moveAside renames an existing non-empty file at path to the first free
// path.prevN, so that a start never overwrites a previous run's ledger. An
// empty file holds nothing and is removed.
func moveAside(path string, logger *log.Logger) error {
	st, err := os.Stat(path)
	switch {
	case os.IsNotExist(err):
		return nil
	case err != nil:
		return err
	case st.Size() == 0:
		return os.Remove(path)
	}
	for n := 1; ; n++ {
		prev := fmt.Sprintf("%s.prev%d", path, n)
		if _, err := os.Lstat(prev); err == nil {
			continue
		} else if !os.IsNotExist(err) {
			return err
		}
		if err := os.Rename(path, prev); err != nil {
			return err
		}
		logger.Printf("previous chain file %s moved aside to %s", path, prev)
		return nil
	}
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
	var cfg daemonConfig
	flag.StringVar(&cfg.ID, "id", "agg1", "aggregator identity")
	addr := flag.String("addr", ":1883", "MQTT listen address")
	flag.StringVar(&cfg.ChainPath, "chain", "meterd.chain", "blockchain file")
	flag.DurationVar(&cfg.Tmeasure, "tmeasure", 100*time.Millisecond, "mandated reporting interval")
	flag.DurationVar(&cfg.BlockEvery, "block", time.Second, "verification window and block sealing interval")
	flag.IntVar(&cfg.Slots, "slots", 40, "TDMA slot budget (device admission limit)")
	flag.IntVar(&cfg.Shards, "shards", 1, "report ingest shards (device-hash partitions)")
	flag.IntVar(&cfg.Replicas, "replicas", 1, "chain replicas sealing via in-process consensus\n(1 = plain local sealing; N > 1 writes -chain plus -chain.r1..r(N-1), all byte-identical)")
	flag.IntVar(&cfg.Pipeline, "pipeline", 4, "consensus-seal pipeline depth: proposals kept in flight\nwhen the replicated seal loop splits an oversized backlog")
	telemetryAddr := flag.String("telemetry", "", "serve /metrics, /series, /trace/spans, /healthz and /debug/pprof/\non this address (e.g. :9090); empty disables the observability plane")
	flag.IntVar(&cfg.TraceEvery, "trace-every", 0, "sample one report journey in every N publishes (0 = default 256)")
	flag.StringVar(&cfg.SessionPath, "session", "", "durable MQTT session journal file; a restarted daemon resumes\npersistent sessions from it (empty disables session durability)")
	flag.Parse()
	cfg.Telemetry = *telemetryAddr != ""

	logger := log.New(os.Stderr, "meterd ", log.LstdFlags|log.Lmsgprefix)
	cfg.Logger = logger
	s, err := newServer(cfg)
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

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		logger.Printf("shutting down; sealing the last window into %s", s.chainPath)
		s.persist()
		s.broker.Close()
		os.Exit(0)
	}()

	logger.Printf("aggregator %s listening on %s (Tmeasure=%v, %d slots, %d shards)",
		cfg.ID, *addr, cfg.Tmeasure, cfg.Slots, cfg.Shards)
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
			s.agg.HandleDeviceMessage(reg.DeviceID, msg)
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
			s.agg.HandleDeviceMessage(rep.DeviceID, msg)
		}
	}
}

// sendControlAsync is the aggregator's downlink. It publishes off the
// caller's lock (the broker has its own locking and may call back into
// OnPublish), so a failed delivery is logged, not returned.
func (s *server) sendControlAsync(deviceID string, msg protocol.Message) error {
	go func() {
		payload, err := protocol.Encode(msg)
		if err != nil {
			s.logger.Printf("encode control: %v", err)
			return
		}
		if err := s.broker.Publish(protocol.ControlTopic(s.agg.ID(), deviceID), payload, mqtt.QoS1, false); err != nil {
			s.logger.Printf("publish control: %v", err)
		}
	}()
	return nil
}

// onWindow is the aggregator's window sink: it runs at every window close,
// feeds the window-grid liveness check and accounts for the windows that had
// reporters, so the aggregator retains none.
func (s *server) onWindow(w aggregator.WindowReport) {
	s.lastClose.Store(time.Now().UnixNano())
	if len(w.PerDevice) == 0 && w.Ground == 0 && w.Quarantined == 0 {
		return // idle grid tick
	}
	s.windows++
	if !w.Verdict.OK {
		s.flagged++
		s.logger.Printf("window at %v FLAGGED (%s): ground %v, reported %v, culprit %q, %d quarantined",
			w.Start, w.Verdict.Reason, w.Ground, w.Reported, w.Culprit, w.Quarantined)
	}
}

// sealReplicated is the aggregator's seal hook under -replicas. With a hook
// installed the aggregator leaves the terminal journey stage to the hook's
// owner, so it is observed here.
func (s *server) sealReplicated(records []blockchain.Record) error {
	start := time.Now()
	if err := s.rep.seal(start, records); err != nil {
		s.logger.Printf("replicated seal: %v (%d records retained)", err, len(records))
		return err
	}
	s.tracer.ObserveStage(telemetry.StageSealAttach, start, time.Since(start))
	return nil
}

// persist stops the window ticker, closes the last partial window so its
// records are sealed and appended, and closes the chain files. Every block
// was synced as it landed, so nothing else is written here.
func (s *server) persist() {
	s.agg.Stop()
	s.agg.CloseWindow()
	s.logger.Printf("%d windows closed with reporters, %d flagged", s.windows, s.flagged)
	for k, chain := range s.chains() {
		path := s.chainFile(k)
		if k > 0 && chain.Length() != s.chain.Length() {
			s.logger.Printf("WARNING: replica %s diverged (%d blocks vs %d, %d import errors)",
				path, chain.Length(), s.chain.Length(), s.rep.importErrs[s.rep.ids[k]])
		}
		if err := chain.CloseLog(); err != nil {
			s.logger.Printf("close chain %s: %v", path, err)
		}
		fmt.Fprintf(os.Stderr, "meterd: %s: %d blocks (%d records) durable\n",
			path, chain.Length(), chain.TotalRecords())
	}
}
