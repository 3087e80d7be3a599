// Package aggregator implements the trusted per-network unit of the
// paper's architecture: it admits devices into TDMA slots (sequence 1 of
// Fig. 3), grants temporary memberships to roaming devices after verifying
// them with their home aggregator over the backhaul (sequence 2), handles
// membership transfer and removal (sequence 3), validates reported
// consumption against its own system-level complementary measurement, and
// seals verified records into the shared permissioned blockchain.
//
// # Sharded ingest
//
// Devices hash onto Config.Shards ingest shards (FNV-1a on the device ID).
// Each shard owns its members' sequence tracking, window accumulation and
// pending-record batch under its own lock, so the report path never takes a
// cross-shard or aggregator-wide lock; CloseWindow is the merge step that
// folds the per-shard partials into one WindowReport and one sealed block.
// Shards = 1 reproduces the original single-state-machine semantics.
//
// Inside the DES everything runs on the simulation goroutine, but the
// report path (HandleDeviceMessage with Report batches, and ForwardReport
// over the backhaul) is safe for concurrent use from multiple goroutines —
// as the fleet driver and ingest benchmark exercise — provided the
// simulation clock is not being advanced concurrently and the configured
// callbacks (SendToDevice, WallClock) are themselves thread-safe. Backhaul
// sends from the report path are serialized internally so concurrent shard
// ingest cannot interleave inside the mesh scheduler.
package aggregator

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"decentmeter/internal/anomaly"
	"decentmeter/internal/backhaul"
	"decentmeter/internal/blockchain"
	"decentmeter/internal/protocol"
	"decentmeter/internal/sensor"
	"decentmeter/internal/sim"
	"decentmeter/internal/tdma"
	"decentmeter/internal/telemetry"
	"decentmeter/internal/units"
)

// Membership is one admitted device.
type Membership struct {
	DeviceID string
	Kind     protocol.MembershipKind
	// Home is the master aggregator (self for master members).
	Home string
	// Slot is the granted TDMA slot.
	Slot int
	// LastSeq is the highest acknowledged measurement sequence.
	LastSeq uint64
	// JoinedAt is the admission time.
	JoinedAt time.Duration
	// ForeignFeeder marks a guest whose load draws on another network's
	// feeder (crash failover: the device kept its outlet but lost its
	// aggregator). Its records are stored and sealed here, but its
	// reports never enter the local verification window — the local
	// feeder-head meter cannot see its draw — and nothing is forwarded
	// to its (dead) home.
	ForeignFeeder bool
	// HomeDown marks a roaming temporary whose home aggregator is
	// currently unreachable (set by the orchestrator via SetHomeDown):
	// its data is recorded here instead of being forwarded into a black
	// hole — acknowledging a measurement and then dropping its forward
	// would lose it for good. Window accounting is unaffected: unlike a
	// ForeignFeeder guest, the device draws on this network's feeder.
	HomeDown bool
}

// WindowReport summarizes one verification window (the unit of Fig. 5).
type WindowReport struct {
	// Start is the window's opening virtual time.
	Start time.Duration
	// Ground is the aggregator's own feeder measurement (mean over the
	// window).
	Ground units.Current
	// Reported is the sum of mean device-reported currents.
	Reported units.Current
	// PerDevice holds each device's mean reported current.
	PerDevice map[string]units.Current
	// Verdict is the sum check outcome.
	Verdict anomaly.Verdict
	// Culprit, when the verdict failed and one device dominates the
	// deficit, names the suspected tamperer.
	Culprit string
	// Quarantined counts live measurements rejected by the
	// timestamp-skew gate during this window (see MaxTimestampSkew). Any
	// quarantine fails the verdict: the fleet is reporting but some of
	// its data was too drifted to trust.
	Quarantined uint64
}

// DefaultMaxPendingRecords bounds the records buffered toward the next
// chain seal when Config.MaxPendingRecords is zero. At the paper's 100 ms
// Tmeasure this is ~26k device-seconds of backlog before drop-oldest kicks
// in.
const DefaultMaxPendingRecords = 1 << 18

// Scheduler is the timing seam: exactly the calls the aggregator makes on
// its clock. *sim.Env satisfies it in virtual time (the test suite, every
// fleet scenario) and *sim.Wall on the process clock (cmd/meterd), where
// registrations and reports arrive from concurrent broker sessions and the
// window close runs on the ticker's goroutine. Pause and Resume (crash
// injection) remain DES facilities and expect a single control goroutine.
type Scheduler interface {
	Now() sim.Time
	Ticker(period sim.Time, fn func(sim.Time)) (stop func())
	Schedule(d sim.Time, fn func()) sim.EventRef
	Cancel(r sim.EventRef) bool
}

// unverifiedReason is the verdict reason of a window closed without a head
// meter.
const unverifiedReason = "unverified: no head meter"

// seriesPointBudget is the total of per-device series points an aggregator
// retains (the testbed's 40 slots at 100000 points each); a device's cap is
// its share of the slot budget, so the total is fixed at any slot count.
const seriesPointBudget = 40 * 100000

// Config assembles an aggregator.
type Config struct {
	// ID is the aggregator identity (AP SSID, mesh address, producer ID).
	ID string
	// Env drives timing.
	Env Scheduler
	// HeadMeter reads the feeder-head INA219 (system-level measurement).
	// Nil means the deployment has none: no ground is sampled and no sum
	// check runs; every WindowReport says so (Verdict.OK, reason
	// "unverified: no head meter"), as does "<ID>.sum_check_enabled" = 0.
	HeadMeter *sensor.Meter
	// WallClock stamps blocks.
	WallClock func() time.Time
	// Mesh is the inter-aggregator backhaul; the aggregator joins it.
	Mesh *backhaul.Mesh
	// Chain is the shared permissioned blockchain.
	Chain *blockchain.Chain
	// Signer is this aggregator's block-producing identity.
	Signer *blockchain.Signer
	// SendToDevice delivers a message to a device over the local WAN.
	SendToDevice func(deviceID string, msg protocol.Message) error
	// Tmeasure is the mandated reporting interval (paper: 100 ms).
	Tmeasure time.Duration
	// WindowInterval is the verification/metering window (default 1 s,
	// the granularity of Fig. 5's bars).
	WindowInterval time.Duration
	// Slots configures TDMA admission (default tdma.DefaultConfig).
	Slots tdma.Config
	// SumCheck configures the complementary-measurement verification.
	SumCheck anomaly.SumCheckConfig
	// Registry receives live telemetry (optional).
	Registry *telemetry.Registry
	// Tracer, when set, records report-journey stage latencies (shard
	// ingest, window close, local seal). Sampling gates keep the
	// uninstrumented and unsampled paths alloc- and lock-free.
	Tracer *telemetry.Tracer
	// Shards is the number of ingest shards devices hash onto (default 1,
	// the original single-state-machine layout). Reports for devices on
	// different shards never contend on a lock.
	Shards int
	// MaxPendingRecords caps the records buffered toward the next chain
	// seal, across all shards. When sealing keeps failing the backlog
	// drops oldest records instead of growing without bound; drops are
	// counted in the "<ID>.records_dropped" telemetry counter and
	// DroppedRecords. Default DefaultMaxPendingRecords.
	MaxPendingRecords int
	// MaxTimestampSkew, when positive, quarantines live measurements
	// whose timestamp deviates from WallClock by more than this bound: a
	// device whose RTC has drifted past the bound surfaces as sum-check
	// anomalies (its data held out of the window and the sealed block),
	// never as chain corruption. The ack frontier stops at the first
	// quarantined measurement, so once the device's clock is
	// re-disciplined the data retransmits as Buffered (legitimately old)
	// and is sealed then — quarantine defers acked data, it never loses
	// it. Buffered measurements are exempt: store-and-forward stamps are
	// old by construction. Zero disables the gate entirely.
	MaxTimestampSkew time.Duration
}

// Aggregator is one network's trusted unit.
type Aggregator struct {
	cfg Config

	// shards own all per-device report-path state; see package doc.
	shards []*ingestShard

	// mu guards the control plane: the slot schedule, pending roaming
	// verifications, window/ground accounting and the seal backlog. Lock
	// order is mu before any shard.mu; the report path takes only shard
	// locks.
	mu            sync.Mutex
	sched         *tdma.Schedule
	pendingVerify map[string]pendingReg
	windowStart   time.Duration
	groundSamples []units.Current
	windows       []WindowReport
	// windowSink (SetWindowSink) takes each closed window; windows stays empty.
	windowSink func(WindowReport)
	// backlog holds merged records awaiting a successful Chain.Seal,
	// bounded by MaxPendingRecords with drop-oldest overflow.
	backlog     boundedRecords
	sealScratch []blockchain.Record
	// sealFn, when set (SetSeal), replaces local Chain.Seal: CloseWindow
	// hands the merged window records to it instead — the hook of the
	// replicated tier, which runs them through consensus.
	sealFn func(records []blockchain.Record) error
	// sharedLedger mirrors sealFn != nil for the report hot path: on a
	// consensus-shared ledger a roaming temporary's data is recorded once,
	// by its home aggregator (whose watermark spans every network the
	// device visits) — the visited aggregator only window-accounts and
	// forwards. Without it, visited-plus-home recording would seal every
	// roamer measurement twice on the common chain.
	sharedLedger atomic.Bool
	// winScratch accumulates per-device window partials during the merge.
	winScratch map[string]departedAccum

	// meshMu serializes backhaul sends issued from the report path so
	// concurrent shard ingest cannot interleave inside the mesh scheduler.
	meshMu sync.Mutex

	stopSampling func()
	stopSealing  func()
	// resumeSample/resumeSeal are the pending grid-alignment one-shots of
	// a Resume in progress (see Resume).
	resumeSample sim.EventRef
	resumeSeal   sim.EventRef
	// paused models a crashed process: deliveries already in flight on the
	// link layer arrive at a dead box and are dropped.
	paused atomic.Bool

	// counters
	memberCount     atomic.Int64
	reportsAccepted atomic.Uint64
	reportsNacked   atomic.Uint64
	blocksSealed    atomic.Uint64
	recordsDropped  atomic.Uint64
	measQuarantined atomic.Uint64

	// instruments, pre-resolved at New so the report path never touches
	// the registry mutex; all nil when Config.Registry is nil.
	mIngested *telemetry.ShardedCounter // "<ID>.reports_ingested", striped by shard
	mNacked   *telemetry.Counter        // "<ID>.reports_nacked"
	mQuar     *telemetry.Counter        // "<ID>.drift_quarantined"
	mPending  *telemetry.Gauge          // "<ID>.pending_records"
	mWindowUs *telemetry.Histogram      // "<ID>.window_close_us"
	tracer    *telemetry.Tracer
}

// windowCloseBoundsUs buckets the window-close merge latency, µs.
var windowCloseBoundsUs = []float64{10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000}

type pendingReg struct {
	master string
	rssi   float64
}

// New builds and starts an aggregator: it joins the mesh, starts sampling
// its head meter (when it has one) at Tmeasure and closing a verification
// window — which seals that window's records — every WindowInterval.
func New(cfg Config) (*Aggregator, error) {
	if cfg.ID == "" {
		return nil, errors.New("aggregator: requires an ID")
	}
	if cfg.Env == nil || cfg.Mesh == nil ||
		cfg.Chain == nil || cfg.Signer == nil || cfg.SendToDevice == nil {
		return nil, errors.New("aggregator: missing required component")
	}
	if cfg.WallClock == nil {
		return nil, errors.New("aggregator: requires a WallClock")
	}
	if cfg.Tmeasure <= 0 {
		cfg.Tmeasure = 100 * time.Millisecond
	}
	if cfg.WindowInterval <= 0 {
		cfg.WindowInterval = time.Second
	}
	if cfg.Slots.Superframe == 0 {
		cfg.Slots = tdma.DefaultConfig()
	}
	if cfg.SumCheck.MaxGapFraction == 0 {
		cfg.SumCheck = anomaly.DefaultSumCheck()
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > 4096 {
		return nil, fmt.Errorf("aggregator: %d shards exceeds the 4096 limit", cfg.Shards)
	}
	if cfg.MaxPendingRecords <= 0 {
		cfg.MaxPendingRecords = DefaultMaxPendingRecords
	}
	sched, err := tdma.NewSchedule(cfg.Slots)
	if err != nil {
		return nil, err
	}
	perShard := cfg.MaxPendingRecords / cfg.Shards
	if perShard < 1 {
		perShard = 1
	}
	a := &Aggregator{
		cfg:           cfg,
		shards:        make([]*ingestShard, cfg.Shards),
		sched:         sched,
		pendingVerify: make(map[string]pendingReg),
		backlog:       boundedRecords{max: cfg.MaxPendingRecords},
		winScratch:    make(map[string]departedAccum),
	}
	for i := range a.shards {
		a.shards[i] = newShard(perShard)
	}
	a.tracer = cfg.Tracer
	if cfg.Registry != nil {
		a.mIngested = cfg.Registry.ShardedCounter(cfg.ID + ".reports_ingested")
		a.mNacked = cfg.Registry.Counter(cfg.ID + ".reports_nacked")
		a.mQuar = cfg.Registry.Counter(cfg.ID + ".drift_quarantined")
		a.mPending = cfg.Registry.Gauge(cfg.ID + ".pending_records")
		a.mWindowUs = cfg.Registry.Histogram(cfg.ID+".window_close_us", windowCloseBoundsUs)
		if g := cfg.Registry.Gauge(cfg.ID + ".sum_check_enabled"); cfg.HeadMeter != nil {
			g.Set(1) // without one the gauge is registered all the same, at 0
		}
	}
	if err := cfg.Mesh.Join(cfg.ID, a.handleBackhaul); err != nil {
		return nil, err
	}
	a.windowStart = cfg.Env.Now()
	if cfg.HeadMeter != nil {
		a.stopSampling = cfg.Env.Ticker(cfg.Tmeasure, func(sim.Time) { a.sampleGround() })
	}
	a.stopSealing = cfg.Env.Ticker(cfg.WindowInterval, func(sim.Time) { a.CloseWindow() })
	return a, nil
}

// ID returns the aggregator identity.
func (a *Aggregator) ID() string { return a.cfg.ID }

// ShardIndex returns the ingest shard a device hashes onto. Fleet drivers
// use it to give producers shard affinity.
func (a *Aggregator) ShardIndex(deviceID string) int {
	return ShardOf(deviceID, len(a.shards))
}

func (a *Aggregator) shardFor(deviceID string) *ingestShard {
	return a.shards[ShardOf(deviceID, len(a.shards))]
}

// Members returns current memberships sorted by device ID.
func (a *Aggregator) Members() []Membership {
	out := make([]Membership, 0, a.memberCount.Load())
	for _, sh := range a.shards {
		sh.mu.Lock()
		for _, st := range sh.devices {
			out = append(out, st.Membership)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DeviceID < out[j].DeviceID })
	return out
}

// Member returns the membership for a device, if any.
func (a *Aggregator) Member(deviceID string) (Membership, bool) {
	sh := a.shardFor(deviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.devices[deviceID]
	if !ok {
		return Membership{}, false
	}
	return st.Membership, true
}

// Windows returns the completed verification windows retained so far (none
// once a window sink is installed).
func (a *Aggregator) Windows() []WindowReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]WindowReport(nil), a.windows...)
}

// SetWindowSink hands every window close to fn instead of retaining a
// WindowReport per window, which bounds a long-running host. fn also sees
// the closes Windows() skips (an idle grid tick: no reporter, ground or
// quarantine, zero Verdict), so it is the host's grid liveness signal too.
// fn runs under the control-plane lock: it must not call the aggregator.
func (a *Aggregator) SetWindowSink(fn func(WindowReport)) {
	a.mu.Lock()
	a.windowSink = fn
	a.mu.Unlock()
}

// Stats returns (reportsAccepted, reportsNacked, blocksSealed).
func (a *Aggregator) Stats() (uint64, uint64, uint64) {
	return a.reportsAccepted.Load(), a.reportsNacked.Load(), a.blocksSealed.Load()
}

// DroppedRecords returns how many pending records the bounded seal backlog
// has discarded (only non-zero when sealing falls behind or fails).
func (a *Aggregator) DroppedRecords() uint64 { return a.recordsDropped.Load() }

// QuarantinedMeasurements returns how many live measurements the
// timestamp-skew gate has quarantined in total (see MaxTimestampSkew).
func (a *Aggregator) QuarantinedMeasurements() uint64 { return a.measQuarantined.Load() }

// PendingRecords returns the records currently buffered toward the next
// seal, across the shard batches and the merged backlog.
func (a *Aggregator) PendingRecords() int {
	a.mu.Lock()
	n := a.backlog.len()
	a.mu.Unlock()
	for _, sh := range a.shards {
		sh.mu.Lock()
		n += sh.pending.len()
		sh.mu.Unlock()
	}
	return n
}

// Stop halts the periodic loops (used by load-balancing migrations and
// crash injection). Idempotent; Resume restarts a stopped aggregator.
func (a *Aggregator) Stop() {
	if a.stopSampling != nil {
		a.stopSampling()
		a.stopSampling = nil
	}
	if a.stopSealing != nil {
		a.stopSealing()
		a.stopSealing = nil
	}
	a.cfg.Env.Cancel(a.resumeSample)
	a.cfg.Env.Cancel(a.resumeSeal)
	a.resumeSample, a.resumeSeal = sim.EventRef{}, sim.EventRef{}
}

// Pause is Stop under its failure-injection name: the aggregator process
// crashes, its membership and pending records freeze in place, and any
// message still in flight toward it is lost (the senders' retransmission
// machinery recovers the data elsewhere).
func (a *Aggregator) Pause() {
	a.paused.Store(true)
	a.Stop()
}

// Resume restarts a paused aggregator. The partial verification window
// from before the pause is discarded — ground sampling stopped, so the
// window can no longer be verified — but the pending records survive and
// seal with the next window, which is what makes crash recovery lossless
// for already-acknowledged measurements. The sampling and window loops
// snap back onto the global k*Tmeasure / k*WindowInterval grid the
// aggregator ran on before the crash, so recovered windows line up with
// the rest of the fleet instead of free-running from the resume instant.
func (a *Aggregator) Resume() {
	if a.stopSampling != nil || a.stopSealing != nil ||
		a.resumeSample.Pending() || a.resumeSeal.Pending() {
		return
	}
	a.paused.Store(false)
	a.mu.Lock()
	a.windowStart = a.cfg.Env.Now()
	a.groundSamples = a.groundSamples[:0]
	for _, sh := range a.shards {
		sh.mu.Lock()
		for _, st := range sh.active {
			st.winSum, st.winCount = 0, 0
		}
		sh.active = sh.active[:0]
		for dev := range sh.departed {
			delete(sh.departed, dev)
		}
		sh.mu.Unlock()
	}
	a.mu.Unlock()
	now := a.cfg.Env.Now()
	// The seal one-shot is scheduled first so that, at a shared grid
	// instant, the (empty) window close precedes the ground sample — the
	// same-order steady state the constructor's tickers produce.
	a.resumeSeal = a.cfg.Env.Schedule(gridWait(now, a.cfg.WindowInterval), func() {
		a.CloseWindow()
		a.stopSealing = a.cfg.Env.Ticker(a.cfg.WindowInterval, func(sim.Time) { a.CloseWindow() })
	})
	if a.cfg.HeadMeter == nil {
		return
	}
	a.resumeSample = a.cfg.Env.Schedule(gridWait(now, a.cfg.Tmeasure), func() {
		a.sampleGround()
		a.stopSampling = a.cfg.Env.Ticker(a.cfg.Tmeasure, func(sim.Time) { a.sampleGround() })
	})
}

// gridWait returns the delay from now to the next multiple of period
// (zero when already on the grid).
func gridWait(now, period time.Duration) time.Duration {
	if period <= 0 {
		return 0
	}
	return (period - now%period) % period
}

// SetSeal overrides local Chain.Seal: when fn is non-nil, CloseWindow hands
// each window's merged records to it and treats a nil return as "sealed"
// (the records now belong to fn — it must copy what it keeps, the slice is
// scratch). A non-nil return keeps the records in the bounded backlog for
// the next window, exactly like a failed local seal. Passing nil restores
// local sealing.
func (a *Aggregator) SetSeal(fn func(records []blockchain.Record) error) {
	a.mu.Lock()
	a.sealFn = fn
	a.mu.Unlock()
	a.sharedLedger.Store(fn != nil)
}

// SlotStats returns the TDMA schedule occupancy (used, capacity) — the
// load-balancing planner's capacity snapshot.
func (a *Aggregator) SlotStats() (used, capacity int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sched.Used(), a.sched.Capacity()
}

// SetDutyCycle deepens (skip > 1) or restores (skip <= 1) a registered
// device's TDMA duty cycle: the device transmits only every skip-th
// superframe. Scenario drivers mirror a low-SoC device's shed state here so
// the schedule reflects the radio time the device actually uses.
func (a *Aggregator) SetDutyCycle(deviceID string, skip int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sched.SetDutyCycle(deviceID, skip)
}

// --- device-facing handling -------------------------------------------------------

// HandleDeviceMessage processes an uplink message from a device. The
// scenario's link layer calls this on delivery.
func (a *Aggregator) HandleDeviceMessage(deviceID string, msg protocol.Message) {
	if a.paused.Load() {
		return
	}
	switch m := msg.(type) {
	case protocol.Register:
		a.onRegister(m)
	case protocol.Report:
		a.onReport(m)
	}
}

// onRegister runs sequences 1 and 2 of Fig. 3.
func (a *Aggregator) onRegister(m protocol.Register) {
	if cur, ok := a.Member(m.DeviceID); ok {
		// Re-registration of an existing member (e.g. device rebooted):
		// re-grant the same slot.
		a.sendAck(cur)
		return
	}
	if m.MasterAddr == "" || m.MasterAddr == a.cfg.ID {
		// Sequence 1: fresh master membership in this network.
		a.admit(m.DeviceID, protocol.MemberMaster, a.cfg.ID)
		return
	}
	// Sequence 2: roaming device. Verify with its home aggregator before
	// granting a temporary membership.
	a.mu.Lock()
	a.pendingVerify[m.DeviceID] = pendingReg{master: m.MasterAddr, rssi: m.RSSIDBm}
	a.mu.Unlock()
	err := a.meshSend(m.MasterAddr, protocol.VerifyRequest{
		DeviceID:  m.DeviceID,
		Requester: a.cfg.ID,
	})
	if err != nil {
		a.mu.Lock()
		delete(a.pendingVerify, m.DeviceID)
		a.mu.Unlock()
		_ = a.cfg.SendToDevice(m.DeviceID, protocol.RegisterNack{
			DeviceID: m.DeviceID,
			Reason:   fmt.Sprintf("home %s unreachable", m.MasterAddr),
		})
	}
}

// meshSend serializes backhaul sends (see meshMu).
func (a *Aggregator) meshSend(to string, msg protocol.Message) error {
	a.meshMu.Lock()
	defer a.meshMu.Unlock()
	return a.cfg.Mesh.Send(a.cfg.ID, to, msg)
}

// admit grants a membership and a slot.
func (a *Aggregator) admit(deviceID string, kind protocol.MembershipKind, home string) {
	mem, err := a.grant(deviceID, kind, home, false)
	if errors.Is(err, tdma.ErrAlreadyOwner) {
		// Lost a registration race (two sessions, or a QoS 1 redelivery,
		// both missed Member before either was granted): the device is
		// admitted, so answer with the membership the winner installed.
		if cur, ok := a.Member(deviceID); ok {
			a.sendAck(cur)
			return
		}
	}
	if err != nil {
		_ = a.cfg.SendToDevice(deviceID, protocol.RegisterNack{
			DeviceID: deviceID,
			Reason:   "no free time-slots",
		})
		return
	}
	if kind == protocol.MemberMaster {
		a.meshMu.Lock()
		_ = a.cfg.Mesh.RegisterHome(deviceID, a.cfg.ID)
		a.meshMu.Unlock()
	}
	a.sendAck(mem)
}

// AdmitGuest grants a temporary membership from the control plane — the
// orchestration layer's failover and rebalancing path, which bypasses the
// device-initiated register/verify round-trip (the orchestrator itself
// vouches for the device; its home may be a crashed aggregator that cannot
// answer a VerifyRequest). foreignFeeder marks a device whose load remains
// on another network's feeder; see Membership.ForeignFeeder. lastSeq seeds
// the duplicate-suppression high-water mark with the previous aggregator's
// acknowledged frontier: without it, a measurement whose ack died with the
// old aggregator would be retransmitted here and stored twice.
func (a *Aggregator) AdmitGuest(deviceID, home string, foreignFeeder bool, lastSeq uint64) error {
	if _, ok := a.Member(deviceID); ok {
		return fmt.Errorf("aggregator: %s already a member of %s", deviceID, a.cfg.ID)
	}
	mem, err := a.grant(deviceID, protocol.MemberTemporary, home, foreignFeeder)
	if err != nil {
		return err
	}
	a.SyncSeq(deviceID, lastSeq)
	// The grant ack doubles as a steering hint for a device that happens
	// to be mid-registration here.
	a.sendAck(mem)
	return nil
}

// SetHomeDown flips a member's home-unreachable marking (see
// Membership.HomeDown). The orchestration layer calls it for every roaming
// temporary whose home aggregator crashed, and clears it on recovery.
func (a *Aggregator) SetHomeDown(deviceID string, down bool) {
	sh := a.shardFor(deviceID)
	sh.mu.Lock()
	if st, ok := sh.devices[deviceID]; ok {
		st.HomeDown = down
	}
	sh.mu.Unlock()
}

// SyncSeq raises a member's acknowledged-sequence high-water mark (never
// lowers it). Membership handoffs use it to carry duplicate suppression
// across aggregators: what one aggregator acknowledged, the next must not
// store again.
func (a *Aggregator) SyncSeq(deviceID string, seq uint64) {
	sh := a.shardFor(deviceID)
	sh.mu.Lock()
	if st, ok := sh.devices[deviceID]; ok && seq > st.LastSeq {
		st.LastSeq = seq
	}
	sh.mu.Unlock()
}

// grant assigns a slot and installs the shard state shared by admit and
// AdmitGuest.
func (a *Aggregator) grant(deviceID string, kind protocol.MembershipKind, home string, foreignFeeder bool) (Membership, error) {
	// Slot and shard entry go in under one hold of mu, so a concurrent grant
	// that fails with ErrAlreadyOwner finds the membership in place.
	a.mu.Lock()
	defer a.mu.Unlock()
	slot, err := a.sched.Assign(deviceID)
	if err != nil {
		return Membership{}, err
	}
	st := &deviceState{Membership: Membership{
		DeviceID:      deviceID,
		Kind:          kind,
		Home:          home,
		Slot:          slot,
		JoinedAt:      a.cfg.Env.Now(),
		ForeignFeeder: foreignFeeder,
	}}
	if a.cfg.Registry != nil {
		st.series = a.cfg.Registry.Series(a.cfg.ID+".device."+deviceID+".ma", seriesPointBudget/a.sched.Capacity())
	}
	sh := a.shardFor(deviceID)
	sh.mu.Lock()
	sh.devices[deviceID] = st
	sh.mu.Unlock()
	a.memberCount.Add(1)
	if a.cfg.Registry != nil {
		a.cfg.Registry.Counter(a.cfg.ID + ".memberships").Inc()
		a.cfg.Registry.Gauge(a.cfg.ID + ".members").Set(float64(a.memberCount.Load()))
	}
	return st.Membership, nil
}

func (a *Aggregator) sendAck(m Membership) {
	_ = a.cfg.SendToDevice(m.DeviceID, protocol.RegisterAck{
		DeviceID:     m.DeviceID,
		Kind:         m.Kind,
		AggregatorID: a.cfg.ID,
		Slot:         m.Slot,
		Tmeasure:     a.cfg.Tmeasure,
	})
}

// batchMaxSeq returns the highest sequence in a batch. Batches are usually
// sorted, but a retransmission whose buffered tail carries older seqs must
// still be acknowledged (and the high-water mark advanced) by its maximum,
// not its last element.
func batchMaxSeq(ms []protocol.Measurement) uint64 {
	var max uint64
	for _, m := range ms {
		if m.Seq > max {
			max = m.Seq
		}
	}
	return max
}

// onReport validates and stores a consumption report. It touches only the
// device's shard, so reports for different shards proceed concurrently.
func (a *Aggregator) onReport(m protocol.Report) {
	si := ShardOf(m.DeviceID, len(a.shards))
	sh := a.shards[si]
	// Stage tracing: only a sampled journey in flight pays for timestamps.
	traced := a.tracer.Active()
	var traceStart time.Time
	if traced {
		traceStart = time.Now()
	}
	sh.mu.Lock()
	st, ok := sh.devices[m.DeviceID]
	if !ok {
		sh.mu.Unlock()
		// "Aggregator 2 upon receiving the consumption data sends a
		// negative acknowledgment (Nack) to indicate the absence of
		// membership."
		a.reportsNacked.Add(1)
		if a.mNacked != nil {
			a.mNacked.Inc()
		}
		_ = a.cfg.SendToDevice(m.DeviceID, protocol.ReportNack{
			DeviceID: m.DeviceID,
			Seq:      batchMaxSeq(m.Measurements),
			Reason:   "not a member",
		})
		return
	}
	// Reports retransmit everything unacknowledged; ingest only what is
	// new (Seq beyond the high-water mark) so a lost Ack cannot
	// double-store a measurement.
	prev := st.LastSeq
	// Foreign-feeder guests have no live home to forward to (crash
	// failover), and a roamer whose home is marked down must not have its
	// acknowledged data forwarded into a black hole; both are stored and
	// sealed here.
	forward := st.Kind == protocol.MemberTemporary && !st.ForeignFeeder && !st.HomeDown
	// On a shared ledger the forwarding home is the single recorder for
	// its roaming devices (see sharedLedger); on per-aggregator chains
	// the visited aggregator records too, as the paper's Fig. 3 does.
	record := !(forward && a.sharedLedger.Load())
	skewBound := a.cfg.MaxTimestampSkew
	var wallNow time.Time
	if skewBound > 0 {
		wallNow = a.cfg.WallClock()
	}
	var fresh []protocol.Measurement
	accepted := 0
	quarantined := 0
	// ackSeq is the contiguous-acceptance frontier: the ack may only cover
	// seqs that were actually ingested (or already were), so a quarantined
	// measurement halts it — the device keeps the data and retransmits it
	// once its clock is disciplined.
	ackSeq := prev
	halted := false
	for _, meas := range m.Measurements {
		if meas.Seq <= prev || halted {
			continue
		}
		if skewBound > 0 && !meas.Buffered {
			if skew := meas.Timestamp.Sub(wallNow); skew > skewBound || skew < -skewBound {
				// Too drifted to trust live: hold it (and everything
				// after it, to keep the frontier contiguous) out of the
				// window and the ledger.
				if st.winCount == 0 && st.winQuarantined == 0 {
					sh.active = append(sh.active, st)
				}
				st.winQuarantined++
				quarantined++
				halted = true
				continue
			}
		}
		sh.ingestLocked(a, st, meas, a.cfg.ID, record)
		accepted++
		if meas.Seq > ackSeq {
			ackSeq = meas.Seq
		}
		if forward {
			fresh = append(fresh, meas)
		}
	}
	if ackSeq > st.LastSeq {
		st.LastSeq = ackSeq
	}
	home := st.Home
	sh.mu.Unlock()
	a.reportsAccepted.Add(uint64(accepted))
	if a.mIngested != nil {
		a.mIngested.Add(si, uint64(accepted))
	}
	if quarantined > 0 {
		a.measQuarantined.Add(uint64(quarantined))
		if a.mQuar != nil {
			a.mQuar.Add(float64(quarantined))
		}
	}
	if traced {
		a.tracer.ObserveStage(telemetry.StageShardIngest, traceStart, time.Since(traceStart))
	}
	if len(m.Measurements) > 0 {
		_ = a.cfg.SendToDevice(m.DeviceID, protocol.ReportAck{DeviceID: m.DeviceID, Seq: ackSeq})
	}
	// Temporary members' data goes home over the backhaul.
	if len(fresh) > 0 {
		err := a.meshSend(home, protocol.ForwardReport{
			DeviceID:     m.DeviceID,
			Via:          a.cfg.ID,
			Measurements: fresh,
		})
		if err != nil && !record {
			// Shared-ledger mode skipped the local record expecting the
			// home to store the data — but the forward could not even be
			// sent. Acked data must exist somewhere: fall back to
			// recording it here.
			sh.mu.Lock()
			if st, ok := sh.devices[m.DeviceID]; ok {
				for _, meas := range fresh {
					sh.pending.push(recordOf(st, meas, a.cfg.ID))
				}
			}
			sh.mu.Unlock()
		}
	}
}

// --- backhaul handling --------------------------------------------------------------

func (a *Aggregator) handleBackhaul(from string, msg protocol.Message) {
	if a.paused.Load() {
		return
	}
	switch m := msg.(type) {
	case protocol.VerifyRequest:
		a.onVerifyRequest(from, m)
	case protocol.VerifyResponse:
		a.onVerifyResponse(m)
	case protocol.ForwardReport:
		a.onForwardReport(m)
	case protocol.TransferMembership:
		a.onTransfer(m)
	case protocol.RemoveDevice:
		a.removeMembership(m.DeviceID)
		_ = a.meshSend(from, protocol.RemoveAck{DeviceID: m.DeviceID})
	}
}

// onVerifyRequest vouches (or not) for one of this network's devices.
func (a *Aggregator) onVerifyRequest(from string, m protocol.VerifyRequest) {
	mem, ok := a.Member(m.DeviceID)
	resp := protocol.VerifyResponse{DeviceID: m.DeviceID}
	if ok && mem.Kind == protocol.MemberMaster {
		resp.OK = true
	} else {
		resp.Reason = "not a master member here"
	}
	_ = a.meshSend(from, resp)
}

// onVerifyResponse completes a roaming admission.
func (a *Aggregator) onVerifyResponse(m protocol.VerifyResponse) {
	a.mu.Lock()
	pend, ok := a.pendingVerify[m.DeviceID]
	if ok {
		delete(a.pendingVerify, m.DeviceID)
	}
	a.mu.Unlock()
	if !ok {
		return
	}
	if !m.OK {
		_ = a.cfg.SendToDevice(m.DeviceID, protocol.RegisterNack{
			DeviceID: m.DeviceID,
			Reason:   "home verification failed: " + m.Reason,
		})
		return
	}
	a.admit(m.DeviceID, protocol.MemberTemporary, pend.master)
}

// onForwardReport receives a roaming home device's data collected elsewhere.
func (a *Aggregator) onForwardReport(m protocol.ForwardReport) {
	sh := a.shardFor(m.DeviceID)
	sh.mu.Lock()
	st, ok := sh.devices[m.DeviceID]
	if !ok || st.Kind != protocol.MemberMaster {
		sh.mu.Unlock()
		return
	}
	// Forwarded data is stored and billed at home but must not enter the
	// local feeder verification window: the device draws from the
	// foreign feeder, so only record it.
	prev := st.LastSeq
	n := 0
	for _, meas := range m.Measurements {
		if meas.Seq <= prev {
			continue // duplicate forward
		}
		sh.pending.push(recordOf(st, meas, m.Via)) // a master's Home is this aggregator
		n++
		if st.series != nil {
			st.series.Append(a.cfg.Env.Now(), meas.Current.Milliamps())
		}
	}
	if top := batchMaxSeq(m.Measurements); top > st.LastSeq {
		st.LastSeq = top
	}
	sh.mu.Unlock()
	// On a shared ledger the forwarded measurements were already counted
	// as accepted by the visited aggregator; counting the home-side
	// recording again would double-report acceptance.
	if !a.sharedLedger.Load() {
		a.reportsAccepted.Add(uint64(n))
	}
}

// onTransfer moves a master membership to a new home (sequence 3).
func (a *Aggregator) onTransfer(m protocol.TransferMembership) {
	if m.NewMasterAddr == a.cfg.ID {
		if _, ok := a.Member(m.DeviceID); !ok {
			a.admit(m.DeviceID, protocol.MemberMaster, a.cfg.ID)
		}
		return
	}
	// We are the old home: drop the membership and update the directory.
	a.removeMembership(m.DeviceID)
	a.meshMu.Lock()
	_ = a.cfg.Mesh.TransferHome(m.DeviceID, m.NewMasterAddr)
	a.meshMu.Unlock()
	_ = a.meshSend(m.NewMasterAddr, m)
}

// RemoveDevice deletes a device's membership entirely (loss / reset /
// transfer-of-ownership) and tells the mesh.
func (a *Aggregator) RemoveDevice(deviceID string) {
	a.removeMembership(deviceID)
	a.meshMu.Lock()
	a.cfg.Mesh.RemoveHome(deviceID)
	a.meshMu.Unlock()
}

func (a *Aggregator) removeMembership(deviceID string) {
	sh := a.shardFor(deviceID)
	sh.mu.Lock()
	st, ok := sh.devices[deviceID]
	if !ok {
		sh.mu.Unlock()
		return
	}
	// Preserve the device's partial window: its draw up to now is still in
	// the feeder's groundSamples, so discarding its samples would fire a
	// false sum-check anomaly at the next CloseWindow.
	if st.winCount > 0 || st.winQuarantined > 0 {
		acc := sh.departed[deviceID]
		acc.sum += st.winSum
		acc.count += st.winCount
		acc.quar += st.winQuarantined
		if st.baseline != nil {
			acc.base = st.baseline.Mean()
		}
		sh.departed[deviceID] = acc
		st.winCount = 0 // active-list entry is skipped at the next merge
		st.winSum = 0
		st.winQuarantined = 0
	}
	delete(sh.devices, deviceID)
	sh.mu.Unlock()
	a.mu.Lock()
	_ = a.sched.Release(deviceID)
	a.mu.Unlock()
	a.memberCount.Add(-1)
	if a.cfg.Registry != nil {
		a.cfg.Registry.Gauge(a.cfg.ID + ".members").Set(float64(a.memberCount.Load()))
	}
}

// ReleaseTemporary discards a temporary membership ("If the device moves
// out of Network 2, the temporary membership is immediately discarded").
func (a *Aggregator) ReleaseTemporary(deviceID string) {
	if mem, ok := a.Member(deviceID); ok && mem.Kind == protocol.MemberTemporary {
		a.removeMembership(deviceID)
	}
}

// --- window + chain -----------------------------------------------------------------

// sampleGround reads the feeder-head meter once per Tmeasure.
func (a *Aggregator) sampleGround() {
	r, err := a.cfg.HeadMeter.Read()
	if err != nil || r.Overflow {
		return
	}
	a.mu.Lock()
	a.groundSamples = append(a.groundSamples, r.Current)
	a.mu.Unlock()
	if a.cfg.Registry != nil {
		s := a.cfg.Registry.Series(a.cfg.ID+".ground.ma", 100000)
		s.Append(a.cfg.Env.Now(), r.Current.Milliamps())
	}
}

// CloseWindow merges the per-shard window partials into one WindowReport,
// runs the complementary-measurement verification, and seals a block from
// the accumulated records. The WindowInterval ticker calls it; a host calls
// it once more after Stop to seal what the last partial window holds.
func (a *Aggregator) CloseWindow() {
	a.mu.Lock()
	defer a.mu.Unlock()

	instrumented := a.mWindowUs != nil || a.tracer != nil
	var closeStart time.Time
	if instrumented {
		closeStart = time.Now()
	}

	w := WindowReport{Start: a.windowStart, PerDevice: make(map[string]units.Current)}
	a.windowStart = a.cfg.Env.Now()

	w.Ground = meanCurrent(a.groundSamples)
	a.groundSamples = a.groundSamples[:0]

	// Merge step: fold each shard's partials (window accumulators,
	// departed partials, pending batch) under that shard's lock only.
	var droppedDelta uint64
	for dev := range a.winScratch {
		delete(a.winScratch, dev)
	}
	expected := make(map[string]units.Current)
	for _, sh := range a.shards {
		sh.mu.Lock()
		for _, st := range sh.active {
			if st.winCount == 0 && st.winQuarantined == 0 {
				continue // departed (or already reset) mid-window
			}
			acc := a.winScratch[st.DeviceID]
			acc.sum += st.winSum
			acc.count += st.winCount
			acc.quar += st.winQuarantined
			if st.baseline != nil {
				acc.base = st.baseline.Mean()
			}
			a.winScratch[st.DeviceID] = acc
			st.winSum = 0
			st.winCount = 0
			st.winQuarantined = 0
		}
		sh.active = sh.active[:0]
		for dev, acc := range sh.departed {
			prev := a.winScratch[dev]
			prev.sum += acc.sum
			prev.count += acc.count
			prev.quar += acc.quar
			if prev.base == 0 {
				prev.base = acc.base
			}
			a.winScratch[dev] = prev
			delete(sh.departed, dev)
		}
		a.sealScratch = sh.pending.appendOrdered(a.sealScratch)
		sh.pending.reset()
		droppedDelta += sh.pending.takeDropped()
		sh.mu.Unlock()
	}
	var quarCulprit string
	var quarTop uint64
	for dev, acc := range a.winScratch {
		if acc.quar > 0 {
			w.Quarantined += acc.quar
			if acc.quar > quarTop {
				quarTop = acc.quar
				quarCulprit = dev
			}
		}
		if acc.count == 0 {
			continue
		}
		mean := units.Current(acc.sum / int64(acc.count))
		w.PerDevice[dev] = mean
		w.Reported += mean
		if acc.base != 0 {
			expected[dev] = acc.base
		}
	}
	// Records a failed seal left behind go first: this window's merge joins
	// them in the bounded backlog (drop-oldest) and the whole is sealed.
	// With nothing carried over, the merge is sealed where it lies.
	if a.backlog.len() > 0 {
		a.backlog.pushAll(a.sealScratch)
		a.sealScratch = a.backlog.appendOrdered(a.sealScratch[:0])
	}

	reported := len(w.PerDevice) > 0 || w.Ground > 0 || w.Quarantined > 0
	if reported {
		w.Verdict = anomaly.Verdict{OK: true, Reason: unverifiedReason}
		if a.cfg.HeadMeter != nil {
			w.Verdict = anomaly.SumCheck(a.cfg.SumCheck, w.Ground, w.Reported)
		}
		if !w.Verdict.OK {
			if id, _, err := anomaly.IdentifyCulprit(expected, w.PerDevice); err == nil {
				w.Culprit = id
			}
		}
		if w.Quarantined > 0 {
			// Drifted data was held out of this window: the verdict
			// cannot be OK, and the heaviest quarantined device is the
			// prime suspect when the gap itself names nobody.
			if w.Verdict.OK {
				w.Verdict.OK = false
				w.Verdict.Reason = "timestamp drift quarantine"
			}
			if w.Culprit == "" {
				w.Culprit = quarCulprit
			}
		}
		if a.cfg.Registry != nil {
			if a.cfg.HeadMeter != nil {
				a.cfg.Registry.Series(a.cfg.ID+".window.ground_ma", 100000).Append(a.cfg.Env.Now(), w.Ground.Milliamps())
			}
			a.cfg.Registry.Series(a.cfg.ID+".window.reported_ma", 100000).Append(a.cfg.Env.Now(), w.Reported.Milliamps())
			if !w.Verdict.OK {
				a.cfg.Registry.Counter(a.cfg.ID + ".anomalies").Inc()
			}
		}
	}
	switch {
	case a.windowSink != nil:
		a.windowSink(w)
	case reported:
		a.windows = append(a.windows, w)
	}

	// The window-close stage ends at the merge+verify boundary so the seal
	// below reads as its own journey stage.
	if instrumented {
		dur := time.Since(closeStart)
		if a.mWindowUs != nil {
			a.mWindowUs.Observe(float64(dur) / float64(time.Microsecond))
		}
		a.tracer.ObserveStage(telemetry.StageWindowClose, closeStart, dur)
	}

	// Seal ("Update Blockchain" in Fig. 3) — locally, or via the replicated
	// tier's seal hook when one is installed. On failure the records stay
	// buffered — bounded by MaxPendingRecords — and the next window retries.
	if len(a.sealScratch) > 0 {
		var err error
		if a.sealFn != nil {
			err = a.sealFn(a.sealScratch)
		} else {
			var sealStart time.Time
			if instrumented {
				sealStart = time.Now()
			}
			if _, err = a.cfg.Chain.Seal(a.cfg.Signer, a.cfg.WallClock(), a.sealScratch); err == nil {
				a.blocksSealed.Add(1)
				if instrumented {
					a.tracer.ObserveStage(telemetry.StageSealAttach, sealStart, time.Since(sealStart))
				}
			}
		}
		switch {
		case err == nil:
			a.backlog.reset()
			if a.cfg.Registry != nil {
				a.cfg.Registry.Counter(a.cfg.ID + ".blocks").Inc()
			}
		case a.backlog.len() == 0:
			a.backlog.pushAll(a.sealScratch)
		}
		a.sealScratch = a.sealScratch[:0]
	}
	droppedDelta += a.backlog.takeDropped()
	if droppedDelta > 0 {
		a.recordsDropped.Add(droppedDelta)
		if a.cfg.Registry != nil {
			a.cfg.Registry.Counter(a.cfg.ID + ".records_dropped").Add(float64(droppedDelta))
		}
	}
	if a.mPending != nil {
		a.mPending.Set(float64(a.backlog.len()))
	}
}

func meanCurrent(samples []units.Current) units.Current {
	if len(samples) == 0 {
		return 0
	}
	var sum int64
	for _, s := range samples {
		sum += int64(s)
	}
	return units.Current(sum / int64(len(samples)))
}
