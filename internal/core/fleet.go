// Fleet scenarios: the scenario engine (scenario.go) assembled three ways
// behind RunFleet.
//
// The plain fleet (this file) exercises one aggregator's sharded ingest
// pipeline at fleet scale (tens of thousands of devices) with ack loss,
// report retransmission, out-of-order buffered tails, roaming temporaries
// and membership churn — the conditions the Eco-style in-situ metering line
// of work says dominate real deployments. The replicated fleet
// (fleet_replicated.go) and the physics fleet (physics.go) are the same
// engine over a different topology and reporter behaviour.
package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"decentmeter/internal/protocol"
	"decentmeter/internal/telemetry"
	"decentmeter/internal/units"
)

// FleetConfig parameterizes a fleet run.
type FleetConfig struct {
	// Devices is the fleet size (default 20000).
	Devices int
	// Shards is the aggregator's ingest shard count (default 8).
	Shards int
	// Producers is the number of concurrent report feeders (default
	// max(Shards, 4); producers get shard affinity when Shards >=
	// Producers, and split each shard's devices otherwise).
	Producers int
	// Seconds is the simulated duration: each second is one verification
	// window of ten report rounds per device (default 3).
	Seconds int
	// LossRate is the probability that a report's uplink or its ack is
	// lost, forcing retransmission of unacknowledged measurements
	// (default 0.02 each way).
	LossRate float64
	// RoamFraction of the fleet registers as roaming temporaries whose
	// fresh data is forwarded home over the backhaul (default 0.02).
	RoamFraction float64
	// ChurnPerWindow devices leave (release/remove) and re-register every
	// window, exercising mid-window departure folding and slot recycling
	// (default Devices/200).
	ChurnPerWindow int
	// Seed drives the run deterministically (default 1).
	Seed uint64
	// PerDeviceMilliamps is each device's constant draw (default 5).
	PerDeviceMilliamps float64
	// MaxPendingRecords caps the aggregator's seal backlog (0 = default).
	MaxPendingRecords int

	// Replicas > 1 runs the replicated-aggregator tier: N aggregators as
	// a consensus cluster sealing one common chain, with a mid-window
	// leader crash + recovery and a roaming hot-spot wave + rebalancing
	// choreographed across the run (default 1 = the single-aggregator
	// ingest scenario above; the replicated scenario defaults to 2000
	// devices and at least 8 simulated seconds).
	Replicas int
	// F is the consensus fault tolerance (default (Replicas-1)/3).
	F int
	// WaveFraction of the fleet roams onto one replica in the hot-spot
	// wave (default 0.15).
	WaveFraction float64
	// RebalanceMaxMoves caps planner moves per round in the replicated
	// scenario (default 64 — a hot spot must shed below high water in a
	// round or two).
	RebalanceMaxMoves int
	// PipelineDepth is the replicated tier's consensus-seal pipeline
	// window (0 = the Cluster default of 4).
	PipelineDepth int
	// Chaos schedules fault injection over the replicated run: broker
	// outages, ack-loss bursts, mesh partitions and extra replica crashes
	// at tick granularity (nil = only the built-in choreography). The
	// ledger audit still runs afterwards, so a chaos run asserts the
	// zero-loss invariant under the injected faults. The plan targets
	// replicas: RunFleet rejects it unless Replicas > 1.
	Chaos *FaultPlan

	// Physics enables the device-physics tier: every device carries a
	// battery pack advanced lazily on event boundaries, samples through its
	// own quantized INA219, stamps measurements from a drifting DS3231,
	// sheds and browns out on low SoC, and re-converges through periodic
	// timesync. See PhysicsConfig. The tier runs against a single
	// aggregator: RunFleet rejects Physics.Enabled with Replicas > 1.
	Physics PhysicsConfig

	// Registry receives live telemetry from every tier the run touches
	// (aggregator ingest, consensus, orchestrator) plus the driver's own
	// per-window "fleet.window_ok" / "fleet.window_loss" series; nil
	// disables instrumentation.
	Registry *telemetry.Registry
	// Tracer samples report journeys through the run; nil disables it.
	Tracer *telemetry.Tracer
}

// FleetResult is the outcome of a fleet run.
type FleetResult struct {
	Devices, Shards, Producers int

	// ReportsDelivered counts Report messages handed to the aggregator;
	// MeasurementsAccepted counts fresh measurements ingested (the rest
	// were retransmitted duplicates the high-water mark filtered).
	ReportsDelivered     uint64
	MeasurementsAccepted uint64
	AcksReceived         uint64
	UplinksLost          uint64
	AcksLost             uint64

	WindowsClosed  int
	WindowsOK      int
	WindowsFlagged int
	BlocksSealed   uint64
	RecordsSealed  int
	RecordsDropped uint64
	Roamers        int
	ChurnEvents    int

	// IngestElapsed is wall time spent inside the concurrent reporting
	// phases only; IngestPerSec is ReportsDelivered over that time.
	IngestElapsed time.Duration
	IngestPerSec  float64

	// Replicated-tier outcomes (Replicas > 1).
	Replicas            int
	ViewChanges         uint64
	Crashes             int
	Recoveries          int
	Corruptions         int
	Restores            int
	DevicesRehomed      int
	WaveRoamers         int
	RebalanceMigrations int
	BatchesDecided      uint64
	ChainsIdentical     bool
	ImportErrors        int
	// RecordsLost counts per-device sequence gaps on the common ledger;
	// RecordsDuplicated counts (device, seq) pairs sealed more than once.
	// Both must be zero for a correct failover.
	RecordsLost       int
	RecordsDuplicated int
	// HotspotLoadAfter is the hot-spot replica's final TDMA occupancy
	// fraction (must end below the planner's high-water mark).
	HotspotLoadAfter float64

	// Physics-tier outcomes (Physics.Enabled). Brownouts/Recoveries/
	// ShedTransitions/Resyncs total the fleet's physics state machine;
	// Quarantined counts live measurements the aggregator's skew gate held
	// back; ShedSkippedTicks and BrownedOutTicks account the freshness
	// cost of shedding; BufferedDelivered counts store-and-forward
	// measurements (retransmitted tails and churn flushes); SolarSwing is
	// the solar cohort's median-SoC excursion over the run; MaxAbsSkew the
	// worst RTC skew observed at a window boundary.
	PhysicsOn          bool
	Brownouts          uint64
	BrownoutRecoveries uint64
	ShedTransitions    uint64
	Resyncs            uint64
	Quarantined        uint64
	ShedSkippedTicks   uint64
	BrownedOutTicks    uint64
	BufferedDelivered  uint64
	SolarSwing         float64
	MaxAbsSkew         time.Duration

	// Chaos outcomes (Chaos != nil). OutageDrops counts reports held back
	// while an injected broker outage was active (they retransmit with
	// the tail); AckBurstDrops counts acks suppressed by ack-loss bursts;
	// Reconnects counts device redials after outages end; FaultLog is the
	// human-readable injection record.
	FaultsInjected int
	OutageDrops    uint64
	AckBurstDrops  uint64
	Reconnects     uint64
	FaultLog       []string
}

func (c *FleetConfig) defaults() {
	if c.Physics.Enabled {
		// The physics tier trades fleet scale for per-device state (pack,
		// RTC, sensor chain each) and needs enough simulated time for the
		// shed/brown-out/recover and drift/resync cycles to complete.
		if c.Devices <= 0 {
			c.Devices = 300
		}
		if c.Seconds < 12 {
			c.Seconds = 12
		}
		if c.ChurnPerWindow <= 0 {
			c.ChurnPerWindow = c.Devices / 100
			if c.ChurnPerWindow < 1 {
				c.ChurnPerWindow = 1
			}
		}
	}
	if c.Replicas > 1 {
		// The replicated scenario measures failover correctness, not raw
		// ingest contention: a smaller default fleet keeps the ledger
		// (every record, on every replica) in check.
		if c.Devices <= 0 {
			c.Devices = 2000
		}
		if c.Seconds < 8 {
			c.Seconds = 8
		}
		if c.F <= 0 {
			c.F = (c.Replicas - 1) / 3
		}
		if c.WaveFraction <= 0 {
			c.WaveFraction = 0.15
		}
		if c.RebalanceMaxMoves <= 0 {
			c.RebalanceMaxMoves = 64
		}
	}
	if c.Devices <= 0 {
		c.Devices = 20000
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Producers <= 0 {
		c.Producers = c.Shards
		if c.Producers < 4 {
			c.Producers = 4
		}
	}
	if c.Seconds <= 0 {
		c.Seconds = 3
	}
	if c.LossRate < 0 {
		c.LossRate = 0
	} else if c.LossRate == 0 {
		c.LossRate = 0.02
	}
	if c.RoamFraction < 0 {
		c.RoamFraction = 0
	} else if c.RoamFraction == 0 {
		c.RoamFraction = 0.02
	}
	if c.ChurnPerWindow <= 0 {
		c.ChurnPerWindow = c.Devices / 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.PerDeviceMilliamps <= 0 {
		c.PerDeviceMilliamps = 5
	}
}

// FleetAssign distributes device indices over producers with shard
// affinity: when shards >= producers each producer owns whole shards; when
// shards < producers each shard's devices are split across a contiguous
// producer group (so an 8-producer run against a single shard measures
// honest lock contention, not an idle fleet).
func FleetAssign(deviceShard []int, shards, producers int) [][]int {
	out := make([][]int, producers)
	if shards >= producers {
		for dev, sh := range deviceShard {
			p := sh * producers / shards
			out[p] = append(out[p], dev)
		}
		return out
	}
	group := producers / shards
	if group < 1 {
		group = 1
	}
	perShardCount := make([]int, shards)
	for dev, sh := range deviceShard {
		p := sh*group + perShardCount[sh]%group
		perShardCount[sh]++
		out[p] = append(out[p], dev)
	}
	return out
}

// RunFleet assembles and runs the fleet scenario cfg selects: the plain
// single-aggregator ingest run, the physics tier (cfg.Physics.Enabled), or
// with cfg.Replicas > 1 the replicated-aggregator tier — consensus-sealed
// common chain, mid-window leader crash and recovery, roaming hot-spot wave
// and dynamic rebalancing, plus cfg.Chaos. Combinations no scenario
// implements are an error, never silently dropped.
func RunFleet(cfg FleetConfig) (FleetResult, error) {
	switch {
	case cfg.Physics.Enabled && cfg.Replicas > 1:
		return FleetResult{}, errors.New("fleet: the physics tier runs against a single aggregator; Physics.Enabled with Replicas > 1 is not implemented")
	case cfg.Chaos != nil && cfg.Replicas <= 1:
		return FleetResult{}, errors.New("fleet: a fault plan targets the replicated tier; Chaos needs Replicas > 1")
	}
	cfg.defaults()
	switch {
	case cfg.Replicas > 1:
		return replicatedFleet(cfg)
	case cfg.Physics.Enabled:
		return physicsFleet(cfg)
	}
	return plainFleet(cfg)
}

// scenario starts an engine run with cfg's traffic shape.
func (c *FleetConfig) scenario() *scenario {
	s := newScenario(c.Seed)
	s.seconds, s.producers, s.lossRate = c.Seconds, c.Producers, c.LossRate
	s.perDevice = units.MilliampsToCurrent(c.PerDeviceMilliamps)
	s.registry, s.tracer = c.Registry, c.Tracer
	return s
}

// addRig wires the fleet's one rig: rc supplies what the flavours differ in,
// cfg the rest.
func (c *FleetConfig) addRig(s *scenario, rc clusterRigConfig) (*clusterRig, error) {
	rc.AggPrefix = "fleet-agg"
	rc.Devices, rc.Shards, rc.MaxPendingRecords = c.Devices, c.Shards, c.MaxPendingRecords
	rc.Seed, rc.Registry, rc.Tracer = c.Seed, c.Registry, c.Tracer
	rig, err := buildClusterRig(s.env, rc, s.onAck)
	if err != nil {
		return nil, err
	}
	s.rigs = []*clusterRig{rig}
	return rig, nil
}

// registerStandalone populates a single-aggregator fleet: cfg.Devices
// reporters named "<prefix>-dev-NNNNN" registered through register, the
// roaming verifications settled, admission checked, and producers given
// shard affinity.
func (c *FleetConfig) registerStandalone(s *scenario, prefix string, register func(*reporter) error) error {
	agg := s.rigs[0].reps[0].agg
	deviceShard := make([]int, c.Devices)
	for i := range deviceShard {
		r := s.addReporter(fmt.Sprintf("%s-dev-%05d", prefix, i), place{})
		deviceShard[i] = agg.ShardIndex(r.id)
		if err := register(r); err != nil {
			return err
		}
	}
	s.env.RunUntil(s.env.Now() + 50*time.Millisecond)
	if got := len(agg.Members()); got != c.Devices {
		return fmt.Errorf("fleet: %d of %d devices admitted", got, c.Devices)
	}
	s.assign = FleetAssign(deviceShard, c.Shards, c.Producers)
	return nil
}

// fleetResult starts a FleetResult from the engine's tallies and the rig's
// ledger. AcksReceived is left to the single-aggregator flavours.
func (s *scenario) fleetResult(cfg FleetConfig) FleetResult {
	t := s.rigs[0].tally(s.registry)
	chain := s.rigs[0].chain()
	return FleetResult{
		Devices: cfg.Devices, Shards: cfg.Shards, Producers: cfg.Producers,
		ReportsDelivered: s.delivered, UplinksLost: s.uplinksLost, AcksLost: s.acksLost,
		MeasurementsAccepted: t.accepted, RecordsDropped: t.dropped,
		WindowsClosed: t.closed, WindowsOK: t.ok, WindowsFlagged: t.flagged,
		BlocksSealed: uint64(chain.Length()), RecordsSealed: chain.TotalRecords(),
		IngestElapsed: s.ingestElapsed, IngestPerSec: s.ingestPerSec(),
	}
}

// acksReceived totals the ReportAcks the fleet's devices saw.
func (s *scenario) acksReceived() (n uint64) {
	for _, r := range s.reporters {
		n += r.acks
	}
	return n
}

// plainFleet is the single-aggregator ingest scenario: a constant-draw
// fleet, RoamFraction of it roaming temporaries whose fresh data is
// forwarded home over the backhaul, and membership churn across every
// window boundary.
func plainFleet(cfg FleetConfig) (FleetResult, error) {
	s := cfg.scenario()
	s.mixTailOrder = true
	// 4x headroom over the fleet's true aggregate draw.
	rig, err := cfg.addRig(s, clusterRigConfig{MaxExpected: s.perDevice * units.Current(cfg.Devices) * 4})
	if err != nil {
		return FleetResult{}, err
	}
	agg, load := rig.reps[0].agg, rig.reps[0].load

	// The home peer for roaming temporaries: vouches for any device and
	// swallows the forwarded batches.
	if err := rig.mesh.Join("fleet-home", func(from string, msg protocol.Message) {
		if m, ok := msg.(protocol.VerifyRequest); ok {
			_ = rig.mesh.Send("fleet-home", from, protocol.VerifyResponse{DeviceID: m.DeviceID, OK: true})
		}
	}); err != nil {
		return FleetResult{}, err
	}
	// Every roamEvery-th device is a roamer, registered through the backhaul
	// verification round-trip.
	roamEvery, roamers := 0, 0
	if cfg.RoamFraction > 0 {
		roamEvery = int(1 / cfg.RoamFraction)
	}
	roams := func(r *reporter) bool { return roamEvery > 0 && r.idx%roamEvery == roamEvery-1 }
	register := func(r *reporter) {
		reg := protocol.Register{DeviceID: r.id}
		if roams(r) {
			reg.MasterAddr = "fleet-home"
		}
		agg.HandleDeviceMessage(r.id, reg)
	}
	if err := cfg.registerStandalone(s, "fleet", func(r *reporter) error {
		if roams(r) {
			roamers++
		}
		load.I += s.perDevice
		register(r)
		return nil
	}); err != nil {
		return FleetResult{}, err
	}

	s.afterBoundary = func(int) {
		s.churn(cfg.ChurnPerWindow, func(r *reporter) bool {
			if roams(r) {
				agg.ReleaseTemporary(r.id)
			} else {
				agg.RemoveDevice(r.id)
			}
			register(r)
			r.unacked = r.unacked[:0]
			return true
		})
	}
	if err := s.run(); err != nil {
		return FleetResult{}, err
	}
	rig.stop()

	res := s.fleetResult(cfg)
	res.AcksReceived = s.acksReceived()
	res.Roamers, res.ChurnEvents = roamers, s.churnEvents
	return res, nil
}

// WriteFleet prints a fleet result.
func WriteFleet(w io.Writer, r FleetResult) {
	if r.Replicas > 1 {
		fmt.Fprintf(w, "Replicated fleet: %d devices over %d aggregator replicas, %d shards each\n",
			r.Devices, r.Replicas, r.Shards)
	} else {
		fmt.Fprintf(w, "Fleet: %d devices (%d roaming), %d shards, %d producers\n",
			r.Devices, r.Roamers, r.Shards, r.Producers)
	}
	fmt.Fprintf(w, "  reports delivered:      %d (%d uplinks lost, %d acks lost, %d churn events)\n",
		r.ReportsDelivered, r.UplinksLost, r.AcksLost, r.ChurnEvents)
	fmt.Fprintf(w, "  measurements accepted:  %d (dedup filtered the retransmitted rest)\n", r.MeasurementsAccepted)
	fmt.Fprintf(w, "  ingest throughput:      %.0f reports/s over %v of concurrent ingest\n",
		r.IngestPerSec, r.IngestElapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  windows:                %d closed, %d OK, %d flagged\n",
		r.WindowsClosed, r.WindowsOK, r.WindowsFlagged)
	fmt.Fprintf(w, "  chain:                  %d blocks, %d records, %d dropped\n",
		r.BlocksSealed, r.RecordsSealed, r.RecordsDropped)
	if r.PhysicsOn {
		fmt.Fprintf(w, "  physics lifecycle:      %d shed / %d brownout / %d recovery transitions\n",
			r.ShedTransitions, r.Brownouts, r.BrownoutRecoveries)
		fmt.Fprintf(w, "  freshness cost:         %d samples coarsened away, %d browned-out ticks, %d buffered deliveries\n",
			r.ShedSkippedTicks, r.BrownedOutTicks, r.BufferedDelivered)
		fmt.Fprintf(w, "  clocks:                 %d quarantined, %d resyncs, worst skew %v\n",
			r.Quarantined, r.Resyncs, r.MaxAbsSkew.Round(time.Microsecond))
		fmt.Fprintf(w, "  solar swing:            %.2f median SoC excursion over the diurnal cycle\n", r.SolarSwing)
		fmt.Fprintf(w, "  ledger audit:           %d acked records lost, %d duplicated\n",
			r.RecordsLost, r.RecordsDuplicated)
	}
	if r.Replicas > 1 {
		fmt.Fprintf(w, "  consensus:              %d batches decided, %d view change(s), chains identical: %v\n",
			r.BatchesDecided, r.ViewChanges, r.ChainsIdentical)
		fmt.Fprintf(w, "  failover:               %d crash / %d recovery, %d devices rehomed, %d lost, %d duplicated\n",
			r.Crashes, r.Recoveries, r.DevicesRehomed, r.RecordsLost, r.RecordsDuplicated)
		if r.Corruptions > 0 {
			fmt.Fprintf(w, "  byzantine:              %d corruption(s) / %d restore(s), adversary tolerated: %v\n",
				r.Corruptions, r.Restores, r.RecordsLost == 0 && r.RecordsDuplicated == 0 && r.ChainsIdentical)
		}
		fmt.Fprintf(w, "  rebalancing:            %d wave roamers, %d migrations, hot spot at %.0f%% occupancy\n",
			r.WaveRoamers, r.RebalanceMigrations, 100*r.HotspotLoadAfter)
		if r.FaultsInjected > 0 {
			fmt.Fprintf(w, "  chaos:                  %d fault(s) injected, %d outage drops, %d ack-burst drops, %d reconnects\n",
				r.FaultsInjected, r.OutageDrops, r.AckBurstDrops, r.Reconnects)
			for _, line := range r.FaultLog {
				fmt.Fprintf(w, "    %s\n", line)
			}
		}
	}
}
