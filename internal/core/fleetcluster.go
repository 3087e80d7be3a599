// Fleet-scale topology wiring for the scenario engine (scenario.go). A
// clusterRig is everything "one neighborhood" owns: a backhaul mesh, a
// signing authority, its aggregators with calibrated feeder-head meters and,
// when there is more than one, the Cluster orchestrator sealing one
// consensus-agreed chain. Every scenario builds its topology here and
// differs only in choreography (what crashes, who roams where).
package core

import (
	"fmt"
	"time"

	"decentmeter/internal/aggregator"
	"decentmeter/internal/backhaul"
	"decentmeter/internal/blockchain"
	"decentmeter/internal/protocol"
	"decentmeter/internal/sensor"
	"decentmeter/internal/sim"
	"decentmeter/internal/tdma"
	"decentmeter/internal/telemetry"
	"decentmeter/internal/units"
)

// clusterRigConfig sizes one rig's aggregators, TDMA budget and head meters
// for the device population it will own.
type clusterRigConfig struct {
	// ID is the federation cluster name (scopes instruments under
	// "fed.<ID>.*"); empty keeps the single-cluster instrument names.
	ID string
	// AggPrefix names the aggregators "<AggPrefix>-0" .. "-(N-1)".
	AggPrefix string
	// Replicas <= 1 wires a standalone aggregator sealing its own chain, with
	// no orchestrator.
	Replicas int
	F        int
	// Devices is the population the TDMA budget is sized for.
	Devices int
	// MaxExpected is the head meters' calibration ceiling.
	MaxExpected units.Current
	// HeadLoad is the ground truth behind every head meter; nil gives each
	// aggregator its own StaticLoad for the scenario to move draw on.
	HeadLoad sensor.LoadChannel
	// MaxTimestampSkew arms the aggregators' skew quarantine (0 = off).
	MaxTimestampSkew  time.Duration
	Shards            int
	MaxPendingRecords int
	PipelineDepth     int
	RebalanceMaxMoves int
	Seed              uint64
	Registry          *telemetry.Registry
	Tracer            *telemetry.Tracer
}

// fleetReplica is one aggregator's scenario-side handle.
type fleetReplica struct {
	id   string
	agg  *aggregator.Aggregator
	load *sensor.StaticLoad
}

// clusterRig is one wired neighborhood: mesh, authority, aggregators and
// (nil for a standalone aggregator) orchestrator.
type clusterRig struct {
	id   string
	mesh *backhaul.Mesh
	reps []fleetReplica
	idx  map[string]int // aggregator ID -> replica index
	rs   *Cluster
	solo *blockchain.Chain // the standalone aggregator's own chain
}

// chain returns the rig's ledger: the standalone aggregator's chain, or the
// consensus-sealed one (replica 0's copy; ChainsIdentical asserts the copies
// agree).
func (rig *clusterRig) chain() *blockchain.Chain {
	if rig.rs == nil {
		return rig.solo
	}
	c, _ := rig.rs.ChainOf(rig.reps[0].id)
	return c
}

// tdmaSlots shrinks the slot pitch until one 100 ms superframe holds
// capacity devices.
func tdmaSlots(capacity int) tdma.Config {
	pitch := tickInterval / time.Duration(capacity+1)
	if pitch < 5*time.Nanosecond {
		pitch = 5 * time.Nanosecond
	}
	slots := tdma.Config{Superframe: tickInterval, SlotLen: pitch * 4 / 5, Guard: pitch / 5}
	if slots.Guard <= 0 {
		slots.Guard = time.Nanosecond
		slots.SlotLen = pitch - time.Nanosecond
	}
	return slots
}

// newFeederHead wires a feeder-head INA219 over load behind a high-current
// shunt. The shunt is sized from the datasheet calibration formula so the
// calibration register lands near 60000 whatever maxExpected is —
// sub-milliohm for a 100 A feeder, milliohms for a bench-scale one. A
// register clamped at its 16-bit range would silently scale every reading
// down, which the sum check would flag as fleet-wide over-reporting, so
// maxExpected must leave headroom over the true draw.
func newFeederHead(load sensor.LoadChannel, maxExpected units.Current, seed uint64) (*sensor.Meter, error) {
	shuntOhms := 0.04096 / (maxExpected.Amps() / 32768 * 60000)
	bus := sensor.NewBus()
	ina := sensor.NewINA219(load, sensor.INA219Config{Seed: seed, ShuntOhms: shuntOhms})
	if err := bus.Attach(sensor.AddrINA219Default, ina); err != nil {
		return nil, err
	}
	return sensor.NewMeter(bus, sensor.AddrINA219Default, maxExpected, shuntOhms)
}

// buildClusterRig wires one rig onto env. onAck observes every ReportAck an
// aggregator sends back to a device; the engine uses it to advance each
// reporter's ack watermark (it runs inline on the producer goroutine that
// delivered the report, so a per-device write is owned-by-one-producer
// safe).
func buildClusterRig(env *sim.Env, cfg clusterRigConfig, onAck func(devID string, seq uint64)) (*clusterRig, error) {
	n := max(cfg.Replicas, 1)
	wall := func() time.Time { return scenarioEpoch.Add(env.Now()) }
	mesh := backhaul.NewMesh(env, time.Millisecond)
	auth := blockchain.NewAuthority()

	// One slot per device; replicas get 2x the even share, so survivors can
	// absorb a crashed replica's fleet and a hot spot has room to overflow
	// the high-water mark without running out of slots.
	capacity := cfg.Devices
	if n > 1 {
		capacity = cfg.Devices / n * 2
	}
	slots := tdmaSlots(capacity)

	rig := &clusterRig{
		id:   cfg.ID,
		mesh: mesh,
		reps: make([]fleetReplica, n),
		idx:  make(map[string]int, n),
	}
	members := make([]ReplicaMember, 0, n)
	for r := 0; r < n; r++ {
		id := fmt.Sprintf("%s-%d", cfg.AggPrefix, r)
		rig.idx[id] = r
		load := &sensor.StaticLoad{V: supplyVoltage}
		headLoad := cfg.HeadLoad
		if headLoad == nil {
			headLoad = load
		}
		meter, err := newFeederHead(headLoad, cfg.MaxExpected, cfg.Seed^uint64(r+1))
		if err != nil {
			return nil, err
		}
		signer, err := blockchain.NewSigner(id)
		if err != nil {
			return nil, err
		}
		if err := auth.Admit(id, signer.Public()); err != nil {
			return nil, err
		}
		chain := blockchain.NewChain(auth) // bypassed once a Cluster's seal hook installs
		agg, err := aggregator.New(aggregator.Config{
			ID:               id,
			Env:              env,
			HeadMeter:        meter,
			WallClock:        wall,
			Mesh:             mesh,
			Chain:            chain,
			Signer:           signer,
			MaxTimestampSkew: cfg.MaxTimestampSkew,
			SendToDevice: func(devID string, msg protocol.Message) error {
				if ack, ok := msg.(protocol.ReportAck); ok {
					onAck(devID, ack.Seq)
				}
				return nil
			},
			Slots:             slots,
			Shards:            cfg.Shards,
			MaxPendingRecords: cfg.MaxPendingRecords,
			Registry:          cfg.Registry,
			Tracer:            cfg.Tracer,
		})
		if err != nil {
			return nil, err
		}
		rig.reps[r] = fleetReplica{id: id, agg: agg, load: load}
		if n == 1 {
			rig.solo = chain
		}
		members = append(members, ReplicaMember{ID: id, Agg: agg, Signer: signer})
	}
	if n == 1 {
		return rig, nil
	}

	ccfg := ClusterConfig{
		ID: cfg.ID, F: cfg.F, PipelineDepth: cfg.PipelineDepth,
		Registry: cfg.Registry, Tracer: cfg.Tracer,
		// Derive the consensus auth secret from the run seed and cluster ID
		// so deterministic runs re-key identically; real deployments would
		// provision it out of band.
		AuthSecret: []byte(fmt.Sprintf("decentmeter-auth-%s-%016x", cfg.ID, cfg.Seed)),
	}
	ccfg.Balance.HighWater = 0.75
	ccfg.Balance.LowWater = 0.6
	// Headroom below the shed threshold: a plan must never fill a target
	// past the point where the next round sheds it straight back.
	ccfg.Balance.TargetHeadroom = 0.7
	ccfg.Balance.MaxMovesPerRound = cfg.RebalanceMaxMoves
	rs, err := NewCluster(env, auth, wall, ccfg, members)
	if err != nil {
		return nil, err
	}
	rs.OnCrash = func(id string) { _ = mesh.SetDown(id, true) }
	rs.OnRecover = func(id string) { _ = mesh.SetDown(id, false) }
	rig.rs = rs
	return rig, nil
}

// rigTally is a rig's ingest and verification outcome.
type rigTally struct {
	accepted, dropped   uint64
	closed, ok, flagged int
}

// tally sums the rig's aggregators; with a registry it also extends the
// "fleet.window_ok" series, one point per closed window.
func (rig *clusterRig) tally(reg *telemetry.Registry) (t rigTally) {
	var verdicts *telemetry.Series
	if reg != nil {
		verdicts = reg.Series("fleet.window_ok", 4096)
	}
	for r := range rig.reps {
		agg := rig.reps[r].agg
		accepted, _, _ := agg.Stats()
		t.accepted += accepted
		t.dropped += agg.DroppedRecords()
		for _, w := range agg.Windows() {
			t.closed++
			ok := 0.0
			if w.Verdict.OK {
				t.ok++
				ok = 1
			} else {
				t.flagged++
			}
			if verdicts != nil {
				verdicts.Append(w.Start, ok)
			}
		}
	}
	return t
}

// firstReplica returns the ID of the first replica pred accepts, or "".
func (rig *clusterRig) firstReplica(pred func(*Replica) bool) string {
	for _, r := range rig.reps {
		if rep, ok := rig.rs.Replica(r.id); ok && pred(rep) {
			return r.id
		}
	}
	return ""
}

// crashed reports whether replica r is down.
func (rig *clusterRig) crashed(r int) bool {
	rep, ok := rig.rs.Replica(rig.reps[r].id)
	return ok && rep.Crashed()
}

// stop halts the orchestrator and every aggregator's loops.
func (rig *clusterRig) stop() {
	if rig.rs != nil {
		rig.rs.Stop()
	}
	for r := range rig.reps {
		rig.reps[r].agg.Stop()
	}
}
