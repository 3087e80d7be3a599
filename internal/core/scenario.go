// Scenario engine: the one tick loop every fleet scenario runs on. A
// scenario is assembly — a topology of clusterRigs (fleetcluster.go),
// reporters with a placement in it and a sample hook for their behaviour, a
// fault plan (chaos.go) plus the scenario's own choreography in the
// beforeTick / beforeBoundary / afterBoundary hooks, and the invariant
// checks its assembling function makes on the outcome. The engine owns what
// is left: the seconds x 10 ticks producer loop, batch composition, uplink
// and ack loss, the chaos gates, tracer sampling, ack pruning, the clock and
// the tallies. Producers synthesize the exact protocol.Report traffic the
// link layer would deliver (20k device state machines would measure the
// simulator, not the aggregators), concurrently; the simulation clock
// advances between ticks to drive window closes and sealing. DESIGN.md
// "Scenario engine" has the timing contract run implements.
package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"decentmeter/internal/aggregator"
	"decentmeter/internal/blockchain"
	"decentmeter/internal/protocol"
	"decentmeter/internal/sim"
	"decentmeter/internal/telemetry"
	"decentmeter/internal/units"
)

const (
	ticksPerSecond = 10
	tickInterval   = time.Second / ticksPerSecond
	boundaryLead   = time.Millisecond
	supplyVoltage  = 5 * units.Volt
)

// scenarioEpoch is the wall-clock reading of simulation time zero.
var scenarioEpoch = time.Date(2020, 4, 29, 0, 0, 0, 0, time.UTC)

// place addresses one aggregator of a scenario's topology.
type place struct{ cluster, rep int }

// reporter is one synthetic device. Exactly one producer owns it; the ack
// path runs inline on the goroutine that delivered the report (or on the
// driver thread during a control-plane flush), which is the owner either
// way, so none of its fields need locking.
type reporter struct {
	id  string
	idx int

	seq     uint64
	lastAck uint64 // ack watermark, raised by the serving aggregator's acks
	acks    uint64
	unacked []protocol.Measurement // the firmware's store-and-forward tail

	home, at place
	// guest marks a crash-failover guest: its reporting moved to a live
	// replica while its outlet stayed on the dead network's feeder.
	guest bool

	phys *devicePhysics // nil for ideal devices
}

// away reports whether the device is visiting another cluster.
func (r *reporter) away() bool { return r.at.cluster != r.home.cluster }

// appendTail appends the unacked tail to batch marked buffered: it describes
// past intervals and must stay out of the live window sums and the skew gate
// wherever it lands.
func (r *reporter) appendTail(batch []protocol.Measurement) []protocol.Measurement {
	for _, u := range r.unacked {
		u.Buffered = true
		batch = append(batch, u)
	}
	return batch
}

// pruneAcked drops everything at or below the ack watermark from the tail.
func (r *reporter) pruneAcked() {
	keep := r.unacked[:0]
	for _, u := range r.unacked {
		if u.Seq > r.lastAck {
			keep = append(keep, u)
		}
	}
	r.unacked = keep
}

// tally is the producers' traffic count.
type tally struct {
	delivered, uplinksLost, acksLost uint64
	outageDrops, ackBurstDrops       uint64
	bufferedTail                     uint64 // store-and-forward measurements delivered
}

func (t *tally) add(o tally) {
	t.delivered += o.delivered
	t.uplinksLost += o.uplinksLost
	t.acksLost += o.acksLost
	t.outageDrops += o.outageDrops
	t.ackBurstDrops += o.ackBurstDrops
	t.bufferedTail += o.bufferedTail
}

// scenario is one assembled run. The assembling function fills the exported-
// config-derived fields and the hooks, adds rigs and reporters, calls run and
// reads the tallies.
type scenario struct {
	env       *sim.Env
	rigs      []*clusterRig
	reporters []*reporter
	byID      map[string]*reporter
	// assign lists each producer's reporters; nil spreads them round-robin.
	assign [][]int

	seconds, producers int
	lossRate           float64
	seed               uint64
	perDevice          units.Current // ideal devices' constant draw
	registry           *telemetry.Registry
	tracer             *telemetry.Tracer
	chaos              *chaosDriver // nil = no fault plan
	// mixTailOrder sends the tail ahead of the live measurement half the
	// time, so batches arrive with older seqs last or first and the ack
	// must advance by the batch maximum either way.
	mixTailOrder bool

	// sample takes r's measurement for the tick at sim time now (the engine
	// numbers it); false skips the tick without advancing the sequence.
	sample func(r *reporter, now time.Duration) (protocol.Measurement, bool)
	// beforeTick runs the scenario's scripted choreography ahead of the
	// fault plan's, so the plan's quorum guards see a scripted crash.
	beforeTick     func(sec, tick int) error
	beforeBoundary func(sec int) error
	afterBoundary  func(sec int)

	tally
	ingestElapsed            time.Duration
	lastLost                 uint64
	churnCursor, churnEvents int
}

func newScenario(seed uint64) *scenario {
	s := &scenario{env: sim.NewEnv(seed), seed: seed, byID: make(map[string]*reporter)}
	s.sample = s.constantDraw
	return s
}

// constantDraw is the ideal device: perDevice at the supply voltage, stamped
// with true time.
func (s *scenario) constantDraw(_ *reporter, now time.Duration) (protocol.Measurement, bool) {
	return protocol.Measurement{
		Timestamp: scenarioEpoch.Add(now),
		Interval:  tickInterval,
		Current:   s.perDevice,
		Voltage:   supplyVoltage,
	}, true
}

// addReporter creates a device homed (and currently served) at home.
func (s *scenario) addReporter(id string, home place) *reporter {
	r := &reporter{id: id, idx: len(s.reporters), home: home, at: home}
	s.reporters = append(s.reporters, r)
	s.byID[id] = r
	return r
}

// registerMasters creates count ideal devices named by idFormat, each a
// master member of the aggregator home(i) places it at (admitted inline — no
// backhaul round trip for home registration) and drawing from its feeder.
func (s *scenario) registerMasters(idFormat string, count int, home func(i int) place) error {
	for i := 0; i < count; i++ {
		r := s.addReporter(fmt.Sprintf(idFormat, i), home(i))
		s.agg(r.home).HandleDeviceMessage(r.id, protocol.Register{DeviceID: r.id})
		s.rigs[r.home.cluster].reps[r.home.rep].load.I += s.perDevice
	}
	admitted := 0
	for _, rig := range s.rigs {
		for r := range rig.reps {
			admitted += len(rig.reps[r].agg.Members())
		}
	}
	if admitted != count {
		return fmt.Errorf("core: %d of %d devices admitted", admitted, count)
	}
	return nil
}

// churn is a standalone fleet's window boundary: up to perWindow devices,
// taken round-robin, leave and re-register through rejoin (false = this one
// cannot churn now, try the next), then the window's loss is recorded and
// the churn round-trips settle. Departures fold their partial window
// instead of firing false anomalies.
func (s *scenario) churn(perWindow int, rejoin func(*reporter) bool) {
	for scan, n := 0, 0; n < perWindow && scan < len(s.reporters); scan++ {
		r := s.reporters[s.churnCursor%len(s.reporters)]
		s.churnCursor++
		if rejoin(r) {
			n++
			s.churnEvents++
		}
	}
	s.appendWindowLoss()
	s.env.RunUntil(s.env.Now() + 10*time.Millisecond)
}

func (s *scenario) agg(p place) *aggregator.Aggregator { return s.rigs[p.cluster].reps[p.rep].agg }

// onAck is every rig's ack observer.
func (s *scenario) onAck(devID string, seq uint64) {
	if r, ok := s.byID[devID]; ok {
		r.acks++
		if seq > r.lastAck {
			r.lastAck = seq
		}
	}
}

// send delivers batch as r's report to the aggregator serving it.
func (s *scenario) send(r *reporter, batch []protocol.Measurement) {
	s.agg(r.at).HandleDeviceMessage(r.id, protocol.Report{DeviceID: r.id, Measurements: batch})
}

// flush drains r's unacked tail as buffered store-and-forward data over a
// reliable control-plane exchange — the graceful-detach half of a churn
// event. Buffered data bypasses the skew gate, so even a drifted device's
// held-back measurements land and are acked. Driver thread only.
func (s *scenario) flush(r *reporter) {
	if len(r.unacked) == 0 {
		return
	}
	s.bufferedTail += uint64(len(r.unacked))
	s.send(r, r.appendTail(nil))
	r.pruneAcked()
}

// producer is one concurrent report feeder: the reporters it owns, its
// private random stream, and one batch buffer that serves every report (the
// aggregator copies what it keeps).
type producer struct {
	owned []int
	rng   *sim.RNG
	batch []protocol.Measurement
}

// produce runs p's reporters through one tick.
func (s *scenario) produce(p *producer, now time.Duration) (t tally) {
	rng := p.rng
	uplinkDown := s.chaos != nil && s.chaos.uplinkDown.Load()
	ackDown := s.chaos != nil && s.chaos.ackDown.Load()
	for _, ri := range p.owned {
		r := s.reporters[ri]
		m, ok := s.sample(r, now)
		if !ok {
			continue
		}
		r.seq++
		m.Seq = r.seq
		liveFirst := true
		if s.mixTailOrder && len(r.unacked) > 0 {
			liveFirst = rng.Bool(0.5)
		}
		b := p.batch[:0]
		if liveFirst {
			b = append(b, m)
		}
		b = r.appendTail(b)
		if !liveFirst {
			b = append(b, m)
		}
		p.batch = b
		r.unacked = append(r.unacked, m)
		if uplinkDown {
			// Broker down: the measurement stays in the local buffer and
			// retransmits with the tail.
			t.outageDrops++
			continue
		}
		if rng.Bool(s.lossRate) {
			t.uplinksLost++ // everything stays unacked
			if r.phys != nil {
				r.phys.plane.ConsumeRetry() // a failed burst still costs
			}
			continue
		}
		// No broker in the engine, so the producer is the journey's
		// sampling point.
		if s.tracer.Sample() {
			s.tracer.Begin(r.id)
		}
		if r.phys != nil {
			r.phys.plane.ConsumeTx()
		}
		s.send(r, b)
		t.delivered++
		t.bufferedTail += uint64(len(b) - 1)
		if ackDown {
			// Ack suppressed: the tail keeps retransmitting until acks
			// resume; dedup absorbs every copy.
			t.ackBurstDrops++
			continue
		}
		if rng.Bool(s.lossRate) {
			t.acksLost++ // the tail retransmits; dedup absorbs it
			continue
		}
		r.pruneAcked()
	}
	return t
}

// run drives the producer loop for s.seconds simulated seconds under the
// timing contract (DESIGN.md "Scenario engine"), ending every fault the plan
// left open before the last boundary so the run settles — and the ledger
// audits — fully healed.
func (s *scenario) run() error {
	if s.assign == nil {
		s.assign = make([][]int, s.producers)
		for i := range s.reporters {
			s.assign[i%s.producers] = append(s.assign[i%s.producers], i)
		}
	}
	producers := make([]producer, s.producers)
	for p := range producers {
		producers[p] = producer{owned: s.assign[p], rng: sim.NewRNG(s.seed ^ uint64(p+1)*0x9e3779b97f4a7c15)}
	}
	tallies := make([]tally, s.producers)
	start := s.env.Now()
	for sec := 0; sec < s.seconds; sec++ {
		for tick := 0; tick < ticksPerSecond; tick++ {
			if s.beforeTick != nil {
				if err := s.beforeTick(sec, tick); err != nil {
					return err
				}
			}
			if s.chaos != nil {
				if err := s.chaos.step(sec, tick); err != nil {
					return err
				}
			}
			now := s.env.Now()
			wallStart := time.Now()
			var wg sync.WaitGroup
			for p := range producers {
				if len(producers[p].owned) == 0 {
					continue
				}
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					tallies[p] = s.produce(&producers[p], now)
				}(p)
			}
			wg.Wait()
			s.ingestElapsed += time.Since(wallStart)
			for p := range tallies {
				s.tally.add(tallies[p])
				tallies[p] = tally{}
			}
			deadline := start + time.Duration(sec)*time.Second + time.Duration(tick+1)*tickInterval
			if tick == ticksPerSecond-1 {
				deadline -= boundaryLead
			}
			s.env.RunUntil(deadline)
		}
		next := sec + 1
		healed := false
		if next < s.seconds {
			if s.beforeBoundary != nil {
				if err := s.beforeBoundary(next); err != nil {
					return err
				}
			}
		} else if s.chaos != nil {
			var err error
			if healed, err = s.chaos.finishAll(); err != nil {
				return err
			}
		}
		s.env.RunUntil(start + time.Duration(next)*time.Second)
		if healed {
			// Give late recoveries time to catch up before the final
			// window closes.
			s.env.RunUntil(s.env.Now() + tickInterval)
		}
		if s.afterBoundary != nil {
			s.afterBoundary(next)
		}
	}
	return nil
}

// appendWindowLoss extends the "fleet.window_loss" series with the uplinks
// and acks lost since the previous call.
func (s *scenario) appendWindowLoss() {
	if s.registry == nil {
		return
	}
	lost := s.uplinksLost + s.acksLost
	s.registry.Series("fleet.window_loss", 4096).Append(s.env.Now(), float64(lost-s.lastLost))
	s.lastLost = lost
}

// ingestPerSec is reports delivered per wall second of concurrent ingest.
func (s *scenario) ingestPerSec() float64 {
	if s.ingestElapsed <= 0 {
		return 0
	}
	return float64(s.delivered) / s.ingestElapsed.Seconds()
}

// steerWithin is cluster ci's Steer hook. A steer for a device currently
// visiting another cluster is a stale-master rescue (its frozen home
// membership moved); the device itself — draw, reporting — stays where it
// roams.
func (s *scenario) steerWithin(ci int) func(devID, aggID string) {
	rig := s.rigs[ci]
	return func(devID, aggID string) {
		r, okR := s.byID[devID]
		to, okT := rig.idx[aggID]
		if !okR || !okT || r.at.cluster != ci {
			return
		}
		switch {
		case rig.crashed(r.at.rep):
			// Crash failover: the device keeps its outlet on the dead
			// network's feeder; only its reporting moves.
			r.guest = true
		case r.guest:
			// Recovery reclaim: back home, still on its own feeder.
			r.guest = false
		default:
			// Live migration: the (roaming) device moves draw and all.
			rig.reps[r.at.rep].load.I -= s.perDevice
			rig.reps[to].load.I += s.perDevice
		}
		r.at.rep = to
	}
}

// audit checks every acknowledged measurement against the union of the
// topology's ledgers.
func (s *scenario) audit() (lost, dup int) {
	chains := make([]*blockchain.Chain, len(s.rigs))
	for i, rig := range s.rigs {
		chains[i] = rig.chain()
	}
	acked := make(map[string]uint64, len(s.reporters))
	for _, r := range s.reporters {
		acked[r.id] = r.lastAck
	}
	return auditChains(chains, acked)
}

// auditChains merges the chains and audits per-device sequence contiguity
// (gaps = lost) and uniqueness (repeats = duplicated), up to each device's
// acknowledged watermark or its highest sealed seq, whichever is larger —
// an acked-but-unsealed tail counts as loss, so a device whose records
// stopped being sealed entirely cannot hide it. A device handed A -> B -> A
// must land exactly once per seq across the union of chains.
func auditChains(chains []*blockchain.Chain, acked map[string]uint64) (lost, dup int) {
	seen := make(map[string][]uint64, len(acked))
	for _, c := range chains {
		for i := 0; i < c.Length(); i++ {
			b, err := c.Block(i)
			if err != nil {
				continue
			}
			for _, r := range b.Records {
				seen[r.DeviceID] = append(seen[r.DeviceID], r.Seq)
			}
		}
	}
	for dev, floor := range acked {
		if len(seen[dev]) == 0 {
			lost += int(floor)
		}
	}
	for dev, seqs := range seen {
		slices.Sort(seqs)
		next := uint64(1)
		for i, s := range seqs {
			if i > 0 && s == seqs[i-1] {
				dup++
				continue
			}
			if s > next {
				lost += int(s - next)
			}
			next = s + 1
		}
		if floor := acked[dev]; floor >= next {
			lost += int(floor - next + 1)
		}
	}
	return lost, dup
}
