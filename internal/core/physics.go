// Physics-enabled fleet tier: every synthetic device carries a real
// device.Physics plane — a lazily-integrated battery pack, an INA219 it
// actually samples through (quantized, offset, noisy), and a DS3231 whose
// realized drift stamps its measurements — the scenario engine's reporters
// with a devicePhysics attached and a sample hook that reads through it. The
// scenario choreographs three checks in one run, as cohorts of the same
// fleet:
//
//   - diurnal solar swing: a cohort harvesting from a compressed "day"
//     (sinusoidal harvest profile) whose SoC must visibly swing without
//     ever browning out;
//   - low-battery shedding: a cohort seeded near the shed threshold that
//     stretches Tmeasure, deepens its TDMA duty cycle, browns out, and
//     recovers on trickle harvest — with the skipped samples accounted;
//   - drift-under-churn: a cohort with a hopeless RTC whose live reports
//     the aggregator quarantines (sum-check anomalies, never corruption)
//     until the periodic timesync exchange re-disciplines the clock and
//     the held-back tail drains as buffered store-and-forward data.
//
// The run ends with the same ledger audit the chaos harness uses: physics
// on still loses zero acknowledged records and seals none twice.
package core

import (
	"fmt"
	"sort"
	"time"

	"decentmeter/internal/device"
	"decentmeter/internal/energy"
	"decentmeter/internal/protocol"
	"decentmeter/internal/sensor"
	"decentmeter/internal/timesync"
	"decentmeter/internal/units"
)

// PhysicsConfig parameterizes the physics-enabled fleet tier. The zero
// value (Enabled false) keeps every other scenario byte-identical: no pack,
// no RTC, no skew gate, nothing on the report hot path.
//
// The defaults compress the paper's day-scale physics onto the simulation's
// second-scale windows: a 0.2 mWh pack draining in seconds, a 2 s "day" for
// the solar cohort, and a grossly fast RTC so re-convergence happens inside
// one run.
type PhysicsConfig struct {
	// Enabled switches the fleet scenario onto the physics tier.
	Enabled bool
	// CapacityWh is the per-device battery capacity (default 2e-4 — tiny,
	// so state transitions happen on the compressed timescale).
	CapacityWh float64
	// DrainMilliamps is each device's rail draw while powered (default 20).
	// It is also the current the device's own INA219 meters and reports.
	DrainMilliamps float64
	// SolarMilliamps is the solar cohort's harvest sine mean and amplitude
	// (default 45): harvest swings 0..2x over each SolarPeriod.
	SolarMilliamps float64
	// TrickleMilliamps is the shed cohort's constant harvest (default 5),
	// deliberately below the drain so those devices walk the full
	// shed -> brown-out -> recover cycle.
	TrickleMilliamps float64
	// SolarPeriod is the compressed diurnal period (default 2s).
	SolarPeriod time.Duration
	// DriftPPM is the drift cohort's RTC frequency error (default 300000 —
	// a clock 30% fast, so it leaves the skew bound within a window).
	DriftPPM float64
	// DriftBound is the aggregator's MaxTimestampSkew: live measurements
	// stamped further than this from the reference clock are quarantined
	// (default 50ms).
	DriftBound time.Duration
	// SyncInterval paces the SNTP-style timesync exchange every device
	// runs against the aggregator's reference clock (default 2s).
	SyncInterval time.Duration
	// SampleCost/TxCost/RetryCost are the discrete event costs charged to
	// the pack on top of the rail draw (default 1 uWh each).
	SampleCost units.Energy
	TxCost     units.Energy
	RetryCost  units.Energy
	// ShedFactor stretches Tmeasure and the TDMA duty cycle while shed
	// (default 4).
	ShedFactor int
}

func (p *PhysicsConfig) defaults() {
	if p.CapacityWh <= 0 {
		p.CapacityWh = 2e-4
	}
	if p.DrainMilliamps <= 0 {
		p.DrainMilliamps = 20
	}
	if p.SolarMilliamps <= 0 {
		p.SolarMilliamps = 45
	}
	if p.TrickleMilliamps <= 0 {
		p.TrickleMilliamps = 5
	}
	if p.SolarPeriod <= 0 {
		p.SolarPeriod = 2 * time.Second
	}
	if p.DriftPPM == 0 {
		p.DriftPPM = 300000
	}
	if p.DriftBound <= 0 {
		p.DriftBound = 50 * time.Millisecond
	}
	if p.SyncInterval <= 0 {
		p.SyncInterval = 2 * time.Second
	}
	if p.SampleCost <= 0 {
		p.SampleCost = 1 // uWh
	}
	if p.TxCost <= 0 {
		p.TxCost = 1
	}
	if p.RetryCost <= 0 {
		p.RetryCost = 1
	}
	if p.ShedFactor <= 1 {
		p.ShedFactor = 4
	}
}

// Cohorts of the physics fleet, assigned round-robin by device index.
const (
	cohortSolar = iota
	cohortShed
	cohortDrift
	cohortCount
)

// devicePhysics is a reporter's physics attachment: the plane (pack, shed
// state machine), the sensor chain it samples through and its sync state.
type devicePhysics struct {
	cohort int
	plane  *device.Physics
	rtc    *sensor.DS3231
	meter  *sensor.Meter
	est    *timesync.Estimator

	nextSync time.Duration

	// Producer-owned counters, summed on the driver thread after the run.
	shedSkipped uint64
	brownedOut  uint64
}

// packLoad exposes a device pack's true rail draw as the LoadChannel its
// own INA219 meters.
type packLoad struct {
	pack *energy.Pack
	now  func() time.Duration
}

func (l packLoad) TrueCurrent() units.Current    { return l.pack.TrueLoad(l.now()) }
func (l packLoad) TrueBusVoltage() units.Voltage { return supplyVoltage }

// fleetPhysLoad is the feeder head's ground truth: the sum of every pack's
// instantaneous draw. Browned-out devices present zero, so the sum check
// tracks the fleet's real consumption as cohorts shed and recover. Only the
// driver thread reads it (the aggregator's ground ticker), and only while
// the producers are quiescent, so no locking is needed.
type fleetPhysLoad struct{ s *scenario }

func (l fleetPhysLoad) TrueCurrent() units.Current {
	t := l.s.env.Now()
	var sum units.Current
	for _, r := range l.s.reporters {
		sum += r.phys.plane.Pack.TrueLoad(t)
	}
	return sum
}

func (l fleetPhysLoad) TrueBusVoltage() units.Voltage { return supplyVoltage }

// rtcClock adapts the DS3231 model to the timesync.Clock interface.
type rtcClock struct{ r *sensor.DS3231 }

func (c rtcClock) Now() (time.Time, error) { return c.r.Now(), nil }
func (c rtcClock) Set(t time.Time) error   { c.r.SetTime(t); return nil }

// attach builds device i's physics plane for its cohort.
func (ph *PhysicsConfig) attach(s *scenario, r *reporter) error {
	i := r.idx
	p := &devicePhysics{cohort: i % cohortCount, est: timesync.NewEstimator(1), nextSync: ph.SyncInterval}
	var harvest energy.Profile
	initial := 0.7
	switch p.cohort {
	case cohortSolar:
		// Dawn at t=0: harvest rises from zero through the first "day".
		harvest = energy.Sine{
			Mean:      units.MilliampsToCurrent(ph.SolarMilliamps),
			Amplitude: units.MilliampsToCurrent(ph.SolarMilliamps),
			Period:    ph.SolarPeriod,
			Phase:     -3.14159265358979 / 2,
		}
	case cohortShed:
		harvest = energy.Constant{I: units.MilliampsToCurrent(ph.TrickleMilliamps)}
		// Stagger the cohort across the shed band so transitions are
		// spread over the run instead of synchronized.
		initial = 0.25 + 0.20*float64(i/cohortCount%7)/7
	case cohortDrift:
		// Clock trouble, not power trouble: harvest covers the drain so
		// the cohort stays up while its RTC misbehaves.
		harvest = energy.Constant{I: units.MilliampsToCurrent(ph.DrainMilliamps + 20)}
		initial = 1.0
	}
	drain := energy.Constant{I: units.MilliampsToCurrent(ph.DrainMilliamps)}
	pack := energy.NewPack(ph.CapacityWh, initial, supplyVoltage, drain, harvest)
	p.plane = device.NewPhysics(pack)
	p.plane.SampleCost, p.plane.TxCost, p.plane.RetryCost = ph.SampleCost, ph.TxCost, ph.RetryCost
	p.plane.ShedFactor = ph.ShedFactor
	p.plane.TrueWall = func(simNow time.Duration) time.Time { return scenarioEpoch.Add(simNow) }

	p.rtc = sensor.NewDS3231(sensor.DS3231Config{Seed: s.seed ^ uint64(i)<<8, Epoch: scenarioEpoch, Now: s.env.Now})
	p.rtc.SetTime(scenarioEpoch) // clear OSF; drift accumulates from here
	if p.cohort == cohortDrift {
		p.rtc.DriftPPM = ph.DriftPPM
	}
	p.plane.RTC = p.rtc

	bus := sensor.NewBus()
	ina := sensor.NewINA219(packLoad{pack: pack, now: s.env.Now},
		sensor.INA219Config{Seed: s.seed ^ uint64(i)*0x9e3779b97f4a7c15, Now: s.env.Now})
	if err := bus.Attach(sensor.AddrINA219Default, ina); err != nil {
		return err
	}
	meter, err := sensor.NewMeter(bus, sensor.AddrINA219Default, units.MilliampsToCurrent(ph.DrainMilliamps*4), 0.1)
	if err != nil {
		return err
	}
	p.meter = meter
	r.phys = p
	return nil
}

// physicsFleet assembles the physics-enabled fleet tier. It returns an error
// when a scenario invariant or the ledger audit fails, with the filled
// result for diagnosis.
func physicsFleet(cfg FleetConfig) (FleetResult, error) {
	ph := cfg.Physics
	ph.defaults()
	s := cfg.scenario()
	env := s.env

	// Feeder head over the true fleet draw at 4x headroom.
	rig, err := cfg.addRig(s, clusterRigConfig{
		HeadLoad:         fleetPhysLoad{s},
		MaxExpected:      units.MilliampsToCurrent(ph.DrainMilliamps) * units.Current(cfg.Devices) * 4,
		MaxTimestampSkew: ph.DriftBound,
	})
	if err != nil {
		return FleetResult{PhysicsOn: true}, err
	}
	agg := rig.reps[0].agg
	if err := cfg.registerStandalone(s, "phys", func(r *reporter) error {
		if err := ph.attach(s, r); err != nil {
			return err
		}
		agg.HandleDeviceMessage(r.id, protocol.Register{DeviceID: r.id})
		// Mirror shed transitions into the schedule from here on. The hook
		// fires on whichever goroutine advances the physics plane; the
		// aggregator call is mutex-guarded.
		r.phys.plane.OnModeChange = func(from, to device.PhysicsMode) {
			switch to {
			case device.PhysicsShed:
				_ = agg.SetDutyCycle(r.id, ph.ShedFactor)
			case device.PhysicsNormal:
				_ = agg.SetDutyCycle(r.id, 1)
			}
		}
		return nil
	}); err != nil {
		return FleetResult{PhysicsOn: true}, err
	}

	s.sample = func(r *reporter, now time.Duration) (protocol.Measurement, bool) {
		p := r.phys
		mode := p.plane.AdvanceTo(now)
		if mode == device.PhysicsBrownedOut {
			// Rails down: no sample, no radio. The seq counter does not
			// advance, so the outage is a freshness gap, never a ledger gap.
			p.brownedOut++
			return protocol.Measurement{}, false
		}
		interval := tickInterval
		if mode == device.PhysicsShed {
			// Coarser Tmeasure: sample every ShedFactor-th tick, staggered
			// by device index.
			if (int(now/tickInterval)+r.idx)%ph.ShedFactor != 0 {
				p.shedSkipped++
				return protocol.Measurement{}, false
			}
			interval *= time.Duration(ph.ShedFactor)
		}
		rd, err := p.meter.Read()
		if err != nil || rd.Overflow {
			return protocol.Measurement{}, false
		}
		p.plane.ConsumeSample()
		return protocol.Measurement{Timestamp: p.rtc.Now(), Interval: interval, Current: rd.Current, Voltage: rd.Bus}, true
	}

	server := timesync.NewServer(func() time.Time { return scenarioEpoch.Add(env.Now()) })
	syncBand := ph.DriftBound / 4
	// Solar-cohort median SoC extremes across window boundaries — the
	// diurnal swing the scenario check asserts.
	swingMin, swingMax := 1.0, 0.0
	var maxAbsSkew time.Duration
	var resyncs uint64

	// catchUp is the per-boundary physics pass (driver thread): advance
	// every plane, record the fleet series, run due timesync exchanges.
	catchUp := func() {
		now := env.Now()
		socs := make([]float64, 0, cfg.Devices)
		solar := make([]float64, 0, cfg.Devices/cohortCount+1)
		brownedNow := 0
		for _, r := range s.reporters {
			p := r.phys
			p.plane.AdvanceTo(now)
			soc := p.plane.SoC()
			socs = append(socs, soc)
			if p.cohort == cohortSolar {
				solar = append(solar, soc)
			}
			if p.plane.Mode() == device.PhysicsBrownedOut {
				brownedNow++
			}
			if skew := p.plane.Skew(now); skew.Abs() > maxAbsSkew {
				maxAbsSkew = skew.Abs()
			}
			// Periodic timesync: the four-timestamp exchange against the
			// aggregator's reference clock, disciplined through the
			// estimator. In-bound clocks fall inside the deadband and are
			// left alone; the drift cohort gets stepped back.
			if now >= p.nextSync {
				p.nextSync = now + ph.SyncInterval
				t1 := p.rtc.Now()
				sample := timesync.Complete(server.Handle(timesync.Request{T1: t1}), p.rtc.Now())
				if p.est.Add(sample) {
					if corr, err := timesync.Discipline(rtcClock{p.rtc}, p.est, syncBand); err == nil && corr != 0 {
						resyncs++
					}
				}
			}
		}
		sort.Float64s(socs)
		sort.Float64s(solar)
		if len(solar) > 0 {
			med := solar[len(solar)/2]
			swingMin, swingMax = min(swingMin, med), max(swingMax, med)
		}
		if reg := cfg.Registry; reg != nil && len(socs) > 0 {
			reg.Series("fleet.soc_p10", 4096).Append(now, socs[len(socs)/10])
			reg.Series("fleet.soc_p50", 4096).Append(now, socs[len(socs)/2])
			reg.Series("fleet.browned_out", 4096).Append(now, float64(brownedNow))
			reg.Series("fleet.clock_skew_us", 4096).Append(now, float64(maxAbsSkew.Microseconds()))
		}
	}

	// Window boundary: physics catch-up, telemetry, timesync, then
	// membership churn with a graceful detach-flush so the audit invariant
	// survives the frontier reset that re-registration causes.
	s.afterBoundary = func(int) {
		catchUp()
		s.churn(cfg.ChurnPerWindow, func(r *reporter) bool {
			if r.phys.plane.Mode() == device.PhysicsBrownedOut {
				return false // a dead node cannot detach gracefully; skip it
			}
			s.flush(r)
			agg.RemoveDevice(r.id)
			agg.HandleDeviceMessage(r.id, protocol.Register{DeviceID: r.id})
			if r.phys.plane.Mode() == device.PhysicsShed {
				_ = agg.SetDutyCycle(r.id, ph.ShedFactor)
			}
			return true
		})
	}
	if err := s.run(); err != nil {
		return FleetResult{PhysicsOn: true}, err
	}

	// Final convergence: one last discipline pass, drain every tail, and
	// run past a window close so the backlog seals before the audit.
	for _, r := range s.reporters {
		r.phys.nextSync = 0
	}
	catchUp()
	for _, r := range s.reporters {
		s.flush(r)
	}
	env.RunUntil(env.Now() + time.Second + 101*time.Millisecond)
	rig.stop()

	res := s.fleetResult(cfg)
	res.PhysicsOn = true
	res.AcksReceived = s.acksReceived()
	res.ChurnEvents = s.churnEvents
	res.BufferedDelivered = s.bufferedTail
	res.Quarantined = agg.QuarantinedMeasurements()
	res.Resyncs = resyncs
	res.SolarSwing = swingMax - swingMin
	res.MaxAbsSkew = maxAbsSkew

	// Cohort outcome accounting.
	var solarBrownouts uint64
	var driftAckStuck int
	for _, r := range s.reporters {
		b, rec, sh, _ := r.phys.plane.Stats()
		res.Brownouts += b
		res.BrownoutRecoveries += rec
		res.ShedTransitions += sh
		res.ShedSkippedTicks += r.phys.shedSkipped
		res.BrownedOutTicks += r.phys.brownedOut
		if r.phys.cohort == cohortSolar {
			solarBrownouts += b
		}
		if r.phys.cohort == cohortDrift && r.seq > 0 && r.lastAck == 0 {
			driftAckStuck++
		}
	}
	if reg := cfg.Registry; reg != nil {
		reg.Counter("physics.brownouts").AddInt(res.Brownouts)
		reg.Counter("physics.recoveries").AddInt(res.BrownoutRecoveries)
		reg.Counter("physics.sheds").AddInt(res.ShedTransitions)
		reg.Counter("physics.resyncs").AddInt(res.Resyncs)
		reg.Counter("physics.quarantined").AddInt(res.Quarantined)
	}

	// The audit gate: every acknowledged measurement is on the ledger
	// exactly once, physics or no physics.
	res.RecordsLost, res.RecordsDuplicated = s.audit()

	// Scenario checks.
	switch {
	case res.SolarSwing < 0.03:
		return res, fmt.Errorf("physics: diurnal solar swing invisible (median SoC swing %.3f < 0.03)", res.SolarSwing)
	case solarBrownouts > 0:
		return res, fmt.Errorf("physics: %d solar-cohort brownout(s); harvesting should carry that cohort", solarBrownouts)
	case res.ShedTransitions == 0 || res.Brownouts == 0 || res.BrownoutRecoveries == 0:
		return res, fmt.Errorf("physics: shed lifecycle incomplete (%d sheds, %d brownouts, %d recoveries)",
			res.ShedTransitions, res.Brownouts, res.BrownoutRecoveries)
	case res.ShedSkippedTicks == 0:
		return res, fmt.Errorf("physics: shed cohort never coarsened its sampling")
	case res.Quarantined == 0:
		return res, fmt.Errorf("physics: drift cohort never quarantined despite %v ppm against a %v bound",
			ph.DriftPPM, ph.DriftBound)
	case res.Resyncs == 0:
		return res, fmt.Errorf("physics: timesync never re-disciplined a drifted clock")
	case driftAckStuck > 0:
		return res, fmt.Errorf("physics: %d drift-cohort device(s) never recovered an ack frontier after resync", driftAckStuck)
	case res.RecordsLost != 0 || res.RecordsDuplicated != 0:
		return res, fmt.Errorf("physics audit FAILED: %d acked record(s) lost, %d duplicated",
			res.RecordsLost, res.RecordsDuplicated)
	}
	return res, nil
}
