// Replicated fleet: the replicated-aggregator tier at fleet scale. N
// aggregator replicas run as a consensus cluster sealing one common chain
// while the scenario engine's producers drive the report traffic; the
// choreography covers, window-aligned:
//
//	sec 1, tick 5   the current consensus leader crashes MID-WINDOW; its
//	                devices fail over to live replicas as foreign-feeder
//	                guests; the view changes and windows keep sealing
//	sec 3           the crashed replica recovers, catches up to the
//	                decided sequence and reclaims its devices; its frozen
//	                pre-crash records seal late (zero loss)
//	sec 5           a roaming hot-spot wave: WaveFraction of the fleet
//	                roams onto one replica as ordinary temporaries (home
//	                verification over the backhaul, draw moves with them)
//	sec 6+          the rebalance planner sheds the hot spot below the
//	                high-water mark; migrations execute with the Fig. 3
//	                machinery (release slot, temporary grant at target)
//
// Like the plain fleet, devices are synthetic reporters, but every
// correctness surface is real: TDMA admission, home verification, backhaul
// forwarding, window sum checks against per-replica feeder-head meters,
// consensus sealing, failover and recovery.
package core

import (
	"fmt"
	"time"

	"decentmeter/internal/protocol"
	"decentmeter/internal/units"
)

func replicatedFleet(cfg FleetConfig) (FleetResult, error) {
	n := cfg.Replicas
	if cfg.Devices < 4*n {
		return FleetResult{}, fmt.Errorf("fleet: %d devices cannot spread over %d replicas", cfg.Devices, n)
	}
	s := cfg.scenario()
	// Cluster-wide draw as the expected maximum keeps the INA219 calibration
	// register in range on every replica.
	rig, err := cfg.addRig(s, clusterRigConfig{
		Replicas: n, F: cfg.F,
		PipelineDepth:     cfg.PipelineDepth,
		RebalanceMaxMoves: cfg.RebalanceMaxMoves,
		MaxExpected:       s.perDevice * units.Current(cfg.Devices),
	})
	if err != nil {
		return FleetResult{}, err
	}
	rs, reps := rig.rs, rig.reps
	rs.Steer = s.steerWithin(0)

	// The fleet homes round-robin across replicas.
	if err := s.registerMasters("fleet-dev-%05d", cfg.Devices, func(i int) place { return place{rep: i % n} }); err != nil {
		return FleetResult{}, err
	}
	if cfg.Chaos != nil {
		if err := cfg.Chaos.validate(cfg.Seconds, n); err != nil {
			return FleetResult{}, err
		}
		s.chaos = newChaosDriver(cfg.Chaos, rig, cfg.Devices)
	}

	const (
		crashSec   = 1
		crashTick  = 5
		recoverSec = 3
		waveSec    = 5
	)
	hotspot := 0
	var crashedID string
	var rehomed, waveRoamers, migrations int
	s.beforeTick = func(sec, tick int) error {
		if sec != crashSec || tick != crashTick {
			return nil
		}
		crashedID = rs.LeaderID()
		hotspot = (rig.idx[crashedID] + 1) % n // heat a surviving replica later
		if err := rs.Crash(crashedID); err != nil {
			return err
		}
		rehomed = len(rs.Migrations())
		return nil
	}
	s.beforeBoundary = func(sec int) error {
		if sec == recoverSec && crashedID != "" {
			if err := rs.Recover(crashedID); err != nil {
				return err
			}
		}
		if sec == waveSec {
			waveRoamers = s.hotspotWave(int(cfg.WaveFraction*float64(cfg.Devices)), hotspot)
			s.env.RunUntil(s.env.Now() + 20*time.Millisecond) // settle verifications
		}
		if sec > waveSec {
			migrations += len(rs.RebalanceNow())
		}
		return nil
	}
	if err := s.run(); err != nil {
		return FleetResult{}, err
	}
	s.env.RunUntil(s.env.Now() + tickInterval) // final close + settle the decides
	rig.stop()

	res := s.fleetResult(cfg)
	res.Replicas = n
	res.DevicesRehomed, res.WaveRoamers, res.RebalanceMigrations = rehomed, waveRoamers, migrations
	if c := s.chaos; c != nil {
		res.FaultsInjected, res.Reconnects, res.FaultLog = c.injected, c.reconnects, c.log
		res.OutageDrops, res.AckBurstDrops = s.outageDrops, s.ackBurstDrops
		if cfg.Registry != nil {
			cfg.Registry.Counter("fleet.reconnects").AddInt(c.reconnects)
		}
	}
	res.ViewChanges = rs.CurrentView()
	res.Crashes, res.Recoveries = rs.Crashes(), rs.Recoveries()
	res.Corruptions, res.Restores = rs.Corruptions(), rs.Restores()
	_, res.BatchesDecided, _ = rs.Stats()
	res.ChainsIdentical = rs.ChainsIdentical()
	res.ImportErrors = rs.ImportErrors()
	s.appendWindowLoss()
	if used, capacity := reps[hotspot].agg.SlotStats(); capacity > 0 {
		res.HotspotLoadAfter = float64(used) / float64(capacity)
	}
	res.RecordsLost, res.RecordsDuplicated = s.audit()
	return res, nil
}

// hotspotWave roams up to want at-home devices onto the hot-spot replica as
// ordinary temporaries: draw moves with the device (it physically roams) and
// the registration runs the real Fig. 3 sequence 2 (home verification over
// the backhaul).
func (s *scenario) hotspotWave(want, hotspot int) int {
	reps := s.rigs[0].reps
	waved := 0
	for _, r := range s.reporters {
		if waved >= want {
			break
		}
		if r.home.rep == hotspot || r.at != r.home || r.guest {
			continue
		}
		reps[r.at.rep].load.I -= s.perDevice
		reps[hotspot].load.I += s.perDevice
		r.at.rep = hotspot
		reps[hotspot].agg.HandleDeviceMessage(r.id, protocol.Register{
			DeviceID:   r.id,
			MasterAddr: reps[r.home.rep].id,
		})
		waved++
	}
	return waved
}
