// Package core composes every substrate into the paper's system: a
// deterministic simulation of the DATE 2020 testbed (networks of devices
// with INA219 sensors and DS3231 RTCs, Raspberry-Pi-class aggregators with
// feeder-head measurement, Wi-Fi attachment by RSSI, a 1 ms backhaul mesh
// and a shared permissioned blockchain), plus the experiment drivers that
// regenerate the paper's Fig. 5, Fig. 6 and Thandshake results.
package core

import (
	"time"

	"decentmeter/internal/anomaly"
	"decentmeter/internal/radio"
	"decentmeter/internal/tdma"
	"decentmeter/internal/units"
)

// Params carries every tunable of a scenario. DefaultParams reproduces the
// paper's testbed settings.
type Params struct {
	// Seed drives all randomness deterministically.
	Seed uint64
	// Tmeasure is the reporting interval ("10 times per second i.e., the
	// device consumption is reported to the aggregator every
	// 100 milliseconds").
	Tmeasure time.Duration
	// WindowInterval is the verification window (the 1 s bars of Fig. 5).
	WindowInterval time.Duration
	// Supply is the outlet voltage (testbed powers ESP32s at 5 V USB).
	Supply units.Voltage
	// LineOhmsMin/Max bound per-outlet branch resistance; with the
	// testbed's mA-scale loads these produce the 0.9-8.2% ohmic gap of
	// Fig. 5.
	LineOhmsMin, LineOhmsMax float64
	// SensorMaxExpected calibrates each INA219.
	SensorMaxExpected units.Current
	// SensorOffsetMax is the INA219 offset bound (paper: 0.5 mA).
	SensorOffsetMax units.Current
	// Scan is the Wi-Fi channel scan plan (dominates Thandshake).
	Scan radio.ScanConfig
	// LinkLatency is the one-way WAN (device<->aggregator) latency.
	LinkLatency time.Duration
	// BackhaulLatency is the aggregator mesh delay (paper: 1 ms).
	BackhaulLatency time.Duration
	// Slots is the TDMA admission configuration.
	Slots tdma.Config
	// SumCheck configures anomaly verification.
	SumCheck anomaly.SumCheckConfig
	// APSpacing separates network AP positions in meters.
	APSpacing float64
	// DeviceRadius places devices this far from their AP.
	DeviceRadius float64
	// AggregatorShards is the number of ingest shards each aggregator
	// partitions its devices onto (default 1; see internal/aggregator).
	AggregatorShards int
	// MaxPendingRecords caps each aggregator's seal backlog (0 = the
	// aggregator default).
	MaxPendingRecords int
	// Replicas is the aggregator replica count of the fleet scenario's
	// replicated tier (<= 1 runs the legacy single-aggregator fleet; see
	// core.Cluster).
	Replicas int
	// ConsensusF is the replicated tier's fault tolerance; Replicas must
	// be at least 3*ConsensusF+1.
	ConsensusF int
	// RebalanceInterval paces the replicated tier's load-balancing loop
	// (0 = every verification window).
	RebalanceInterval time.Duration
	// PipelineDepth is the consensus-seal pipeline window: how many
	// pre-sealed proposals the replicated tier's leader keeps in flight at
	// once (default 4; 1 = classic one-outstanding-proposal sealing).
	PipelineDepth int
	// Physics configures the device-physics plane (battery packs, INA219
	// quantization, DS3231 drift, shedding and timesync re-convergence);
	// the zero value leaves every scenario on the ideal-device path.
	Physics PhysicsConfig
}

// DefaultParams returns the testbed configuration.
func DefaultParams() Params {
	return Params{
		Seed:              1,
		Tmeasure:          100 * time.Millisecond,
		WindowInterval:    time.Second,
		Supply:            5 * units.Volt,
		LineOhmsMin:       0.4,
		LineOhmsMax:       2.2,
		SensorMaxExpected: 2 * units.Ampere,
		SensorOffsetMax:   500 * units.Microampere,
		Scan:              radio.DefaultScan(),
		LinkLatency:       4 * time.Millisecond,
		BackhaulLatency:   time.Millisecond,
		Slots:             tdma.DefaultConfig(),
		SumCheck:          anomaly.DefaultSumCheck(),
		APSpacing:         60,
		DeviceRadius:      8,
		AggregatorShards:  1,
		PipelineDepth:     4,
	}
}
