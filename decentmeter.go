// Package decentmeter is the public API of a reproduction of
// "Real-Time Energy Monitoring in IoT-enabled Mobile Devices"
// (Shivaraman et al., DATE 2020): a decentralized, per-device energy
// metering architecture in which IoT devices measure their own consumption,
// report it to trusted per-network aggregators at Tmeasure intervals, roam
// between networks with temporary memberships, and have their verified
// records sealed into a shared permissioned blockchain.
//
// The package re-exports the system builder and the paper's experiment
// drivers. The full component set (simulation kernel, INA219/DS3231
// models, grid, radio, MQTT, TDMA, blockchain, billing, anomaly detection,
// consensus, load balancing) lives under internal/; see DESIGN.md for the
// map.
//
// Quickstart:
//
//	sys := decentmeter.NewSystem(decentmeter.DefaultParams())
//	sys.AddNetwork("agg1", 1)
//	sys.AddDevice("device1", "agg1", decentmeter.DefaultESP32Load())
//	sys.Run(10 * time.Second)
//	fmt.Println(sys.EnergyReportedFor("device1"))
package decentmeter

import (
	"time"

	"decentmeter/internal/core"
	"decentmeter/internal/energy"
	"decentmeter/internal/units"
)

// Params carries every tunable of a scenario; DefaultParams reproduces the
// paper's testbed settings (Tmeasure = 100 ms, 5 V supply, 0.5 mA sensor
// offset, 13-channel scan, 1 ms backhaul).
type Params = core.Params

// System is one assembled testbed: grid + radio + devices + aggregators +
// backhaul + blockchain over a deterministic discrete-event simulation.
type System = core.System

// FleetConfig parameterizes the fleet-scale scenario: one aggregator with
// sharded ingest (Params.AggregatorShards in full-system runs) driven at
// tens of thousands of devices with loss, retransmission, roaming and
// churn — or, with Replicas > 1, the replicated-aggregator tier: N
// aggregators running as a consensus cluster that seals one common chain,
// with a mid-window leader crash, recovery, a roaming hot-spot wave and
// dynamic rebalancing choreographed across the run. RunFleet rejects the
// combinations no scenario implements (Physics with Replicas > 1, Chaos
// without).
type FleetConfig = core.FleetConfig

// FleetResult is the fleet scenario outcome.
type FleetResult = core.FleetResult

// Cluster runs a set of aggregators as one consensus-replicated tier with
// crash failover and dynamic rebalancing; obtain one for a system with
// System.EnableReplication after adding networks. Sealing then goes through
// PBFT-style agreement onto per-replica chains (ChainOf) that stay
// byte-identical, Crash/Recover inject aggregator failures, and the
// orchestrator rebalances TDMA occupancy with the Fig. 3 membership
// machinery. It is also the building block Federation instantiates per
// neighborhood.
type Cluster = core.Cluster

// ClusterConfig tunes one Cluster: consensus fault tolerance, proposal
// pacing, the consensus-seal pipeline depth (PipelineDepth: how many
// pre-sealed proposals the leader keeps in flight; window closes hand their
// batch to the pipeline and return immediately) and the load-balancing loop.
// Setting ID scopes its instruments under "fed.<ID>.*" when many clusters
// share a telemetry registry.
type ClusterConfig = core.ClusterConfig

// FederationConfig parameterizes the federated two-tier scenario: Clusters
// neighborhood clusters (each a full replicated consensus tier sealing its
// own chain) partitioning Devices devices, cross-cluster roaming waves
// carrying acknowledged-sequence watermarks over the inter-cluster mesh, a
// mid-run cluster-leader crash, and a regional super-chain anchoring every
// neighborhood chain's block roots.
type FederationConfig = core.FederationConfig

// FederationResult is the federated scenario outcome, including the
// federation-wide zero-loss/zero-duplication audit and the anchor-inclusion
// verification verdict.
type FederationResult = core.FederationResult

// Fig5Result is the decentralized-vs-centralized metering outcome (paper
// Fig. 5).
type Fig5Result = core.Fig5Result

// Fig6Result is the mobility experiment outcome (paper Fig. 6).
type Fig6Result = core.Fig6Result

// HandshakeStats summarizes repeated Thandshake trials (paper §III-B.b).
type HandshakeStats = core.HandshakeStats

// FraudResult is the tamper-detection scenario outcome.
type FraudResult = core.FraudResult

// Profile is a ground-truth load model (current as a function of time).
type Profile = energy.Profile

// DefaultParams returns the paper's testbed configuration.
func DefaultParams() Params { return core.DefaultParams() }

// NewSystem builds an empty testbed.
func NewSystem(p Params) *System { return core.NewSystem(p) }

// RunFig5 reproduces the paper's first experiment (decentralized metering
// accuracy): per-window device sums vs the aggregator's own measurement.
func RunFig5(p Params, seconds int) (Fig5Result, error) { return core.RunFig5(p, seconds) }

// RunFig6 reproduces the paper's second experiment (device mobility):
// dwell at home, transit, temporary-membership handshake at the foreign
// network, data forwarded home.
func RunFig6(p Params, dwell, transit, after time.Duration) (Fig6Result, error) {
	return core.RunFig6(p, dwell, transit, after)
}

// RunHandshakeTrials measures Thandshake over n seeded runs (paper: mean
// 6 s, range 5.5-6.5 s over 15 runs).
func RunHandshakeTrials(p Params, n int) (HandshakeStats, error) {
	return core.RunHandshakeTrials(p, n)
}

// RunFraud exercises tamper detection end to end: a device under-reports
// and the aggregator's complementary measurement flags it; a mutated
// stored record is caught by chain verification.
func RunFraud(p Params, honest, tampered time.Duration) (FraudResult, error) {
	return core.RunFraud(p, honest, tampered)
}

// RunFleet drives one aggregator's sharded ingest pipeline at fleet scale
// (default 20000 devices across 8 shards) under ack loss, retransmission,
// out-of-order buffered tails, roaming and membership churn, verifying
// every window against the feeder-head measurement.
func RunFleet(cfg FleetConfig) (FleetResult, error) { return core.RunFleet(cfg) }

// RunFederation drives the federated two-tier topology end to end — N
// neighborhood clusters, cross-cluster roaming waves, a leader crash and
// recovery, per-boundary anchoring onto the regional super-chain — and
// audits zero record loss and duplication across the union of every
// neighborhood chain.
func RunFederation(cfg FederationConfig) (FederationResult, error) {
	return core.RunFederation(cfg)
}

// DefaultESP32Load returns a load shaped like the paper's Sparkfun ESP32
// Thing devices (~45 mA idle, ~120 mA transmit bursts every 100 ms).
func DefaultESP32Load() Profile { return energy.DefaultESP32() }

// DefaultEScooterLoad returns a CC-CV battery charging load (the paper's
// motivating e-scooter example).
func DefaultEScooterLoad() Profile { return energy.DefaultEScooter() }

// ConstantLoad returns a fixed draw in milliamperes.
func ConstantLoad(milliamps float64) Profile {
	return energy.Constant{I: units.MilliampsToCurrent(milliamps)}
}
