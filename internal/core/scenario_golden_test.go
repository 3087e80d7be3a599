package core

import (
	"fmt"
	"testing"
)

// TestScenarioGolden pins the fleet scenarios' outcomes, recorded at the
// commit before the four hand-rolled drivers became one scenario engine:
// every exported result field (FaultLog included) except the wall-clock
// IngestElapsed/IngestPerSec, as the %+v rendering of the result. Each row
// was run-to-run identical there; a refactor of the engine or of a scenario's
// assembly must leave every row byte-identical.
func TestScenarioGolden(t *testing.T) {
	fleet := func(cfg FleetConfig) func() (string, error) {
		return func() (string, error) {
			res, err := RunFleet(cfg)
			res.IngestElapsed, res.IngestPerSec = 0, 0
			return fmt.Sprintf("%+v", res), err
		}
	}
	fed := func(cfg FederationConfig) func() (string, error) {
		return func() (string, error) {
			res, err := RunFederation(cfg)
			res.IngestElapsed, res.IngestPerSec = 0, 0
			return fmt.Sprintf("%+v", res), err
		}
	}
	combined := DefaultFaultPlan()
	combined.Faults = append(combined.Faults, ByzantineFaultPlan().Faults...)
	for _, row := range []struct {
		name string
		run  func() (string, error)
		want string
	}{
		{"plain", fleet(FleetConfig{Devices: 5000, Seed: 3}),
			`{Devices:5000 Shards:8 Producers:8 ReportsDelivered:146948 MeasurementsAccepted:149904 AcksReceived:146948 UplinksLost:3052 AcksLost:2969 WindowsClosed:3 WindowsOK:3 WindowsFlagged:0 BlocksSealed:3 RecordsSealed:149904 RecordsDropped:0 Roamers:100 ChurnEvents:75 IngestElapsed:0s IngestPerSec:0 Replicas:0 ViewChanges:0 Crashes:0 Recoveries:0 Corruptions:0 Restores:0 DevicesRehomed:0 WaveRoamers:0 RebalanceMigrations:0 BatchesDecided:0 ChainsIdentical:false ImportErrors:0 RecordsLost:0 RecordsDuplicated:0 HotspotLoadAfter:0 PhysicsOn:false Brownouts:0 BrownoutRecoveries:0 ShedTransitions:0 Resyncs:0 Quarantined:0 ShedSkippedTicks:0 BrownedOutTicks:0 BufferedDelivered:0 SolarSwing:0 MaxAbsSkew:0s FaultsInjected:0 OutageDrops:0 AckBurstDrops:0 Reconnects:0 FaultLog:[]}`},
		{"plain-split", fleet(FleetConfig{Devices: 2000, Shards: 1, Producers: 8, Seed: 3}),
			`{Devices:2000 Shards:1 Producers:8 ReportsDelivered:58765 MeasurementsAccepted:59955 AcksReceived:58765 UplinksLost:1235 AcksLost:1142 WindowsClosed:3 WindowsOK:3 WindowsFlagged:0 BlocksSealed:3 RecordsSealed:59955 RecordsDropped:0 Roamers:40 ChurnEvents:30 IngestElapsed:0s IngestPerSec:0 Replicas:0 ViewChanges:0 Crashes:0 Recoveries:0 Corruptions:0 Restores:0 DevicesRehomed:0 WaveRoamers:0 RebalanceMigrations:0 BatchesDecided:0 ChainsIdentical:false ImportErrors:0 RecordsLost:0 RecordsDuplicated:0 HotspotLoadAfter:0 PhysicsOn:false Brownouts:0 BrownoutRecoveries:0 ShedTransitions:0 Resyncs:0 Quarantined:0 ShedSkippedTicks:0 BrownedOutTicks:0 BufferedDelivered:0 SolarSwing:0 MaxAbsSkew:0s FaultsInjected:0 OutageDrops:0 AckBurstDrops:0 Reconnects:0 FaultLog:[]}`},
		{"physics", fleet(FleetConfig{Devices: 300, Seed: 3, Physics: PhysicsConfig{Enabled: true}}),
			`{Devices:300 Shards:8 Producers:8 ReportsDelivered:24841 MeasurementsAccepted:25376 AcksReceived:24963 UplinksLost:535 AcksLost:444 WindowsClosed:13 WindowsOK:0 WindowsFlagged:13 BlocksSealed:13 RecordsSealed:25376 RecordsDropped:0 Roamers:0 ChurnEvents:36 IngestElapsed:0s IngestPerSec:0 Replicas:0 ViewChanges:0 Crashes:0 Recoveries:0 Corruptions:0 Restores:0 DevicesRehomed:0 WaveRoamers:0 RebalanceMigrations:0 BatchesDecided:0 ChainsIdentical:false ImportErrors:0 RecordsLost:0 RecordsDuplicated:0 HotspotLoadAfter:0 PhysicsOn:true Brownouts:300 BrownoutRecoveries:211 ShedTransitions:311 Resyncs:600 Quarantined:10575 ShedSkippedTicks:2046 BrownedOutTicks:8578 BufferedDelivered:100884 SolarSwing:0.2333333333333335 MaxAbsSkew:615ms FaultsInjected:0 OutageDrops:0 AckBurstDrops:0 Reconnects:0 FaultLog:[]}`},
		{"replicated", fleet(FleetConfig{Replicas: 4, Devices: 2000, Seed: 3}),
			`{Devices:2000 Shards:8 Producers:8 ReportsDelivered:156792 MeasurementsAccepted:159946 AcksReceived:0 UplinksLost:3208 AcksLost:3230 WindowsClosed:30 WindowsOK:30 WindowsFlagged:0 BlocksSealed:31 RecordsSealed:159940 RecordsDropped:0 Roamers:0 ChurnEvents:0 IngestElapsed:0s IngestPerSec:0 Replicas:4 ViewChanges:1 Crashes:1 Recoveries:1 Corruptions:0 Restores:0 DevicesRehomed:500 WaveRoamers:300 RebalanceMigrations:64 BatchesDecided:31 ChainsIdentical:true ImportErrors:0 RecordsLost:0 RecordsDuplicated:0 HotspotLoadAfter:0.7352647352647352 PhysicsOn:false Brownouts:0 BrownoutRecoveries:0 ShedTransitions:0 Resyncs:0 Quarantined:0 ShedSkippedTicks:0 BrownedOutTicks:0 BufferedDelivered:0 SolarSwing:0 MaxAbsSkew:0s FaultsInjected:0 OutageDrops:0 AckBurstDrops:0 Reconnects:0 FaultLog:[]}`},
		{"replicated-chaos", fleet(FleetConfig{Replicas: 4, Devices: 2000, Seed: 3, Shards: 4, Chaos: DefaultFaultPlan()}),
			`{Devices:2000 Shards:4 Producers:4 ReportsDelivered:148922 MeasurementsAccepted:159963 AcksReceived:0 UplinksLost:3078 AcksLost:2824 WindowsClosed:30 WindowsOK:30 WindowsFlagged:0 BlocksSealed:31 RecordsSealed:159958 RecordsDropped:0 Roamers:0 ChurnEvents:0 IngestElapsed:0s IngestPerSec:0 Replicas:4 ViewChanges:1 Crashes:2 Recoveries:2 Corruptions:0 Restores:0 DevicesRehomed:500 WaveRoamers:300 RebalanceMigrations:64 BatchesDecided:31 ChainsIdentical:true ImportErrors:0 RecordsLost:0 RecordsDuplicated:0 HotspotLoadAfter:0.7352647352647352 PhysicsOn:false Brownouts:0 BrownoutRecoveries:0 ShedTransitions:0 Resyncs:0 Quarantined:0 ShedSkippedTicks:0 BrownedOutTicks:0 BufferedDelivered:0 SolarSwing:0 MaxAbsSkew:0s FaultsInjected:4 OutageDrops:8000 AckBurstDrops:7838 Reconnects:2000 FaultLog:[sec 2 tick 2: broker-outage for 4 tick(s) sec 4 tick 1: ack-loss-burst for 4 tick(s) sec 6 tick 2: mesh-partition of fleet-agg-1 for 5 tick(s) sec 7 tick 1: replica-crash of fleet-agg-1 for 4 tick(s)]}`},
		{"replicated-byzantine", fleet(FleetConfig{Replicas: 4, Devices: 600, Chaos: ByzantineFaultPlan()}),
			`{Devices:600 Shards:8 Producers:8 ReportsDelivered:46929 MeasurementsAccepted:47973 AcksReceived:0 UplinksLost:1071 AcksLost:919 WindowsClosed:30 WindowsOK:30 WindowsFlagged:0 BlocksSealed:31 RecordsSealed:47973 RecordsDropped:0 Roamers:0 ChurnEvents:0 IngestElapsed:0s IngestPerSec:0 Replicas:4 ViewChanges:3 Crashes:1 Recoveries:1 Corruptions:2 Restores:2 DevicesRehomed:150 WaveRoamers:90 RebalanceMigrations:60 BatchesDecided:31 ChainsIdentical:true ImportErrors:0 RecordsLost:0 RecordsDuplicated:0 HotspotLoadAfter:0.5980066445182725 PhysicsOn:false Brownouts:0 BrownoutRecoveries:0 ShedTransitions:0 Resyncs:0 Quarantined:0 ShedSkippedTicks:0 BrownedOutTicks:0 BufferedDelivered:0 SolarSwing:0 MaxAbsSkew:0s FaultsInjected:2 OutageDrops:0 AckBurstDrops:0 Reconnects:0 FaultLog:[sec 4 tick 1: byzantine of fleet-agg-0 (forge-votes|forge-decided|replay|garbage-flood) for 12 tick(s) sec 5 tick 9: byzantine of fleet-agg-2 (equivocate|withhold) for 8 tick(s)]}`},
		{"replicated-combined", fleet(FleetConfig{Replicas: 4, Devices: 600, Seed: 3, Chaos: combined}),
			`{Devices:600 Shards:8 Producers:8 ReportsDelivered:44672 MeasurementsAccepted:47982 AcksReceived:0 UplinksLost:928 AcksLost:798 WindowsClosed:30 WindowsOK:30 WindowsFlagged:0 BlocksSealed:31 RecordsSealed:47982 RecordsDropped:0 Roamers:0 ChurnEvents:0 IngestElapsed:0s IngestPerSec:0 Replicas:4 ViewChanges:3 Crashes:2 Recoveries:2 Corruptions:2 Restores:2 DevicesRehomed:150 WaveRoamers:90 RebalanceMigrations:60 BatchesDecided:31 ChainsIdentical:true ImportErrors:0 RecordsLost:0 RecordsDuplicated:0 HotspotLoadAfter:0.5980066445182725 PhysicsOn:false Brownouts:0 BrownoutRecoveries:0 ShedTransitions:0 Resyncs:0 Quarantined:0 ShedSkippedTicks:0 BrownedOutTicks:0 BufferedDelivered:0 SolarSwing:0 MaxAbsSkew:0s FaultsInjected:6 OutageDrops:2400 AckBurstDrops:2356 Reconnects:600 FaultLog:[sec 2 tick 2: broker-outage for 4 tick(s) sec 4 tick 1: ack-loss-burst for 4 tick(s) sec 4 tick 1: byzantine of fleet-agg-0 (forge-votes|forge-decided|replay|garbage-flood) for 12 tick(s) sec 5 tick 9: byzantine of fleet-agg-2 (equivocate|withhold) for 8 tick(s) sec 6 tick 2: mesh-partition of fleet-agg-3 for 5 tick(s) sec 7 tick 1: replica-crash of fleet-agg-3 for 4 tick(s)]}`},
		{"federation", fed(FederationConfig{Clusters: 3, Devices: 1500, Seed: 3}),
			`{Clusters:3 ReplicasPerCluster:4 Devices:1500 Seconds:4 ReportsDelivered:59396 MeasurementsAccepted:59986 UplinksLost:604 AcksLost:620 Handoffs:75 Handbacks:75 HandoffRefusals:0 Crashes:1 Recoveries:1 DevicesRehomed:132 Corruptions:0 Restores:0 ViewChanges:1 WindowsClosed:46 WindowsOK:46 WindowsFlagged:0 BlocksSealed:47 RecordsSealed:59986 AnchorBlocks:3 AnchorRecords:9 AnchorsVerified:true RecordsLost:0 RecordsDuplicated:0 ChainsIdentical:true ImportErrors:0 IngestElapsed:0s IngestPerSec:0 PerCluster:[{ID:nb00 Devices:500 Blocks:15 Records:19995 ViewChanges:1 WindowsFlagged:0 ChainsIdentical:true} {ID:nb01 Devices:500 Blocks:16 Records:19997 ViewChanges:0 WindowsFlagged:0 ChainsIdentical:true} {ID:nb02 Devices:500 Blocks:16 Records:19994 ViewChanges:0 WindowsFlagged:0 ChainsIdentical:true}]}`},
		{"federation-byzantine", fed(FederationConfig{Clusters: 2, Devices: 400, Seconds: 5, Byzantine: true}),
			`{Clusters:2 ReplicasPerCluster:4 Devices:400 Seconds:5 ReportsDelivered:19795 MeasurementsAccepted:19991 UplinksLost:205 AcksLost:192 Handoffs:20 Handbacks:20 HandoffRefusals:0 Crashes:1 Recoveries:1 DevicesRehomed:53 Corruptions:1 Restores:1 ViewChanges:2 WindowsClosed:38 WindowsOK:38 WindowsFlagged:0 BlocksSealed:39 RecordsSealed:19991 AnchorBlocks:3 AnchorRecords:6 AnchorsVerified:true RecordsLost:0 RecordsDuplicated:0 ChainsIdentical:true ImportErrors:0 IngestElapsed:0s IngestPerSec:0 PerCluster:[{ID:nb00 Devices:200 Blocks:19 Records:9997 ViewChanges:1 WindowsFlagged:0 ChainsIdentical:true} {ID:nb01 Devices:200 Blocks:20 Records:9994 ViewChanges:1 WindowsFlagged:0 ChainsIdentical:true}]}`},
	} {
		t.Run(row.name, func(t *testing.T) {
			got, err := row.run()
			if err != nil {
				t.Fatal(err)
			}
			if got != row.want {
				t.Fatalf("result drifted from the golden\n got: %s\nwant: %s", got, row.want)
			}
		})
	}
}
