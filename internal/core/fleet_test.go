package core

import (
	"strings"
	"testing"
)

// A small fleet run must verify cleanly: every window OK despite ack loss,
// retransmission, roaming temporaries and membership churn, with dedup
// filtering the retransmitted duplicates out of the chain.
func TestRunFleetSmall(t *testing.T) {
	res, err := RunFleet(FleetConfig{
		Devices:        400,
		Shards:         4,
		Seconds:        2,
		LossRate:       0.05,
		RoamFraction:   0.05,
		ChurnPerWindow: 4,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WindowsClosed < 2 {
		t.Fatalf("windows closed = %d", res.WindowsClosed)
	}
	if res.WindowsFlagged != 0 {
		t.Fatalf("%d of %d windows flagged despite honest fleet", res.WindowsFlagged, res.WindowsClosed)
	}
	if res.Roamers == 0 || res.ChurnEvents == 0 {
		t.Fatalf("scenario did not exercise roaming/churn: %+v", res)
	}
	if res.BlocksSealed == 0 || res.RecordsSealed == 0 {
		t.Fatalf("nothing sealed: %+v", res)
	}
	// Every fresh measurement is sealed exactly once; duplicates from ack
	// loss must not inflate the chain.
	if res.RecordsSealed != int(res.MeasurementsAccepted) {
		t.Fatalf("sealed %d records but accepted %d measurements", res.RecordsSealed, res.MeasurementsAccepted)
	}
	if res.RecordsDropped != 0 {
		t.Fatalf("dropped %d records in a healthy run", res.RecordsDropped)
	}
	if res.ReportsDelivered == 0 || res.AcksReceived == 0 {
		t.Fatalf("no traffic: %+v", res)
	}
}

// RunFleet must refuse the combinations no scenario implements, naming the
// offending field, instead of silently dropping half the config.
func TestRunFleetRejectsUnimplementedCombinations(t *testing.T) {
	for name, tc := range map[string]struct {
		cfg  FleetConfig
		want string
	}{
		"physics on the replicated tier": {
			FleetConfig{Devices: 40, Replicas: 4, Physics: PhysicsConfig{Enabled: true}}, "Physics.Enabled"},
		"fault plan on a single aggregator": {
			FleetConfig{Devices: 40, Chaos: DefaultFaultPlan()}, "Chaos"},
		"fault plan on the physics tier": {
			FleetConfig{Devices: 40, Replicas: 1, Chaos: ByzantineFaultPlan(), Physics: PhysicsConfig{Enabled: true}}, "Chaos"},
	} {
		res, err := RunFleet(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %s", name, err, tc.want)
		}
		if res.ReportsDelivered != 0 {
			t.Errorf("%s: ran %d reports before refusing", name, res.ReportsDelivered)
		}
	}
}

// FleetAssign must cover every device exactly once with shard affinity in
// both regimes (shards >= producers and shards < producers).
func TestFleetAssignCoversAllDevices(t *testing.T) {
	for _, tc := range []struct{ shards, producers int }{{8, 4}, {2, 8}, {1, 8}, {4, 4}} {
		deviceShard := make([]int, 1000)
		for i := range deviceShard {
			deviceShard[i] = i % tc.shards
		}
		assign := FleetAssign(deviceShard, tc.shards, tc.producers)
		if len(assign) != tc.producers {
			t.Fatalf("%d producers, want %d", len(assign), tc.producers)
		}
		seen := make([]bool, len(deviceShard))
		for p, devs := range assign {
			shardsOfP := map[int]bool{}
			for _, d := range devs {
				if seen[d] {
					t.Fatalf("device %d assigned twice (shards=%d producers=%d)", d, tc.shards, tc.producers)
				}
				seen[d] = true
				shardsOfP[deviceShard[d]] = true
			}
			if tc.shards >= tc.producers {
				continue
			}
			if len(shardsOfP) > 1 {
				t.Fatalf("producer %d spans %d shards with shards<producers", p, len(shardsOfP))
			}
		}
		for d, ok := range seen {
			if !ok {
				t.Fatalf("device %d unassigned (shards=%d producers=%d)", d, tc.shards, tc.producers)
			}
		}
	}
}
