package mqtt_test

// End-to-end integration of the metering protocol over real TCP/MQTT: a
// miniature aggregator service (the meterd flow) and a device client run
// the registration + report + ack sequence through the broker, verifying
// the deployment story outside the discrete-event simulator.

import (
	"net"
	"sync"
	"testing"
	"time"

	"decentmeter/internal/mqtt"
	"decentmeter/internal/protocol"
	"decentmeter/internal/units"
)

// waitFor polls until cond or timeout.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestMeteringOverRealMQTT(t *testing.T) {
	// Broker.
	broker, err := mqtt.NewBroker(mqtt.BrokerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go broker.Serve(ln)
	defer broker.Close()
	addr := ln.Addr().String()

	const aggID = "agg1"

	// Aggregator side: membership map + records, fed by the broker hook.
	var mu sync.Mutex
	members := map[string]bool{}
	var records []protocol.Measurement
	aggControl := func(devID string, msg protocol.Message) {
		payload, err := protocol.Encode(msg)
		if err != nil {
			t.Errorf("encode control: %v", err)
			return
		}
		if err := broker.Publish(protocol.ControlTopic(aggID, devID), payload, mqtt.QoS1, false); err != nil {
			t.Errorf("publish control: %v", err)
		}
	}
	aggClient, err := mqtt.Dial(addr, mqtt.ClientOptions{
		ClientID:     aggID,
		CleanSession: true,
		AckTimeout:   5 * time.Second,
		OnMessage: func(topic string, payload []byte) {
			msg, err := protocol.Decode(payload)
			if err != nil {
				return
			}
			switch m := msg.(type) {
			case protocol.Register:
				mu.Lock()
				members[m.DeviceID] = true
				mu.Unlock()
				go aggControl(m.DeviceID, protocol.RegisterAck{
					DeviceID: m.DeviceID, Kind: protocol.MemberMaster,
					AggregatorID: aggID, Slot: 0, Tmeasure: 50 * time.Millisecond,
				})
			case protocol.Report:
				mu.Lock()
				known := members[m.DeviceID]
				if known {
					records = append(records, m.Measurements...)
				}
				mu.Unlock()
				if !known {
					go aggControl(m.DeviceID, protocol.ReportNack{DeviceID: m.DeviceID, Reason: "not a member"})
					return
				}
				go aggControl(m.DeviceID, protocol.ReportAck{
					DeviceID: m.DeviceID,
					Seq:      m.Measurements[len(m.Measurements)-1].Seq,
				})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer aggClient.Close()
	if _, err := aggClient.Subscribe(
		mqtt.Subscription{Filter: protocol.RegisterTopic(aggID), QoS: mqtt.QoS1},
		mqtt.Subscription{Filter: "meters/" + aggID + "/+/report", QoS: mqtt.QoS1},
	); err != nil {
		t.Fatal(err)
	}

	// Device side.
	type devState struct {
		mu         sync.Mutex
		registered bool
		acked      uint64
		nacked     bool
	}
	var ds devState
	dev, err := mqtt.Dial(addr, mqtt.ClientOptions{
		ClientID:     "device1",
		CleanSession: true,
		AckTimeout:   5 * time.Second,
		OnMessage: func(topic string, payload []byte) {
			msg, err := protocol.Decode(payload)
			if err != nil {
				return
			}
			ds.mu.Lock()
			defer ds.mu.Unlock()
			switch m := msg.(type) {
			case protocol.RegisterAck:
				ds.registered = true
			case protocol.ReportAck:
				// Acks are published from unordered goroutines: keep the
				// highest, not the last to land.
				ds.acked = max(ds.acked, m.Seq)
			case protocol.ReportNack:
				ds.nacked = true
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if _, err := dev.Subscribe(mqtt.Subscription{Filter: protocol.ControlTopic(aggID, "device1"), QoS: mqtt.QoS1}); err != nil {
		t.Fatal(err)
	}

	publish := func(msg protocol.Message, topic string) {
		t.Helper()
		payload, err := protocol.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.Publish(topic, payload, mqtt.QoS1, false); err != nil {
			t.Fatal(err)
		}
	}

	// Report before registering: must be Nacked (Fig. 3 sequence 2's
	// trigger).
	publish(protocol.Report{DeviceID: "device1", Measurements: []protocol.Measurement{{
		Seq: 1, Timestamp: time.Now(), Interval: 100 * time.Millisecond,
		Current: 80 * units.Milliampere, Voltage: 5 * units.Volt,
	}}}, protocol.ReportTopic(aggID, "device1"))
	waitFor(t, "nack", func() bool {
		ds.mu.Lock()
		defer ds.mu.Unlock()
		return ds.nacked
	})

	// Register, then report: acked and stored.
	publish(protocol.Register{DeviceID: "device1"}, protocol.RegisterTopic(aggID))
	waitFor(t, "registration", func() bool {
		ds.mu.Lock()
		defer ds.mu.Unlock()
		return ds.registered
	})
	for seq := uint64(2); seq <= 6; seq++ {
		publish(protocol.Report{DeviceID: "device1", Measurements: []protocol.Measurement{{
			Seq: seq, Timestamp: time.Now(), Interval: 100 * time.Millisecond,
			Current: 80 * units.Milliampere, Voltage: 5 * units.Volt,
			Energy: 11 * units.MicrowattHour,
		}}}, protocol.ReportTopic(aggID, "device1"))
	}
	waitFor(t, "acks", func() bool {
		ds.mu.Lock()
		defer ds.mu.Unlock()
		return ds.acked == 6
	})
	mu.Lock()
	stored := len(records)
	mu.Unlock()
	if stored != 5 {
		t.Fatalf("aggregator stored %d measurements, want 5", stored)
	}
}
