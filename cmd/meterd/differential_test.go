package main

import (
	"io"
	"log"
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"decentmeter/internal/aggregator"
	"decentmeter/internal/backhaul"
	"decentmeter/internal/blockchain"
	"decentmeter/internal/mqtt"
	"decentmeter/internal/protocol"
	"decentmeter/internal/sim"
	"decentmeter/internal/units"
)

const diffAgg = "diff"

// diffStep is one uplink message of the scripted stream. Every step draws
// exactly one downlink message (a grant, an ack or a nack), which is what
// lets the real-network side replay the stream in order.
type diffStep struct {
	what string
	msg  protocol.Message
}

func diffMeas(seq uint64, buffered bool) protocol.Measurement {
	return protocol.Measurement{
		Seq:       seq,
		Timestamp: time.Date(2020, 4, 29, 0, 0, 0, 0, time.UTC).Add(time.Duration(seq) * 100 * time.Millisecond),
		Interval:  100 * time.Millisecond,
		Current:   units.MilliampsToCurrent(40 + float64(seq%7)),
		Voltage:   5 * units.Volt,
		Energy:    units.EnergyFromIVOver(units.MilliampsToCurrent(40+float64(seq%7)), 5*units.Volt, 100*time.Millisecond),
		Buffered:  buffered,
	}
}

func diffReport(dev string, ms ...protocol.Measurement) protocol.Report {
	return protocol.Report{DeviceID: dev, Measurements: ms}
}

// diffScript is the stream both engines must treat identically.
func diffScript() []diffStep {
	// A store-and-forward tail: 64 buffered measurements, flushed unsorted.
	tail := make([]protocol.Measurement, 64)
	for i := range tail {
		tail[i] = diffMeas(uint64(3+i), true)
	}
	rand.New(rand.NewSource(7)).Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
	return []diffStep{
		{"report from a non-member", diffReport("dev-a", diffMeas(1, false))},
		{"foreign-home register", protocol.Register{DeviceID: "roamer", MasterAddr: "elsewhere"}},
		{"register dev-a", protocol.Register{DeviceID: "dev-a"}},
		{"register dev-b", protocol.Register{DeviceID: "dev-b"}},
		{"re-register dev-a", protocol.Register{DeviceID: "dev-a"}},
		{"dev-a seq 1 (its ack is lost)", diffReport("dev-a", diffMeas(1, false))},
		{"dev-a retransmits 1 with 2", diffReport("dev-a", diffMeas(1, false), diffMeas(2, false))},
		{"dev-b seq 1", diffReport("dev-b", diffMeas(1, false))},
		{"dev-a unsorted buffered tail 3..66", diffReport("dev-a", tail...)},
		{"dev-a duplicate tail", diffReport("dev-a", tail...)},
		{"dev-b seq 2,3", diffReport("dev-b", diffMeas(2, false), diffMeas(3, false))},
		{"dev-a live again", diffReport("dev-a", diffMeas(67, false))},
		{"refused roamer reports", diffReport("roamer", diffMeas(1, false))},
	}
}

// diffLedger is a chain reduced to what the differential compares: each
// device's records in chain order, block boundaries dropped.
func diffLedger(t *testing.T, chain *blockchain.Chain) map[string][]blockchain.Record {
	t.Helper()
	if _, err := chain.Verify(); err != nil {
		t.Fatalf("chain does not verify: %v", err)
	}
	out := make(map[string][]blockchain.Record)
	for i := 0; i < chain.Length(); i++ {
		blk, err := chain.Block(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range blk.Records {
			// The wire codec and the chain file rebuild the timestamp; one
			// instant, one representation.
			rec.Timestamp = time.Unix(0, rec.Timestamp.UnixNano()).UTC()
			out[rec.DeviceID] = append(out[rec.DeviceID], rec)
		}
	}
	return out
}

// runDiffDES drives the script through an aggregator on the simulation
// clock, configured as newServer configures the daemon's.
func runDiffDES(t *testing.T, script []diffStep) ([]protocol.Message, map[string][]blockchain.Record) {
	t.Helper()
	env := sim.NewEnv(1)
	signer, err := blockchain.NewSigner(diffAgg)
	if err != nil {
		t.Fatal(err)
	}
	auth := blockchain.NewAuthority()
	if err := auth.Admit(diffAgg, signer.Public()); err != nil {
		t.Fatal(err)
	}
	chain := blockchain.NewChain(auth)
	var down []protocol.Message
	agg, err := aggregator.New(aggregator.Config{
		ID: diffAgg, Env: env, WallClock: time.Now,
		Mesh: backhaul.NewMesh(env, 0), Chain: chain, Signer: signer,
		SendToDevice: func(_ string, msg protocol.Message) error {
			down = append(down, msg)
			return nil
		},
		Tmeasure: 100 * time.Millisecond, WindowInterval: time.Second, Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Stop()
	for _, step := range script {
		before := len(down)
		agg.HandleDeviceMessage("", step.msg)
		if len(down) != before+1 {
			t.Fatalf("DES, %s: %d downlink messages, want 1", step.what, len(down)-before)
		}
	}
	env.RunUntil(time.Second) // the window closes and seals
	return down, diffLedger(t, chain)
}

// runDiffDaemon drives the script through newServer over real TCP and MQTT,
// on the wall scheduler, and reads the ledger back from the persisted file.
func runDiffDaemon(t *testing.T, script []diffStep) ([]protocol.Message, map[string][]blockchain.Record) {
	t.Helper()
	s, err := newServer(daemonConfig{
		ID:         diffAgg,
		ChainPath:  filepath.Join(t.TempDir(), "diff.chain"),
		Tmeasure:   100 * time.Millisecond,
		BlockEvery: time.Hour, // the shutdown close seals everything
		Slots:      40,
		Shards:     4,
		Logger:     log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.broker.Serve(ln)
	defer s.broker.Close()

	// One client plays every device: it sees all control topics, and sends
	// the next step only when the previous one was answered.
	control := make(chan protocol.Message, 1)
	client, err := mqtt.Dial(ln.Addr().String(), mqtt.ClientOptions{
		ClientID: "diff-devices", CleanSession: true, AckTimeout: 5 * time.Second,
		OnMessage: func(_ string, payload []byte) {
			msg, err := protocol.Decode(payload)
			if err != nil {
				t.Errorf("control payload: %v", err)
				return
			}
			control <- msg
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Subscribe(mqtt.Subscription{Filter: "meters/" + diffAgg + "/+/control", QoS: mqtt.QoS1}); err != nil {
		t.Fatal(err)
	}
	var down []protocol.Message
	for _, step := range script {
		topic := protocol.RegisterTopic(diffAgg)
		if rep, ok := step.msg.(protocol.Report); ok {
			topic = protocol.ReportTopic(diffAgg, rep.DeviceID)
		}
		payload, err := protocol.Encode(step.msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Publish(topic, payload, mqtt.QoS1, false); err != nil {
			t.Fatalf("daemon, %s: %v", step.what, err)
		}
		select {
		case msg := <-control:
			down = append(down, msg)
		case <-time.After(5 * time.Second):
			t.Fatalf("daemon, %s: no answer", step.what)
		}
	}
	s.persist()
	chain, err := blockchain.ReadFile(s.chainPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	return down, diffLedger(t, chain)
}

// TestDifferentialDESAndDaemon is the one-ingest-engine gate: a scripted
// stream with a lost ack and its retransmission, an unsorted 64-measurement
// buffered tail, a duplicate report, reports from non-members and a
// foreign-home register must draw the same grants, acks and nacks, and leave
// the same per-device records on the chain, whether the aggregator is hosted
// by the simulator or by the daemon behind a real broker.
func TestDifferentialDESAndDaemon(t *testing.T) {
	script := diffScript()
	desDown, desLedger := runDiffDES(t, script)
	dmnDown, dmnLedger := runDiffDaemon(t, script)

	for i, step := range script {
		if !reflect.DeepEqual(desDown[i], dmnDown[i]) {
			t.Errorf("%s: DES answered %#v, daemon %#v", step.what, desDown[i], dmnDown[i])
		}
	}
	if !reflect.DeepEqual(desLedger, dmnLedger) {
		t.Errorf("ledgers differ:\nDES    %v\ndaemon %v", desLedger, dmnLedger)
	}

	// The stream's own expectations, so that two engines wrong in the same
	// way do not pass: the roamer is refused for its unreachable home, the
	// non-members are nacked, and the ledger holds each measurement once.
	if nack, ok := desDown[1].(protocol.RegisterNack); !ok || !strings.Contains(nack.Reason, "home elsewhere unreachable") {
		t.Errorf("foreign-home register answered %#v", desDown[1])
	}
	for _, i := range []int{0, len(script) - 1} {
		if nack, ok := desDown[i].(protocol.ReportNack); !ok || nack.Reason != "not a member" {
			t.Errorf("%s answered %#v", script[i].what, desDown[i])
		}
	}
	wantAcks := map[int]uint64{5: 1, 6: 2, 7: 1, 8: 66, 9: 66, 10: 3, 11: 67}
	for i, want := range wantAcks {
		if ack, ok := desDown[i].(protocol.ReportAck); !ok || ack.Seq != want {
			t.Errorf("%s answered %#v, want ack %d", script[i].what, desDown[i], want)
		}
	}
	for dev, n := range map[string]int{"dev-a": 67, "dev-b": 3, "roamer": 0} {
		recs := desLedger[dev]
		if len(recs) != n {
			t.Errorf("%s has %d records on the chain, want %d", dev, len(recs), n)
		}
		seen := make(map[uint64]bool)
		for _, rec := range recs {
			if seen[rec.Seq] {
				t.Errorf("%s seq %d stored twice", dev, rec.Seq)
			}
			seen[rec.Seq] = true
		}
	}
}
