package aggregator

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"decentmeter/internal/backhaul"
	"decentmeter/internal/blockchain"
	"decentmeter/internal/protocol"
	"decentmeter/internal/sensor"
	"decentmeter/internal/sim"
	"decentmeter/internal/tdma"
	"decentmeter/internal/telemetry"
	"decentmeter/internal/units"
)

func recordsOf(t *testing.T, c *blockchain.Chain, deviceID string) []blockchain.Record {
	t.Helper()
	recs, err := c.RecordsOf(deviceID)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// rig assembles one aggregator with a controllable feeder truth and a
// captured downlink.
type rig struct {
	env  *sim.Env
	agg  *Aggregator
	mesh *backhaul.Mesh
	load *sensor.StaticLoad

	downlink []protocol.Message
	downTo   []string
}

func newRig(t *testing.T) *rig {
	t.Helper()
	return newRigWith(t, nil)
}

// newRigWith builds the standard rig, letting the test adjust the config
// (shard count, backlog cap, ...) before New.
func newRigWith(t *testing.T, mutate func(*Config)) *rig {
	t.Helper()
	env := sim.NewEnv(1)
	r := &rig{
		env:  env,
		mesh: backhaul.NewMesh(env, time.Millisecond),
		load: &sensor.StaticLoad{I: 0, V: 5 * units.Volt},
	}
	bus := sensor.NewBus()
	ina := sensor.NewINA219(r.load, sensor.INA219Config{Seed: 1})
	if err := bus.Attach(sensor.AddrINA219Default, ina); err != nil {
		t.Fatal(err)
	}
	meter, err := sensor.NewMeter(bus, sensor.AddrINA219Default, 2*units.Ampere, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	signer, err := blockchain.NewSigner("agg1")
	if err != nil {
		t.Fatal(err)
	}
	auth := blockchain.NewAuthority()
	if err := auth.Admit("agg1", signer.Public()); err != nil {
		t.Fatal(err)
	}
	epoch := time.Date(2020, 4, 29, 0, 0, 0, 0, time.UTC)
	cfg := Config{
		ID:        "agg1",
		Env:       env,
		HeadMeter: meter,
		WallClock: func() time.Time { return epoch.Add(env.Now()) },
		Mesh:      r.mesh,
		Chain:     blockchain.NewChain(auth),
		Signer:    signer,
		SendToDevice: func(devID string, msg protocol.Message) error {
			r.downlink = append(r.downlink, msg)
			r.downTo = append(r.downTo, devID)
			return nil
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	agg, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.agg = agg
	return r
}

func lastDown[T protocol.Message](r *rig) (T, bool) {
	var zero T
	for i := len(r.downlink) - 1; i >= 0; i-- {
		if m, ok := r.downlink[i].(T); ok {
			return m, true
		}
	}
	return zero, false
}

func meas(seq uint64, ma float64) protocol.Measurement {
	return protocol.Measurement{
		Seq:       seq,
		Timestamp: time.Date(2020, 4, 29, 0, 0, 0, 0, time.UTC).Add(time.Duration(seq) * 100 * time.Millisecond),
		Interval:  100 * time.Millisecond,
		Current:   units.MilliampsToCurrent(ma),
		Voltage:   5 * units.Volt,
		Energy:    units.EnergyFromIVOver(units.MilliampsToCurrent(ma), 5*units.Volt, 100*time.Millisecond),
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestSequence1MasterRegistration(t *testing.T) {
	r := newRig(t)
	r.agg.HandleDeviceMessage("dev1", protocol.Register{DeviceID: "dev1"})
	ack, ok := lastDown[protocol.RegisterAck](r)
	if !ok {
		t.Fatalf("no ack; downlink: %v", r.downlink)
	}
	if ack.Kind != protocol.MemberMaster || ack.AggregatorID != "agg1" {
		t.Fatalf("ack = %+v", ack)
	}
	if ack.Tmeasure != 100*time.Millisecond {
		t.Fatalf("mandated Tmeasure = %v", ack.Tmeasure)
	}
	mem, ok := r.agg.Member("dev1")
	if !ok || mem.Kind != protocol.MemberMaster || mem.Home != "agg1" {
		t.Fatalf("membership = %+v, %v", mem, ok)
	}
	// Home directory updated.
	if home, ok := r.mesh.HomeOf("dev1"); !ok || home != "agg1" {
		t.Fatalf("directory: %q, %v", home, ok)
	}
	// Re-registration re-grants the same slot.
	r.agg.HandleDeviceMessage("dev1", protocol.Register{DeviceID: "dev1"})
	ack2, _ := lastDown[protocol.RegisterAck](r)
	if ack2.Slot != ack.Slot {
		t.Fatalf("re-registration changed slot: %d -> %d", ack.Slot, ack2.Slot)
	}
}

func TestAdmissionControlNack(t *testing.T) {
	env := sim.NewEnv(1)
	r := &rig{env: env, mesh: backhaul.NewMesh(env, time.Millisecond), load: &sensor.StaticLoad{V: 5 * units.Volt}}
	bus := sensor.NewBus()
	ina := sensor.NewINA219(r.load, sensor.INA219Config{Seed: 1})
	bus.Attach(sensor.AddrINA219Default, ina)
	meter, _ := sensor.NewMeter(bus, sensor.AddrINA219Default, 2*units.Ampere, 0.1)
	signer, _ := blockchain.NewSigner("agg1")
	auth := blockchain.NewAuthority()
	auth.Admit("agg1", signer.Public())
	epoch := time.Date(2020, 4, 29, 0, 0, 0, 0, time.UTC)
	agg, err := New(Config{
		ID: "agg1", Env: env, HeadMeter: meter,
		WallClock: func() time.Time { return epoch.Add(env.Now()) },
		Mesh:      r.mesh, Chain: blockchain.NewChain(auth), Signer: signer,
		SendToDevice: func(devID string, msg protocol.Message) error {
			r.downlink = append(r.downlink, msg)
			return nil
		},
		// Tiny slot budget: 2 slots.
		Slots: tdma.Config{Superframe: 10 * time.Millisecond, SlotLen: 4 * time.Millisecond, Guard: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	agg.HandleDeviceMessage("a", protocol.Register{DeviceID: "a"})
	agg.HandleDeviceMessage("b", protocol.Register{DeviceID: "b"})
	agg.HandleDeviceMessage("c", protocol.Register{DeviceID: "c"})
	nack, ok := lastDown[protocol.RegisterNack](r)
	if !ok {
		t.Fatal("third device not refused (paper: limited time-slots limit devices)")
	}
	if nack.DeviceID != "c" {
		t.Fatalf("nacked %q", nack.DeviceID)
	}
}

func TestReportFromNonMemberNacked(t *testing.T) {
	r := newRig(t)
	r.agg.HandleDeviceMessage("ghost", protocol.Report{
		DeviceID:     "ghost",
		Measurements: []protocol.Measurement{meas(5, 80)},
	})
	nack, ok := lastDown[protocol.ReportNack](r)
	if !ok {
		t.Fatal("no ReportNack for non-member")
	}
	if nack.Seq != 5 {
		t.Fatalf("nack seq = %d", nack.Seq)
	}
	_, nacked, _ := r.agg.Stats()
	if nacked != 1 {
		t.Fatalf("nacked counter = %d", nacked)
	}
}

func TestReportIngestAndChainSeal(t *testing.T) {
	r := newRig(t)
	r.agg.HandleDeviceMessage("dev1", protocol.Register{DeviceID: "dev1"})
	r.agg.HandleDeviceMessage("dev1", protocol.Report{
		DeviceID:     "dev1",
		Measurements: []protocol.Measurement{meas(1, 80), meas(2, 81)},
	})
	ack, ok := lastDown[protocol.ReportAck](r)
	if !ok || ack.Seq != 2 {
		t.Fatalf("ack = %+v, %v", ack, ok)
	}
	// Run past a window boundary: block sealed.
	r.env.RunUntil(1100 * time.Millisecond)
	if r.agg.cfg.Chain.TotalRecords() != 2 {
		t.Fatalf("chain records = %d", r.agg.cfg.Chain.TotalRecords())
	}
	_, _, sealed := r.agg.Stats()
	if sealed != 1 {
		t.Fatalf("blocks sealed = %d", sealed)
	}
}

func TestDuplicateReportNotDoubleStored(t *testing.T) {
	r := newRig(t)
	r.agg.HandleDeviceMessage("dev1", protocol.Register{DeviceID: "dev1"})
	batch := []protocol.Measurement{meas(1, 80)}
	r.agg.HandleDeviceMessage("dev1", protocol.Report{DeviceID: "dev1", Measurements: batch})
	// Retransmission of the same seq (lost ack).
	r.agg.HandleDeviceMessage("dev1", protocol.Report{DeviceID: "dev1", Measurements: batch})
	r.env.RunUntil(1100 * time.Millisecond)
	if got := r.agg.cfg.Chain.TotalRecords(); got != 1 {
		t.Fatalf("duplicate stored: %d records", got)
	}
}

func TestSequence2RoamingVerification(t *testing.T) {
	r := newRig(t)
	// A second aggregator (the device's home) on the mesh.
	var homeGot []protocol.Message
	r.mesh.Join("agg0", func(from string, msg protocol.Message) {
		homeGot = append(homeGot, msg)
		if v, ok := msg.(protocol.VerifyRequest); ok {
			r.mesh.Send("agg0", from, protocol.VerifyResponse{DeviceID: v.DeviceID, OK: true})
		}
	})
	r.agg.HandleDeviceMessage("scooter", protocol.Register{DeviceID: "scooter", MasterAddr: "agg0"})
	// Verification is async over the mesh (1 ms each way).
	r.env.RunUntil(10 * time.Millisecond)
	if len(homeGot) == 0 {
		t.Fatal("home aggregator never asked to verify")
	}
	ack, ok := lastDown[protocol.RegisterAck](r)
	if !ok {
		t.Fatal("no temp membership ack")
	}
	if ack.Kind != protocol.MemberTemporary {
		t.Fatalf("kind = %v", ack.Kind)
	}
	mem, _ := r.agg.Member("scooter")
	if mem.Home != "agg0" {
		t.Fatalf("temp member home = %q", mem.Home)
	}
}

func TestSequence2VerificationFailure(t *testing.T) {
	r := newRig(t)
	r.mesh.Join("agg0", func(from string, msg protocol.Message) {
		if v, ok := msg.(protocol.VerifyRequest); ok {
			r.mesh.Send("agg0", from, protocol.VerifyResponse{DeviceID: v.DeviceID, OK: false, Reason: "unknown device"})
		}
	})
	r.agg.HandleDeviceMessage("impostor", protocol.Register{DeviceID: "impostor", MasterAddr: "agg0"})
	r.env.RunUntil(10 * time.Millisecond)
	if _, ok := lastDown[protocol.RegisterNack](r); !ok {
		t.Fatal("failed verification not nacked")
	}
	if _, ok := r.agg.Member("impostor"); ok {
		t.Fatal("impostor admitted")
	}
}

func TestSequence2UnreachableHome(t *testing.T) {
	r := newRig(t)
	r.agg.HandleDeviceMessage("scooter", protocol.Register{DeviceID: "scooter", MasterAddr: "nowhere"})
	if _, ok := lastDown[protocol.RegisterNack](r); !ok {
		t.Fatal("unreachable home not nacked")
	}
}

func TestTempMemberDataForwardedHome(t *testing.T) {
	r := newRig(t)
	var forwarded []protocol.ForwardReport
	r.mesh.Join("agg0", func(from string, msg protocol.Message) {
		switch m := msg.(type) {
		case protocol.VerifyRequest:
			r.mesh.Send("agg0", from, protocol.VerifyResponse{DeviceID: m.DeviceID, OK: true})
		case protocol.ForwardReport:
			forwarded = append(forwarded, m)
		}
	})
	r.agg.HandleDeviceMessage("scooter", protocol.Register{DeviceID: "scooter", MasterAddr: "agg0"})
	r.env.RunUntil(10 * time.Millisecond)
	r.agg.HandleDeviceMessage("scooter", protocol.Report{
		DeviceID:     "scooter",
		MasterAddr:   "agg0",
		Measurements: []protocol.Measurement{meas(1, 82)},
	})
	r.env.RunUntil(20 * time.Millisecond)
	if len(forwarded) != 1 {
		t.Fatalf("forwarded %d batches", len(forwarded))
	}
	if forwarded[0].Via != "agg1" || forwarded[0].DeviceID != "scooter" {
		t.Fatalf("forward = %+v", forwarded[0])
	}
}

func TestVerifyRequestForOwnDevice(t *testing.T) {
	r := newRig(t)
	var resp []protocol.VerifyResponse
	r.mesh.Join("agg2", func(from string, msg protocol.Message) {
		if v, ok := msg.(protocol.VerifyResponse); ok {
			resp = append(resp, v)
		}
	})
	r.agg.HandleDeviceMessage("dev1", protocol.Register{DeviceID: "dev1"})
	// agg2 asks about dev1 (our master member) and ghost (unknown).
	r.mesh.Send("agg2", "agg1", protocol.VerifyRequest{DeviceID: "dev1", Requester: "agg2"})
	r.mesh.Send("agg2", "agg1", protocol.VerifyRequest{DeviceID: "ghost", Requester: "agg2"})
	r.env.RunUntil(10 * time.Millisecond)
	if len(resp) != 2 {
		t.Fatalf("responses: %d", len(resp))
	}
	if !resp[0].OK || resp[0].DeviceID != "dev1" {
		t.Fatalf("dev1 response: %+v", resp[0])
	}
	if resp[1].OK {
		t.Fatalf("ghost vouched for: %+v", resp[1])
	}
}

func TestForwardReportRecordedAtHome(t *testing.T) {
	r := newRig(t)
	r.agg.HandleDeviceMessage("dev1", protocol.Register{DeviceID: "dev1"})
	r.mesh.Join("agg2", func(string, protocol.Message) {})
	r.mesh.Send("agg2", "agg1", protocol.ForwardReport{
		DeviceID:     "dev1",
		Via:          "agg2",
		Measurements: []protocol.Measurement{meas(10, 80)},
	})
	r.env.RunUntil(1100 * time.Millisecond)
	recs := recordsOf(t, r.agg.cfg.Chain, "dev1")
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].ReportedVia != "agg2" || recs[0].HomeAggregator != "agg1" {
		t.Fatalf("record routing: %+v", recs[0])
	}
	// Forwarded records must not pollute the local window sum.
	for _, w := range r.agg.Windows() {
		if w.Reported != 0 {
			t.Fatalf("forwarded data entered local window: %+v", w)
		}
	}
}

func TestSequence3TransferAndRemove(t *testing.T) {
	r := newRig(t)
	r.agg.HandleDeviceMessage("dev1", protocol.Register{DeviceID: "dev1"})
	var got []protocol.Message
	r.mesh.Join("agg2", func(from string, msg protocol.Message) {
		got = append(got, msg)
		if m, ok := msg.(protocol.TransferMembership); ok && m.NewMasterAddr == "agg2" {
			// New home admits on transfer notice (mirrors onTransfer).
		}
	})
	// Transfer to agg2.
	r.mesh.Send("agg2", "agg1", protocol.TransferMembership{DeviceID: "dev1", NewMasterAddr: "agg2"})
	r.env.RunUntil(10 * time.Millisecond)
	if _, ok := r.agg.Member("dev1"); ok {
		t.Fatal("old home retained membership after transfer")
	}
	if home, _ := r.mesh.HomeOf("dev1"); home != "agg2" {
		t.Fatalf("directory home = %q", home)
	}
	// Removal via mesh.
	r.agg.HandleDeviceMessage("dev2", protocol.Register{DeviceID: "dev2"})
	r.mesh.Send("agg2", "agg1", protocol.RemoveDevice{DeviceID: "dev2"})
	r.env.RunUntil(20 * time.Millisecond)
	if _, ok := r.agg.Member("dev2"); ok {
		t.Fatal("membership survived RemoveDevice")
	}
	found := false
	for _, m := range got {
		if ra, ok := m.(protocol.RemoveAck); ok && ra.DeviceID == "dev2" {
			found = true
		}
	}
	if !found {
		t.Fatal("no RemoveAck")
	}
}

func TestReleaseTemporaryOnly(t *testing.T) {
	r := newRig(t)
	r.agg.HandleDeviceMessage("dev1", protocol.Register{DeviceID: "dev1"})
	r.agg.ReleaseTemporary("dev1") // master: must survive
	if _, ok := r.agg.Member("dev1"); !ok {
		t.Fatal("master membership released by ReleaseTemporary")
	}
}

func TestWindowVerificationFlagsUnderReporting(t *testing.T) {
	r := newRig(t)
	r.agg.HandleDeviceMessage("dev1", protocol.Register{DeviceID: "dev1"})
	// Feeder truth: 200 mA throughout. The device reports honestly for
	// 5 s (building its baseline), then starts halving its reports —
	// the tamper-mid-life case the aggregator can both flag AND
	// attribute. (A device lying from birth is the paper's open
	// "ground truth problem": flaggable, not attributable.)
	r.load.I = 200 * units.Milliampere
	reported := 200.0
	stop := r.env.Ticker(100*time.Millisecond, func(sim.Time) {
		mem, _ := r.agg.Member("dev1")
		r.agg.HandleDeviceMessage("dev1", protocol.Report{
			DeviceID:     "dev1",
			Measurements: []protocol.Measurement{meas(mem.LastSeq+1, reported)},
		})
	})
	defer stop()
	r.env.RunUntil(5 * time.Second)
	honestFlagged := 0
	for _, w := range r.agg.Windows() {
		if !w.Verdict.OK {
			honestFlagged++
		}
	}
	if honestFlagged != 0 {
		t.Fatalf("%d honest windows flagged", honestFlagged)
	}
	reported = 100
	r.env.RunUntil(10 * time.Second)
	flagged, attributed := 0, 0
	for _, w := range r.agg.Windows() {
		if !w.Verdict.OK {
			flagged++
			if w.Culprit == "dev1" {
				attributed++
			}
		}
	}
	if flagged == 0 {
		t.Fatal("under-reporting never flagged")
	}
	if attributed == 0 {
		t.Fatal("tamperer never identified")
	}
}

// measBuf is meas with the Buffered flag set (delivered late from local
// storage).
func measBuf(seq uint64, ma float64) protocol.Measurement {
	m := meas(seq, ma)
	m.Buffered = true
	return m
}

// A retransmission whose buffered tail carries older seqs must be acked —
// and the high-water mark advanced — by the batch maximum, not the last
// element; otherwise the device retransmits forever and a later
// retransmission of the max seq double-stores it.
func TestOutOfOrderBatchAckedByMaxSeq(t *testing.T) {
	r := newRig(t)
	r.agg.HandleDeviceMessage("dev1", protocol.Register{DeviceID: "dev1"})
	r.agg.HandleDeviceMessage("dev1", protocol.Report{
		DeviceID:     "dev1",
		Measurements: []protocol.Measurement{meas(5, 80), measBuf(3, 79), measBuf(4, 81)},
	})
	ack, ok := lastDown[protocol.ReportAck](r)
	if !ok {
		t.Fatal("no ack")
	}
	if ack.Seq != 5 {
		t.Fatalf("acked seq %d, want the batch max 5", ack.Seq)
	}
	mem, _ := r.agg.Member("dev1")
	if mem.LastSeq != 5 {
		t.Fatalf("LastSeq = %d, want 5", mem.LastSeq)
	}
	// The device whose ack was for seq < 5 would retransmit seq 5; the
	// advanced high-water mark must reject it as a duplicate.
	r.agg.HandleDeviceMessage("dev1", protocol.Report{
		DeviceID:     "dev1",
		Measurements: []protocol.Measurement{meas(5, 80)},
	})
	r.env.RunUntil(1100 * time.Millisecond)
	if got := r.agg.cfg.Chain.TotalRecords(); got != 3 {
		t.Fatalf("%d records stored, want 3 (seq 5 double-stored?)", got)
	}
}

// The same max-seq rule applies to forwarded batches from a foreign
// aggregator.
func TestForwardReportAdvancesByBatchMax(t *testing.T) {
	r := newRig(t)
	r.agg.HandleDeviceMessage("dev1", protocol.Register{DeviceID: "dev1"})
	r.mesh.Join("agg2", func(string, protocol.Message) {})
	r.mesh.Send("agg2", "agg1", protocol.ForwardReport{
		DeviceID:     "dev1",
		Via:          "agg2",
		Measurements: []protocol.Measurement{meas(10, 80), measBuf(8, 79), measBuf(9, 81)},
	})
	r.env.RunUntil(10 * time.Millisecond)
	mem, _ := r.agg.Member("dev1")
	if mem.LastSeq != 10 {
		t.Fatalf("LastSeq = %d, want the forwarded batch max 10", mem.LastSeq)
	}
	// A duplicate forward of the max seq must not double-store.
	r.mesh.Send("agg2", "agg1", protocol.ForwardReport{
		DeviceID:     "dev1",
		Via:          "agg2",
		Measurements: []protocol.Measurement{meas(10, 80)},
	})
	r.env.RunUntil(1100 * time.Millisecond)
	if got := len(recordsOf(t, r.agg.cfg.Chain, "dev1")); got != 3 {
		t.Fatalf("%d records stored, want 3", got)
	}
}

// A device leaving mid-window (removal, roam-away release) already
// contributed to the feeder's ground measurement; its partial window must
// fold into the closing window instead of firing a false sum-check anomaly.
func TestDepartureMidWindowFoldsPartialWindow(t *testing.T) {
	r := newRig(t)
	r.agg.HandleDeviceMessage("dev1", protocol.Register{DeviceID: "dev1"})
	r.agg.HandleDeviceMessage("dev2", protocol.Register{DeviceID: "dev2"})
	r.load.I = 200 * units.Milliampere // feeder truth: both devices drawing
	var seq uint64
	stop := r.env.Ticker(100*time.Millisecond, func(sim.Time) {
		seq++
		for _, dev := range []string{"dev1", "dev2"} {
			if _, ok := r.agg.Member(dev); !ok {
				continue
			}
			r.agg.HandleDeviceMessage(dev, protocol.Report{
				DeviceID:     dev,
				Measurements: []protocol.Measurement{meas(seq, 100)},
			})
		}
	})
	defer stop()
	// dev2 leaves just before the first window closes.
	r.env.Schedule(950*time.Millisecond, func() { r.agg.RemoveDevice("dev2") })
	r.env.RunUntil(1100 * time.Millisecond)
	ws := r.agg.Windows()
	if len(ws) != 1 {
		t.Fatalf("windows = %d", len(ws))
	}
	w := ws[0]
	if _, ok := w.PerDevice["dev2"]; !ok {
		t.Fatalf("departed device's partial window discarded: %+v", w.PerDevice)
	}
	if !w.Verdict.OK {
		t.Fatalf("mid-window departure flagged a false anomaly: %+v", w.Verdict)
	}
}

// When sealing keeps failing, the pending-record backlog must stay bounded
// (drop-oldest) and the drops must be counted.
func TestSealFailureBacklogCapped(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := newRigWith(t, func(cfg *Config) {
		// An authority that never admitted this signer: Seal always fails.
		cfg.Chain = blockchain.NewChain(blockchain.NewAuthority())
		cfg.MaxPendingRecords = 8
		cfg.Registry = reg
	})
	r.agg.HandleDeviceMessage("dev1", protocol.Register{DeviceID: "dev1"})
	var seq uint64
	stop := r.env.Ticker(100*time.Millisecond, func(sim.Time) {
		seq++
		r.agg.HandleDeviceMessage("dev1", protocol.Report{
			DeviceID:     "dev1",
			Measurements: []protocol.Measurement{meas(seq, 80)},
		})
	})
	r.env.RunUntil(4950 * time.Millisecond) // ~49 records against a cap of 8
	stop()                                  // quiesce, then let the last window merge
	r.env.RunUntil(5100 * time.Millisecond)
	if got := r.agg.cfg.Chain.TotalRecords(); got != 0 {
		t.Fatalf("chain has %d records despite failing signer", got)
	}
	if n := r.agg.PendingRecords(); n > 8 {
		t.Fatalf("backlog grew to %d records, cap is 8", n)
	}
	if r.agg.DroppedRecords() == 0 {
		t.Fatal("drops not counted")
	}
	if c := reg.Counter("agg1.records_dropped").Value(); c == 0 {
		t.Fatal("records_dropped telemetry counter not incremented")
	}
	_, _, sealed := r.agg.Stats()
	if sealed != 0 {
		t.Fatalf("blocksSealed = %d with a failing signer", sealed)
	}
}

// driveScenario feeds one deterministic mixed workload (in-order reports,
// out-of-order buffered tails, retransmissions, a mid-window removal)
// through an aggregator and returns its windows and sealed record count.
func driveScenario(t *testing.T, shards int) ([]WindowReport, int) {
	t.Helper()
	r := newRigWith(t, func(cfg *Config) { cfg.Shards = shards })
	const n = 16
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("dev%02d", i)
		r.agg.HandleDeviceMessage(ids[i], protocol.Register{DeviceID: ids[i]})
	}
	r.load.I = units.Current(n) * 50 * units.Milliampere
	var seq uint64
	stop := r.env.Ticker(100*time.Millisecond, func(sim.Time) {
		seq++
		for i, dev := range ids {
			if _, ok := r.agg.Member(dev); !ok {
				continue
			}
			batch := []protocol.Measurement{meas(seq, 50)}
			if i%5 == 0 && seq > 1 {
				// Retransmitted tail, out of order.
				batch = append(batch, measBuf(seq-1, 50))
			}
			r.agg.HandleDeviceMessage(dev, protocol.Report{DeviceID: dev, Measurements: batch})
		}
	})
	defer stop()
	r.env.Schedule(1450*time.Millisecond, func() { r.agg.RemoveDevice(ids[3]) })
	r.env.RunUntil(3100 * time.Millisecond)
	return r.agg.Windows(), r.agg.cfg.Chain.TotalRecords()
}

// Sharded ingest must preserve the single-shard semantics exactly: same
// windows, same verdicts, same sealed record count.
func TestShardedMatchesSingleShardSemantics(t *testing.T) {
	w1, rec1 := driveScenario(t, 1)
	w8, rec8 := driveScenario(t, 8)
	if rec1 != rec8 {
		t.Fatalf("records: 1 shard %d, 8 shards %d", rec1, rec8)
	}
	if len(w1) != len(w8) {
		t.Fatalf("windows: 1 shard %d, 8 shards %d", len(w1), len(w8))
	}
	for i := range w1 {
		a, b := w1[i], w8[i]
		if a.Ground != b.Ground || a.Reported != b.Reported || a.Verdict.OK != b.Verdict.OK {
			t.Fatalf("window %d diverged:\n  1 shard: %+v\n  8 shards: %+v", i, a, b)
		}
		if len(a.PerDevice) != len(b.PerDevice) {
			t.Fatalf("window %d PerDevice: %d vs %d", i, len(a.PerDevice), len(b.PerDevice))
		}
		devs := make([]string, 0, len(a.PerDevice))
		for dev := range a.PerDevice {
			devs = append(devs, dev)
		}
		sort.Strings(devs)
		for _, dev := range devs {
			if a.PerDevice[dev] != b.PerDevice[dev] {
				t.Fatalf("window %d device %s: %v vs %v", i, dev, a.PerDevice[dev], b.PerDevice[dev])
			}
		}
	}
}

// The report path must be safe for concurrent producers (one per shard and
// then some), with control-plane reads, removals and window closes running
// alongside. Run with -race.
func TestConcurrentShardedIngest(t *testing.T) {
	var mu sync.Mutex
	var acks int
	r := newRigWith(t, func(cfg *Config) {
		cfg.Shards = 8
		// 166 slots: room for all 128 concurrent devices.
		cfg.Slots = tdma.Config{Superframe: 100 * time.Millisecond, SlotLen: 500 * time.Microsecond, Guard: 100 * time.Microsecond}
		cfg.SendToDevice = func(devID string, msg protocol.Message) error {
			mu.Lock()
			if _, ok := msg.(protocol.ReportAck); ok {
				acks++
			}
			mu.Unlock()
			return nil
		}
	})
	const producers, perProducer, reportsEach = 8, 16, 50
	ids := make([][]string, producers)
	for p := 0; p < producers; p++ {
		ids[p] = make([]string, perProducer)
		for i := range ids[p] {
			ids[p][i] = fmt.Sprintf("dev-%d-%02d", p, i)
			r.agg.HandleDeviceMessage(ids[p][i], protocol.Register{DeviceID: ids[p][i]})
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for seq := uint64(1); seq <= reportsEach; seq++ {
				for _, dev := range ids[p] {
					r.agg.HandleDeviceMessage(dev, protocol.Report{
						DeviceID:     dev,
						Measurements: []protocol.Measurement{meas(seq, 50)},
					})
				}
			}
		}(p)
	}
	// Control plane runs concurrently with ingest.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			r.agg.Members()
			r.agg.Member("dev-0-00")
			r.agg.PendingRecords()
		}
	}()
	wg.Wait()
	<-done
	r.agg.RemoveDevice("dev-0-01")
	r.env.RunUntil(1100 * time.Millisecond) // window close + seal
	accepted, _, sealed := r.agg.Stats()
	want := uint64(producers * perProducer * reportsEach)
	if accepted != want {
		t.Fatalf("accepted %d measurements, want %d", accepted, want)
	}
	if sealed == 0 {
		t.Fatal("nothing sealed after the window close")
	}
	mu.Lock()
	defer mu.Unlock()
	if acks == 0 {
		t.Fatal("no report acks delivered")
	}
}

func TestStopHaltsLoops(t *testing.T) {
	r := newRig(t)
	r.agg.Stop()
	before := r.env.EventsRun()
	r.env.RunUntil(5 * time.Second)
	// Only a handful of stragglers may run; the periodic loops are dead.
	if r.env.EventsRun()-before > 4 {
		t.Fatalf("loops still running after Stop: %d events", r.env.EventsRun()-before)
	}
}
