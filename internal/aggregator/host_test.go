package aggregator

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"decentmeter/internal/blockchain"
	"decentmeter/internal/protocol"
	"decentmeter/internal/sim"
	"decentmeter/internal/tdma"
	"decentmeter/internal/telemetry"
)

// TestConcurrentDuplicateRegister: two sessions of one device (or a QoS 1
// redelivery) can both miss Member before either is granted. The loser of
// the slot assignment must be re-acked with the winner's membership, not
// nacked for want of slots.
func TestConcurrentDuplicateRegister(t *testing.T) {
	var mu sync.Mutex
	slots := make(map[int]int)
	nacks := 0
	r := newRigWith(t, func(cfg *Config) {
		cfg.Shards = 4
		cfg.SendToDevice = func(_ string, msg protocol.Message) error {
			mu.Lock()
			defer mu.Unlock()
			switch m := msg.(type) {
			case protocol.RegisterAck:
				slots[m.Slot]++
			case protocol.RegisterNack:
				nacks++
			}
			return nil
		}
	})
	const workers = 32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			r.agg.HandleDeviceMessage("dev1", protocol.Register{DeviceID: "dev1"})
		}()
	}
	close(start)
	wg.Wait()
	if nacks != 0 {
		t.Errorf("%d of %d concurrent registrations nacked", nacks, workers)
	}
	if len(slots) != 1 || slots[0] != workers {
		t.Errorf("acked slots %v, want slot 0 acked %d times", slots, workers)
	}
	if used, _ := r.agg.SlotStats(); used != 1 {
		t.Errorf("%d slots used, want 1", used)
	}
	if n := len(r.agg.Members()); n != 1 {
		t.Errorf("%d members, want 1", n)
	}
}

// TestWallHostedNoHeadMeter hosts the aggregator the way cmd/meterd does —
// on the wall scheduler, without a head meter, with a window sink — and
// closes 10 000 windows over 100 reporting members: every window is handed
// to the sink marked unverified (not passed by a sum check, not flagged
// against a ground of zero) and none is retained.
func TestWallHostedNoHeadMeter(t *testing.T) {
	const members, closes = 100, 10000
	reg := telemetry.NewRegistry()
	r := newRigWith(t, func(cfg *Config) {
		cfg.Env = sim.NewWall()
		cfg.HeadMeter = nil
		cfg.WindowInterval = time.Hour // the test closes the windows itself
		cfg.Slots = tdma.Config{Superframe: 100 * time.Millisecond, SlotLen: 400 * time.Microsecond, Guard: 100 * time.Microsecond}
		cfg.Shards = 2
		cfg.Registry = reg
		cfg.SendToDevice = func(string, protocol.Message) error { return nil }
	})
	defer r.agg.Stop()
	sealed := 0
	r.agg.SetSeal(func(records []blockchain.Record) error {
		sealed += len(records)
		return nil
	})
	seen, idle := 0, 0
	r.agg.SetWindowSink(func(w WindowReport) {
		if len(w.PerDevice) == 0 {
			idle++
			return
		}
		seen++
		if !w.Verdict.OK || w.Verdict.Reason != unverifiedReason || len(w.PerDevice) != members || w.Ground != 0 {
			t.Errorf("window %d: verdict %+v, %d reporters, ground %v", seen, w.Verdict, len(w.PerDevice), w.Ground)
		}
	})
	ids := make([]string, members)
	for i := range ids {
		ids[i] = fmt.Sprintf("dev%03d", i)
		r.agg.HandleDeviceMessage(ids[i], protocol.Register{DeviceID: ids[i]})
	}
	if n := len(r.agg.Members()); n != members {
		t.Fatalf("%d members admitted, want %d", n, members)
	}
	batch := make([]protocol.Measurement, 1)
	for seq := uint64(1); seq <= closes; seq++ {
		batch[0] = meas(seq, 50)
		for _, dev := range ids {
			r.agg.HandleDeviceMessage(dev, protocol.Report{DeviceID: dev, Measurements: batch})
		}
		r.agg.CloseWindow()
	}
	r.agg.CloseWindow() // nobody reported: an idle close still reaches the sink
	if seen != closes || idle != 1 {
		t.Errorf("sink saw %d windows and %d idle closes, want %d and 1", seen, idle, closes)
	}
	if n := len(r.agg.Windows()); n != 0 {
		t.Errorf("%d windows retained after %d closes", n, closes)
	}
	if sealed != members*closes {
		t.Errorf("%d records sealed, want %d", sealed, members*closes)
	}
	snap := reg.Snapshot()
	if got, ok := snap.Gauges["agg1.sum_check_enabled"]; !ok || got != 0 {
		t.Errorf("gauge agg1.sum_check_enabled = %v (present %v), want 0", got, ok)
	}
	if got := snap.Counters["agg1.anomalies"]; got != 0 {
		t.Errorf("%v anomalies counted without a head meter", got)
	}
}

// TestFailedSealCarriesOverInOrder: a window whose seal fails keeps its
// records; the next window's records join them behind, and the first seal
// that succeeds takes the whole in order, nothing lost and nothing twice.
func TestFailedSealCarriesOverInOrder(t *testing.T) {
	r := newRig(t)
	var sealed []uint64
	fail := 2
	r.agg.SetSeal(func(records []blockchain.Record) error {
		if fail > 0 {
			fail--
			return errors.New("consensus unavailable")
		}
		for _, rec := range records {
			sealed = append(sealed, rec.Seq)
		}
		return nil
	})
	r.agg.HandleDeviceMessage("dev1", protocol.Register{DeviceID: "dev1"})
	var seq uint64
	for win := 0; win < 4; win++ {
		for i := 0; i < 3; i++ {
			seq++
			r.agg.HandleDeviceMessage("dev1", protocol.Report{
				DeviceID: "dev1", Measurements: []protocol.Measurement{meas(seq, 80)},
			})
		}
		r.agg.CloseWindow()
		if want := []int{3, 6, 0, 0}[win]; r.agg.PendingRecords() != want {
			t.Fatalf("after window %d: %d records pending, want %d", win, r.agg.PendingRecords(), want)
		}
	}
	if len(sealed) != int(seq) {
		t.Fatalf("sealed %d records, want %d", len(sealed), seq)
	}
	for i, got := range sealed {
		if got != uint64(i+1) {
			t.Fatalf("sealed order %v", sealed)
		}
	}
	if d := r.agg.DroppedRecords(); d != 0 {
		t.Errorf("%d records dropped", d)
	}
}
