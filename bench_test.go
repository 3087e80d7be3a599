// Benchmarks regenerating every result artefact of the paper plus the
// ablations called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Each figure bench reports the paper-comparable quantity as a custom
// metric (gap percentages, handshake seconds) alongside the usual ns/op.
package decentmeter

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"decentmeter/internal/aggregator"
	"decentmeter/internal/anomaly"
	"decentmeter/internal/backhaul"
	"decentmeter/internal/blockchain"
	"decentmeter/internal/consensus"
	"decentmeter/internal/core"
	"decentmeter/internal/device"
	"decentmeter/internal/energy"
	"decentmeter/internal/mqtt"
	"decentmeter/internal/protocol"
	"decentmeter/internal/sensor"
	"decentmeter/internal/sim"
	"decentmeter/internal/store"
	"decentmeter/internal/tdma"
	"decentmeter/internal/telemetry"
	"decentmeter/internal/units"
)

// --- Fig. 5: decentralized vs centralized metering ---------------------------

func BenchmarkFig5Decentralized(b *testing.B) {
	var minGap, maxGap float64
	for i := 0; i < b.N; i++ {
		p := DefaultParams()
		p.Seed = uint64(i) + 1
		res, err := RunFig5(p, 9)
		if err != nil {
			b.Fatal(err)
		}
		minGap, maxGap = res.MinGapPercent, res.MaxGapPercent
	}
	b.ReportMetric(minGap, "gapmin_%")
	b.ReportMetric(maxGap, "gapmax_%")
}

// --- Fig. 6: device mobility --------------------------------------------------

func BenchmarkFig6Mobility(b *testing.B) {
	var hs time.Duration
	for i := 0; i < b.N; i++ {
		p := DefaultParams()
		p.Seed = uint64(i) + 1
		res, err := RunFig6(p, 10*time.Second, 5*time.Second, 20*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		hs = res.Thandshake
	}
	b.ReportMetric(hs.Seconds(), "Thandshake_s")
}

// --- Thandshake statistics (paper: mean 6 s over 15 runs) ---------------------

func BenchmarkThandshake15Runs(b *testing.B) {
	var stats HandshakeStats
	for i := 0; i < b.N; i++ {
		var err error
		stats, err = RunHandshakeTrials(DefaultParams(), 15)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(stats.Mean.Seconds(), "mean_s")
	b.ReportMetric(stats.Min.Seconds(), "min_s")
	b.ReportMetric(stats.Max.Seconds(), "max_s")
}

// --- Backhaul delay (paper: ~1 ms) ---------------------------------------------

func BenchmarkBackhaulDelay(b *testing.B) {
	env := sim.NewEnv(1)
	mesh := backhaul.NewMesh(env, 0)
	var lastRTT time.Duration
	mesh.Join("agg1", func(from string, msg protocol.Message) {
		if v, ok := msg.(protocol.VerifyRequest); ok {
			mesh.Send("agg1", from, protocol.VerifyResponse{DeviceID: v.DeviceID, OK: true})
		}
	})
	var sentAt sim.Time
	mesh.Join("agg2", func(string, protocol.Message) {
		lastRTT = env.Now() - sentAt
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sentAt = env.Now()
		mesh.Send("agg2", "agg1", protocol.VerifyRequest{DeviceID: "d", Requester: "agg2"})
		env.Run()
	}
	b.ReportMetric(float64(lastRTT.Microseconds())/2, "oneway_us")
}

// --- ablation: blockchain on the report path ----------------------------------

func BenchmarkChainAppend(b *testing.B) {
	signer, err := blockchain.NewSigner("agg1")
	if err != nil {
		b.Fatal(err)
	}
	auth := blockchain.NewAuthority()
	auth.Admit("agg1", signer.Public())
	chain := blockchain.NewChain(auth)
	recs := make([]blockchain.Record, 10)
	for i := range recs {
		recs[i] = blockchain.Record{
			DeviceID: "d", Seq: uint64(i), HomeAggregator: "agg1", ReportedVia: "agg1",
			Timestamp: time.Now(), Interval: 100 * time.Millisecond,
			Current: 80 * units.Milliampere, Voltage: 5 * units.Volt, Energy: 11,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range recs {
			recs[j].Seq = uint64(i*10 + j)
		}
		if _, err := chain.Seal(signer, time.Now(), recs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainVerify(b *testing.B) {
	signer, _ := blockchain.NewSigner("agg1")
	auth := blockchain.NewAuthority()
	auth.Admit("agg1", signer.Public())
	chain := blockchain.NewChain(auth)
	for i := 0; i < 100; i++ {
		chain.Seal(signer, time.Now(), []blockchain.Record{{
			DeviceID: "d", Seq: uint64(i), HomeAggregator: "agg1",
			Timestamp: time.Now(), Current: 80 * units.Milliampere,
		}})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bad, err := chain.Verify(); err != nil || bad != -1 {
			b.Fatal(bad, err)
		}
	}
}

// BenchmarkChainFile is the auditor's path on one 40 k-record block (a
// mobility flush: 625 devices draining 64-measurement tails): write the chain
// file, load it (decode + Import's link and Merkle checks), verify it. Each
// reports ns per record beside ns/op.
func BenchmarkChainFile(b *testing.B) {
	const records = 40000
	recs := make([]blockchain.Record, records)
	for i := range recs {
		recs[i] = blockchain.Record{
			DeviceID: fmt.Sprintf("device-%04d", i/64), Seq: uint64(i % 64), HomeAggregator: "agg1", ReportedVia: "agg1",
			Timestamp: time.Unix(1588154400, int64(i)*1e8).UTC(), Interval: 100 * time.Millisecond,
			Current: 80 * units.Milliampere, Voltage: 5 * units.Volt, Energy: 11, Buffered: true,
		}
	}
	chain := blockchain.NewChain(nil)
	if _, err := chain.AppendUnsealed("agg1", time.Unix(1588154400, 0), recs); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "agg1.chain")
	if err := chain.WriteFile(path); err != nil {
		b.Fatal(err)
	}
	perRecord := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/records, "ns/record")
	}
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := chain.WriteFile(path); err != nil {
				b.Fatal(err)
			}
		}
		perRecord(b)
	})
	b.Run("read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := blockchain.ReadFile(path, nil); err != nil {
				b.Fatal(err)
			}
		}
		perRecord(b)
	})
	b.Run("verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if bad, err := chain.Verify(); err != nil {
				b.Fatal(bad, err)
			}
		}
		perRecord(b)
	})
}

func BenchmarkMerkleProof(b *testing.B) {
	leaves := make([]blockchain.Hash, 256)
	for i := range leaves {
		leaves[i] = blockchain.HashRecord(blockchain.Record{DeviceID: "d", Seq: uint64(i)})
	}
	root := blockchain.MerkleRoot(leaves)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proof, err := blockchain.BuildProof(leaves, i%len(leaves))
		if err != nil {
			b.Fatal(err)
		}
		if !blockchain.VerifyProof(leaves[i%len(leaves)], proof, root) {
			b.Fatal("proof rejected")
		}
	}
}

// --- ablation: report path with and without chain sealing ----------------------

// sealMode selects how benchReportPath closes a window's batch.
type sealMode int

const (
	sealNone      sealMode = iota // decode + record only
	sealSync                      // full Chain.Seal (hash + Merkle + ECDSA inline)
	sealPipelined                 // hash/Merkle stage inline, ECDSA on the SealWorker
)

// BenchmarkReportPathWithChain measures the report path as the pipelined
// seal runs it: the window close performs the hash/Merkle/append stage only
// and hands the header hash to a bounded async SealWorker — the ECDSA sign
// is no longer on the critical path (compare BenchmarkReportPathSyncSeal,
// which still signs inline). Both variants report windowclose_ns, the
// directly-stopwatched latency of the close stage alone: pipelined it is
// microseconds of hashing, synchronous it is dominated by the ~130 µs
// sign+verify — the proof that the signature left the critical path even on
// a single-core box where "async" cannot overlap. After the timer stops,
// every deferred signature is attached and the whole chain must verify,
// proving the sign stage is deferred, never skipped.
func BenchmarkReportPathWithChain(b *testing.B) {
	benchReportPath(b, sealPipelined)
}

// BenchmarkReportPathSyncSeal is the pre-pipeline ablation: the window
// close blocks on the ECDSA signature (the v2 architecture's behaviour and
// the dominant term of its window-close latency).
func BenchmarkReportPathSyncSeal(b *testing.B) {
	benchReportPath(b, sealSync)
}

func BenchmarkReportPathNoChain(b *testing.B) {
	benchReportPath(b, sealNone)
}

func benchReportPath(b *testing.B, mode sealMode) {
	signer, _ := blockchain.NewSigner("agg1")
	auth := blockchain.NewAuthority()
	auth.Admit("agg1", signer.Public())
	chain := blockchain.NewChain(auth)
	var worker *blockchain.SealWorker
	if mode == sealPipelined {
		var err error
		// One signer goroutine mirrors the deployment shape (the ECDSA
		// stage overlaps ingest on a spare core); the queue is deep enough
		// that steady-state submission never blocks the close path.
		if worker, err = blockchain.NewSealWorker(signer, 1, 1024); err != nil {
			b.Fatal(err)
		}
	}
	attach := func(r blockchain.SealResult) {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
		if err := chain.AttachSignature(r.Seq, r.Sig); err != nil {
			b.Fatal(err)
		}
	}
	var pending []blockchain.Record
	var closeElapsed time.Duration
	closes := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := protocol.Measurement{
			Seq: uint64(i + 1), Timestamp: time.Now(), Interval: 100 * time.Millisecond,
			Current: 80 * units.Milliampere, Voltage: 5 * units.Volt, Energy: 11,
		}
		enc, err := protocol.Encode(protocol.Report{DeviceID: "d", Measurements: []protocol.Measurement{m}})
		if err != nil {
			b.Fatal(err)
		}
		dec, err := protocol.Decode(enc)
		if err != nil {
			b.Fatal(err)
		}
		rep := dec.(protocol.Report)
		pending = append(pending, blockchain.Record{
			DeviceID: rep.DeviceID, Seq: m.Seq, HomeAggregator: "agg1", ReportedVia: "agg1",
			Timestamp: m.Timestamp, Interval: m.Interval,
			Current: m.Current, Voltage: m.Voltage, Energy: m.Energy,
		})
		if len(pending) == 10 {
			closeStart := time.Now()
			switch mode {
			case sealSync:
				if _, err := chain.Seal(signer, time.Now(), pending); err != nil {
					b.Fatal(err)
				}
			case sealPipelined:
				blk, err := chain.AppendUnsealed("agg1", time.Now(), pending)
				if err != nil {
					b.Fatal(err)
				}
				for worker.Submit(blk.Header.Index, blk.Hash()) != nil {
					// Backlog full: drain one finished signature and retry —
					// bounded memory, graceful degradation under flood.
					attach(<-worker.Results())
				}
			}
			closeElapsed += time.Since(closeStart)
			closes++
			if mode == sealPipelined {
				// Fold finished signatures in outside the close stopwatch:
				// attach (and its authority re-verification) rides the lull
				// between windows, not the close itself.
				for {
					select {
					case r := <-worker.Results():
						attach(r)
						continue
					default:
					}
					break
				}
			}
			pending = pending[:0]
		}
	}
	b.StopTimer()
	if closes > 0 {
		b.ReportMetric(float64(closeElapsed.Nanoseconds())/float64(closes), "windowclose_ns")
	}
	if mode == sealPipelined {
		// Drain the sign stage and prove it was deferred, not dropped: every
		// block signed, full-chain verification green.
		worker.Close()
		for r := range worker.Results() {
			attach(r)
		}
		if n := chain.UnsignedBlocks(); n != 0 {
			b.Fatalf("%d blocks left unsigned", n)
		}
		if chain.Length() > 0 {
			if bad, err := chain.Verify(); err != nil || bad != -1 {
				b.Fatalf("pipelined chain failed verification: block %d, %v", bad, err)
			}
		}
	}
}

// BenchmarkInstrumentedReportPath is BenchmarkReportPathNoChain with the
// observability plane wired the way the deployed ingest tier runs it: per
// report one sharded-counter add and the tracer's Active() gate (with the
// stage observation it guards — never taken here because nothing opens a
// journey, exactly the steady state of unsampled traffic); per window close
// a counter add and a window-close stage observation. Compare its ns/op to
// BenchmarkReportPathNoChain for the instrumentation overhead; the
// zero-alloc claim is enforced by TestInstrumentedReportPathAllocFree.
func BenchmarkInstrumentedReportPath(b *testing.B) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(reg, 256)
	mIngested := reg.ShardedCounter("bench.reports_ingested")
	mClosed := reg.Counter("bench.windows_closed")
	var pending []blockchain.Record
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traced := tracer.Active()
		var ingestStart time.Time
		if traced {
			ingestStart = time.Now()
		}
		m := protocol.Measurement{
			Seq: uint64(i + 1), Timestamp: time.Now(), Interval: 100 * time.Millisecond,
			Current: 80 * units.Milliampere, Voltage: 5 * units.Volt, Energy: 11,
		}
		enc, err := protocol.Encode(protocol.Report{DeviceID: "d", Measurements: []protocol.Measurement{m}})
		if err != nil {
			b.Fatal(err)
		}
		dec, err := protocol.Decode(enc)
		if err != nil {
			b.Fatal(err)
		}
		rep := dec.(protocol.Report)
		pending = append(pending, blockchain.Record{
			DeviceID: rep.DeviceID, Seq: m.Seq, HomeAggregator: "agg1", ReportedVia: "agg1",
			Timestamp: m.Timestamp, Interval: m.Interval,
			Current: m.Current, Voltage: m.Voltage, Energy: m.Energy,
		})
		mIngested.Add(i&15, 1)
		if traced {
			tracer.ObserveStage(telemetry.StageShardIngest, ingestStart, time.Since(ingestStart))
		}
		if len(pending) == 10 {
			closeStart := time.Now()
			mClosed.Inc()
			tracer.ObserveStage(telemetry.StageWindowClose, closeStart, time.Since(closeStart))
			pending = pending[:0]
		}
	}
}

// TestInstrumentedReportPathAllocFree pins the instrument chain the report
// hot path pays per report — sharded-counter add, counter add, Active()
// gate, and an unsampled stage observation — at zero heap allocations.
func TestInstrumentedReportPathAllocFree(t *testing.T) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(reg, 256)
	mIngested := reg.ShardedCounter("bench.reports_ingested")
	mClosed := reg.Counter("bench.windows_closed")
	start := time.Now()
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if tracer.Active() {
			t.Fatal("no journey was opened, tracer must be inactive")
		}
		mIngested.Add(i&15, 1)
		mClosed.Inc()
		tracer.ObserveStage(telemetry.StageWindowClose, start, 42*time.Microsecond)
		i++
	})
	if allocs != 0 {
		t.Fatalf("instrument chain allocates %.1f times per report, want 0", allocs)
	}
}

// BenchmarkReportPathPhysics is BenchmarkInstrumentedReportPath with the
// device-physics plane charged per report, exactly as the physics fleet
// pays it on the hot path: one lazy pack advance (Physics.AdvanceTo, O(1)
// for the 100ms event gap), the sample+tx energy consumes, and the
// aggregator's timestamp skew gate. Compare its ns/op against
// BenchmarkInstrumentedReportPath — scripts/bench.sh --check gates the
// physics increment at <= 5% of the instrumented path. The zero-alloc
// claim for the increment is pinned by TestPhysicsReportPathAllocFree.
func BenchmarkReportPathPhysics(b *testing.B) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(reg, 256)
	mIngested := reg.ShardedCounter("bench.reports_ingested")
	mClosed := reg.Counter("bench.windows_closed")

	// A healthy pack: harvest exceeds base load by enough to refill the
	// per-report sample+tx consumes, so the bench never sheds and every
	// iteration pays the same normal-mode arithmetic.
	pack := energy.NewPack(2e-4, 0.9, 5*units.Volt,
		energy.Constant{I: 20 * units.Milliampere},
		energy.Constant{I: 60 * units.Milliampere})
	phys := device.NewPhysics(pack)
	phys.SampleCost = 1 // uWh
	phys.TxCost = 1     // uWh

	const interval = 100 * time.Millisecond
	const maxSkew = 50 * time.Millisecond
	base := time.Now()
	var simNow time.Duration
	var pending []blockchain.Record
	var quarantined int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traced := tracer.Active()
		var ingestStart time.Time
		if traced {
			ingestStart = time.Now()
		}
		simNow += interval
		if mode := phys.AdvanceTo(simNow); mode != device.PhysicsNormal {
			b.Fatalf("pack left normal mode at %v (SoC %.3f)", simNow, phys.SoC())
		}
		phys.ConsumeSample()
		m := protocol.Measurement{
			Seq: uint64(i + 1), Timestamp: base.Add(simNow), Interval: interval,
			Current: 80 * units.Milliampere, Voltage: 5 * units.Volt, Energy: 11,
		}
		enc, err := protocol.Encode(protocol.Report{DeviceID: "d", Measurements: []protocol.Measurement{m}})
		if err != nil {
			b.Fatal(err)
		}
		phys.ConsumeTx()
		dec, err := protocol.Decode(enc)
		if err != nil {
			b.Fatal(err)
		}
		rep := dec.(protocol.Report)
		// The aggregator's drift quarantine gate: measurement stamp vs
		// the ingest-side clock, symmetric bound.
		if skew := m.Timestamp.Sub(base.Add(simNow)); skew > maxSkew || skew < -maxSkew {
			quarantined++
		}
		pending = append(pending, blockchain.Record{
			DeviceID: rep.DeviceID, Seq: m.Seq, HomeAggregator: "agg1", ReportedVia: "agg1",
			Timestamp: m.Timestamp, Interval: m.Interval,
			Current: m.Current, Voltage: m.Voltage, Energy: m.Energy,
		})
		mIngested.Add(i&15, 1)
		if traced {
			tracer.ObserveStage(telemetry.StageShardIngest, ingestStart, time.Since(ingestStart))
		}
		if len(pending) == 10 {
			closeStart := time.Now()
			mClosed.Inc()
			tracer.ObserveStage(telemetry.StageWindowClose, closeStart, time.Since(closeStart))
			pending = pending[:0]
		}
	}
	b.StopTimer()
	if quarantined != 0 {
		b.Fatalf("%d reports quarantined on an undrifted clock", quarantined)
	}
}

// TestPhysicsReportPathAllocFree pins the physics increment the report hot
// path pays per report — the lazy pack advance, the two energy consumes
// and the skew-gate comparison — at zero heap allocations, so turning
// physics on cannot add GC pressure to ingest.
func TestPhysicsReportPathAllocFree(t *testing.T) {
	pack := energy.NewPack(2e-4, 0.9, 5*units.Volt,
		energy.Constant{I: 20 * units.Milliampere},
		energy.Constant{I: 60 * units.Milliampere})
	phys := device.NewPhysics(pack)
	phys.SampleCost = 1 // uWh
	phys.TxCost = 1     // uWh
	base := time.Now()
	var simNow time.Duration
	allocs := testing.AllocsPerRun(1000, func() {
		simNow += 100 * time.Millisecond
		phys.AdvanceTo(simNow)
		phys.ConsumeSample()
		phys.ConsumeTx()
		ts := base.Add(simNow)
		if skew := ts.Sub(base.Add(simNow)); skew > 50*time.Millisecond || skew < -50*time.Millisecond {
			t.Fatal("undrifted clock flagged")
		}
	})
	if allocs != 0 {
		t.Fatalf("physics increment allocates %.1f times per report, want 0", allocs)
	}
}

// --- component benches ----------------------------------------------------------

func BenchmarkSensorRead(b *testing.B) {
	bus := sensor.NewBus()
	ina := sensor.NewINA219(sensor.StaticLoad{I: 80 * units.Milliampere, V: 5 * units.Volt}, sensor.INA219Config{Seed: 1})
	if err := bus.Attach(sensor.AddrINA219Default, ina); err != nil {
		b.Fatal(err)
	}
	meter, err := sensor.NewMeter(bus, sensor.AddrINA219Default, 2*units.Ampere, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := meter.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMQTTEncodeDecode(b *testing.B) {
	p := &mqtt.PublishPacket{
		Topic:    "meters/agg1/device1/report",
		Payload:  []byte(`{"seq":42,"current_ua":82500,"voltage_uv":5000000}`),
		QoS:      mqtt.QoS1,
		PacketID: 42,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := mqtt.Encode(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := mqtt.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMQTTTopicMatch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !mqtt.MatchTopic("meters/+/+/report", "meters/agg1/device1/report") {
			b.Fatal("no match")
		}
	}
}

// BenchmarkProtocolEncodeDecode measures the report hot path as the device
// and aggregator run it: append-encode into a reused buffer, decode on
// receipt. The decode's allocations are exactly what the returned Report
// owns (two strings and the measurement slice).
func BenchmarkProtocolEncodeDecode(b *testing.B) {
	var msg protocol.Message = protocol.Report{
		DeviceID:   "device1",
		MasterAddr: "agg1",
		Measurements: []protocol.Measurement{{
			Seq: 1, Timestamp: time.Now(), Interval: 100 * time.Millisecond,
			Current: 80 * units.Milliampere, Voltage: 5 * units.Volt, Energy: 11,
		}},
	}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = protocol.AppendEncode(buf[:0], msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := protocol.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnomalySumCheck(b *testing.B) {
	cfg := anomaly.DefaultSumCheck()
	for i := 0; i < b.N; i++ {
		v := anomaly.SumCheck(cfg, 236*units.Milliampere, 222*units.Milliampere)
		if !v.OK {
			b.Fatal("honest window flagged")
		}
	}
}

func BenchmarkAnomalyDeviation(b *testing.B) {
	d := anomaly.NewDeviation(0, 0, 0)
	for i := 0; i < b.N; i++ {
		d.Observe(80 * units.Milliampere)
	}
}

// --- ablation: store-and-forward vs drop ----------------------------------------

func BenchmarkStoreAndForward(b *testing.B) {
	q, err := store.NewQueue[protocol.Measurement](4096, store.DropOldest)
	if err != nil {
		b.Fatal(err)
	}
	m := protocol.Measurement{Seq: 1, Current: 80 * units.Milliampere}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Seq = uint64(i)
		q.Push(m)
		if i%10 == 9 {
			q.Drain(10)
		}
	}
}

// --- sharded aggregator ingest ---------------------------------------------------

// BenchmarkAggregatorIngestSharded measures the aggregator's report path
// at fleet scale: a 20k-device membership, eight concurrent producer
// goroutines, one report per op. The shards=1 case funnels every producer
// through a single lock (the pre-shard architecture); shards=8 gives each
// producer shard affinity so ingest locks never contend. The speedup is
// hardware-dependent: it needs real cores to show (single-core containers
// serialize both cases), which is why BENCH_report.json numbers must be
// read against the machine that produced them. Parallelism is governed by
// the harness's -cpu flag: scripts/bench.sh runs this benchmark at
// GOMAXPROCS 1, 2 and 4 so the shard-affinity speedup is measured across
// scheduler widths instead of a hardcoded override.
func BenchmarkAggregatorIngestSharded(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchAggregatorIngest(b, 20000, shards, 8)
		})
	}
}

func benchAggregatorIngest(b *testing.B, devices, shards, producers int) {
	env := sim.NewEnv(1)
	mesh := backhaul.NewMesh(env, time.Millisecond)
	load := &sensor.StaticLoad{I: 100 * units.Ampere, V: 5 * units.Volt}
	bus := sensor.NewBus()
	ina := sensor.NewINA219(load, sensor.INA219Config{Seed: 1, ShuntOhms: 0.001})
	if err := bus.Attach(sensor.AddrINA219Default, ina); err != nil {
		b.Fatal(err)
	}
	meter, err := sensor.NewMeter(bus, sensor.AddrINA219Default, 400*units.Ampere, 0.001)
	if err != nil {
		b.Fatal(err)
	}
	signer, _ := blockchain.NewSigner("bench-agg")
	auth := blockchain.NewAuthority()
	auth.Admit("bench-agg", signer.Public())
	pitch := (100 * time.Millisecond) / time.Duration(devices+1)
	agg, err := aggregator.New(aggregator.Config{
		ID:        "bench-agg",
		Env:       env,
		HeadMeter: meter,
		WallClock: time.Now,
		Mesh:      mesh,
		Chain:     blockchain.NewChain(auth),
		Signer:    signer,
		SendToDevice: func(string, protocol.Message) error {
			return nil
		},
		Slots:             tdma.Config{Superframe: 100 * time.Millisecond, SlotLen: pitch * 4 / 5, Guard: pitch / 5},
		Shards:            shards,
		MaxPendingRecords: 1 << 16, // bound bench memory; the ring overwrite is the steady state
	})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]string, devices)
	deviceShard := make([]int, devices)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-dev-%05d", i)
		agg.HandleDeviceMessage(ids[i], protocol.Register{DeviceID: ids[i]})
		deviceShard[i] = agg.ShardIndex(ids[i])
	}
	if got := len(agg.Members()); got != devices {
		b.Fatalf("%d of %d devices admitted", got, devices)
	}
	assign := core.FleetAssign(deviceShard, shards, producers)

	perProducer := b.N / producers
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		n := perProducer
		if p == 0 {
			n += b.N % producers
		}
		if len(assign[p]) == 0 || n == 0 {
			continue
		}
		wg.Add(1)
		go func(p, n int) {
			defer wg.Done()
			mine := assign[p]
			seqs := make([]uint64, len(mine))
			scratch := make([]protocol.Measurement, 1)
			for i := 0; i < n; i++ {
				k := i % len(mine)
				seqs[k]++
				scratch[0] = protocol.Measurement{
					Seq:      seqs[k],
					Interval: 100 * time.Millisecond,
					Current:  5 * units.Milliampere,
					Voltage:  5 * units.Volt,
				}
				agg.HandleDeviceMessage(ids[mine[k]], protocol.Report{
					DeviceID:     ids[mine[k]],
					Measurements: scratch,
				})
			}
		}(p, n)
	}
	wg.Wait()
	b.StopTimer()
	accepted, _, _ := agg.Stats()
	if accepted == 0 {
		b.Fatal("nothing ingested")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reports/s")
}

// --- consensus decide throughput --------------------------------------------------

// BenchmarkConsensusDecide measures the replicated tier's agreement rate:
// batches of records proposed by the leader of an n=4 / f=1 cluster and
// driven through pre-prepare / prepare / commit until every replica
// delivers. The leader keeps a window of proposals in flight — the
// consensus-seal pipeline's operating mode — and records/s is the
// paper-relevant quantity: how much verified metering data the
// consensus-sealed chain can absorb.
func BenchmarkConsensusDecide(b *testing.B) {
	benchConsensusDecide(b, true)
}

// BenchmarkConsensusDecideNoAuth is the ablation: the same agreement drive
// with message authentication off. The checked-in gate in scripts/bench.sh
// compares the two from one run, pinning what the per-broadcast HMAC
// actually costs the decide path.
func BenchmarkConsensusDecideNoAuth(b *testing.B) {
	benchConsensusDecide(b, false)
}

func benchConsensusDecide(b *testing.B, auth bool) {
	env := sim.NewEnv(1)
	ids := []string{"r0", "r1", "r2", "r3"}
	cluster, err := consensus.NewCluster(env, ids, 1, time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	if !auth {
		cluster.DisableAuth()
	}
	const batch = 100
	const window = 4 // core.ClusterConfig's default PipelineDepth
	cluster.SetWindow(window)
	records := make([]blockchain.Record, batch)
	for i := range records {
		records[i] = blockchain.Record{
			DeviceID: "bench-dev",
			Seq:      uint64(i + 1),
			Current:  5 * units.Milliampere,
			Voltage:  5 * units.Volt,
			Interval: 100 * time.Millisecond,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		leader := cluster.Replicas[cluster.Leader(cluster.CurrentView())]
		w := window
		if b.N-i < w {
			w = b.N - i
		}
		for k := 0; k < w; k++ {
			if err := leader.Propose(records); err != nil {
				b.Fatal(err)
			}
		}
		env.RunUntil(env.Now() + 20*time.Millisecond)
		i += w
	}
	b.StopTimer()
	if got := len(cluster.Replicas["r0"].DecidedBlocks()); got != b.N {
		b.Fatalf("decided %d of %d proposals", got, b.N)
	}
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "records/s")
}

// --- simulation kernel throughput -------------------------------------------------

func BenchmarkSimKernel(b *testing.B) {
	env := sim.NewEnv(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			env.Schedule(time.Millisecond, tick)
		}
	}
	env.Schedule(time.Millisecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// --- end-to-end steady-state throughput ---------------------------------------------

func BenchmarkSteadyStateReporting(b *testing.B) {
	sys := NewSystem(DefaultParams())
	if _, err := sys.AddNetwork("agg1", 1); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := sys.AddDevice(fmt.Sprintf("device%d", i+1), "agg1", energy.StandardAppliances()[i%2].Profile); err != nil {
			b.Fatal(err)
		}
	}
	sys.Run(8 * time.Second) // attach
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(time.Second) // 4 devices x 10 reports
	}
	b.StopTimer()
	b.ReportMetric(float64(sys.Chain.TotalRecords())/float64(b.N), "records/s_sim")
}
