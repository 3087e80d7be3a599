package main

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"decentmeter/internal/aggregator"
	"decentmeter/internal/backhaul"
	"decentmeter/internal/blockchain"
	"decentmeter/internal/consensus"
	"decentmeter/internal/mqtt"
	"decentmeter/internal/protocol"
	"decentmeter/internal/sensor"
	"decentmeter/internal/sim"
	"decentmeter/internal/store"
	"decentmeter/internal/tdma"
	"decentmeter/internal/telemetry"
	"decentmeter/internal/units"
)

// replayWindows is how many block intervals of traffic the replay pushes
// through the layers.
const replayWindows = 3

// replay is the in-process half of the traced pass: the workload's own
// seeded report stream pushed through each module's public functions, one
// layer at a time, outside any daemon. It yields the per-layer metrics and
// the spans behind the budget table.
type replay struct {
	w       workload
	dir     string
	rec     *recorder
	metrics metricSet

	specs    []deviceSpec
	reports  []protocol.Report // one block interval of traffic, in due order
	payloads [][]byte          // their wire encodings
	records  int               // measurements in reports

	ledger *ledger // built by the first window that closes

	// perReportNs and perWindowNs are the budget rows: nanoseconds of each
	// layer per report, and per block interval.
	perReportNs map[string]float64
	perWindowNs map[string]float64
}

// timeLoop runs op for i in [0,n) and returns nanoseconds per call.
func timeLoop(n int, op func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// mallocs returns the heap allocations op makes per call over n calls.
func mallocs(n int, op func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// newReplay builds one block interval (1 s) of workload w's reports.
// reportsPerS is the rate the untraced pass measured; it sizes the closed
// loop's interval, whose rate is a result, not an input.
func newReplay(w workload, seed uint64, reportsPerS float64, dir string, rec *recorder) *replay {
	r := &replay{
		w: w, dir: dir, rec: rec, metrics: metricSet{},
		specs:       makeDevices(w, seed),
		perReportNs: map[string]float64{}, perWindowNs: map[string]float64{},
	}
	n := int(reportsPerS)
	if w.period > 0 {
		n = w.devices * int(time.Second) / int(w.period)
	}
	epoch := time.Date(2020, 4, 29, 0, 0, 0, 0, time.UTC)
	next := make([]int, len(r.specs))
	for i := 0; i < n; i++ {
		d := i % len(r.specs)
		ms := make([]protocol.Measurement, w.batch)
		fillReport(w, &r.specs[d], next[d], epoch.Add(time.Duration(i)*time.Second/time.Duration(n)), ms)
		next[d]++
		r.reports = append(r.reports, protocol.Report{DeviceID: r.specs[d].id, Measurements: ms})
	}
	r.records = n * w.batch
	return r
}

// run measures every layer. Order matters only where one layer's output
// feeds the next (payloads, sealed blocks).
func (r *replay) run() error {
	steps := []func() error{
		r.protocolLayer, r.mqttCodecLayer, r.mqttLoopbackLayer, r.ingestLayer,
		r.ledgerLayers, r.storeLayer, r.simLayer,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

func (r *replay) protocolLayer() error {
	n := len(r.reports)
	r.payloads = make([][]byte, n)
	var buf []byte
	wire := 0
	r.perReportNs["device_encode"] = timeLoop(n, func(i int) {
		out, err := protocol.AppendEncode(buf[:0], r.reports[i])
		if err != nil {
			panic(err) // the replay built the report
		}
		buf = out
	})
	for i := range r.reports {
		p, err := protocol.Encode(r.reports[i])
		if err != nil {
			return err
		}
		r.payloads[i] = p
		wire += len(p)
	}
	decode := func(i int) {
		if _, err := protocol.Decode(r.payloads[i]); err != nil {
			panic(err)
		}
	}
	r.perReportNs["decode"] = timeLoop(n, decode)
	r.metrics["protocol.encode_ns_per_report"] = r.perReportNs["device_encode"]
	r.metrics["protocol.decode_ns_per_report"] = r.perReportNs["decode"]
	r.metrics["protocol.decode_allocs_per_report"] = mallocs(n, decode)
	r.metrics["protocol.wire_bytes_per_report"] = float64(wire) / float64(n)
	return nil
}

// mqttCodecLayer times the packet work meterd's broker does per report
// besides the ack publish (which route covers): read the PUBLISH, write its
// PUBACK, read the client's PUBACK for the ack.
func (r *replay) mqttCodecLayer() error {
	n := len(r.reports)
	frames := make([][]byte, n)
	for i := range frames {
		f, err := mqtt.Encode(&mqtt.PublishPacket{
			Topic: r.specs[i%len(r.specs)].reportTopic, Payload: r.payloads[i],
			QoS: mqtt.QoS1, PacketID: uint16(i%65535 + 1),
		})
		if err != nil {
			return err
		}
		frames[i] = f
	}
	puback, err := mqtt.Encode(mqtt.NewPuback(7))
	if err != nil {
		return err
	}
	var rd bytes.Reader
	r.perReportNs["mqtt_codec"] = timeLoop(n, func(i int) {
		rd.Reset(frames[i])
		if _, err := mqtt.ReadPacket(&rd); err != nil {
			panic(err)
		}
		if _, err := mqtt.Encode(mqtt.NewPuback(uint16(i%65535 + 1))); err != nil {
			panic(err)
		}
		rd.Reset(puback)
		if _, err := mqtt.ReadPacket(&rd); err != nil {
			panic(err)
		}
	})
	r.metrics["mqtt.packet_codec_ns"] = r.perReportNs["mqtt_codec"]
	return nil
}

// loopbackBroker is a bare in-process broker with the workload's control
// topics subscribed by one client and a second client to publish.
type loopbackBroker struct {
	broker     *mqtt.Broker
	sub, pub   *mqtt.Client
	delivered  chan struct{}
	serveError chan error
}

func (r *replay) startLoopback(sessionPath string) (*loopbackBroker, error) {
	b, err := mqtt.NewBroker(mqtt.BrokerOptions{SessionPath: sessionPath})
	if err != nil {
		return nil, err
	}
	lb := &loopbackBroker{broker: b, delivered: make(chan struct{}, 1), serveError: make(chan error, 1)}
	go func() { lb.serveError <- b.ListenAndServe("127.0.0.1:0") }()
	deadline := time.Now().Add(5 * time.Second)
	for b.Addr() == nil {
		if time.Now().After(deadline) {
			return nil, errors.New("loopback broker did not listen")
		}
		time.Sleep(time.Millisecond)
	}
	addr := b.Addr().String()
	clean := sessionPath == ""
	lb.sub, err = mqtt.Dial(addr, mqtt.ClientOptions{ClientID: "replay-sub", CleanSession: clean,
		OnMessage: func(string, []byte) {
			select {
			case lb.delivered <- struct{}{}:
			default:
			}
		}})
	if err != nil {
		lb.close()
		return nil, err
	}
	lb.pub, err = mqtt.Dial(addr, mqtt.ClientOptions{ClientID: "replay-pub", CleanSession: clean})
	if err != nil {
		lb.close()
		return nil, err
	}
	subs := make([]mqtt.Subscription, 0, 100)
	for i := range r.specs {
		subs = append(subs, mqtt.Subscription{Filter: r.specs[i].controlTopic, QoS: mqtt.QoS1})
		if len(subs) == cap(subs) || i == len(r.specs)-1 {
			if _, err := lb.sub.Subscribe(subs...); err != nil {
				lb.close()
				return nil, err
			}
			subs = subs[:0]
		}
	}
	return lb, nil
}

func (lb *loopbackBroker) close() {
	if lb.sub != nil {
		lb.sub.Close()
	}
	if lb.pub != nil {
		lb.pub.Close()
	}
	lb.broker.Close()
	<-lb.serveError
}

// rttP50 publishes n reports one at a time at QoS 1 and returns the median
// publish -> PUBACK round trip in microseconds.
func (r *replay) rttP50(lb *loopbackBroker, n int) (float64, error) {
	rtts := make([]float64, n)
	for i := range rtts {
		start := time.Now()
		if err := lb.pub.Publish(r.specs[i%len(r.specs)].reportTopic, r.payloads[i%len(r.payloads)], mqtt.QoS1, false); err != nil {
			return 0, err
		}
		rtts[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	return median(rtts), nil
}

// routeNs times Broker.Publish of a ReportAck to the workload's control
// topics, socket write included: meterd's ack path after the encode.
func (r *replay) routeNs(lb *loopbackBroker, n int) (float64, error) {
	ack, err := protocol.Encode(protocol.ReportAck{DeviceID: r.specs[0].id, Seq: 1})
	if err != nil {
		return 0, err
	}
	var routeErr error
	ns := timeLoop(n, func(i int) {
		if err := lb.broker.Publish(r.specs[i%len(r.specs)].controlTopic, ack, mqtt.QoS1, false); err != nil {
			routeErr = err
		}
	})
	if routeErr != nil {
		return 0, routeErr
	}
	select {
	case <-lb.delivered:
		return ns, nil
	case <-time.After(5 * time.Second):
		return 0, errors.New("routed publishes never reached the subscriber")
	}
}

// mqttLoopbackLayer measures the transport floor under ack latency (a QoS 1
// publish nobody subscribes to, answered by a bare broker), the cost of the
// ack path's Broker.Publish, and what the session journal adds to it: the
// journal logs every QoS 1 delivery to a persistent session.
func (r *replay) mqttLoopbackLayer() error {
	const rounds, routed = 2000, 20000
	lb, err := r.startLoopback("")
	if err != nil {
		return err
	}
	rtt, err := r.rttP50(lb, rounds)
	var route float64
	if err == nil {
		route, err = r.routeNs(lb, routed)
	}
	lb.close()
	if err != nil {
		return err
	}
	lb, err = r.startLoopback(filepath.Join(r.dir, "replay-sess.wal"))
	if err != nil {
		return err
	}
	routeJournal, err := r.routeNs(lb, routed)
	lb.close()
	if err != nil {
		return err
	}
	r.metrics["mqtt.loopback_rtt_p50_us"] = rtt
	r.metrics["mqtt.route_ns_per_publish"] = route
	r.metrics["mqtt.session_journal_route_delta_us"] = (routeJournal - route) / 1e3
	// The budget charges the route the workload's daemon runs.
	r.perReportNs["ack_route"] = route
	if r.w.persistent {
		r.perReportNs["ack_route"] = routeJournal
	}
	return nil
}

// ingestLayer feeds replayWindows block intervals of reports to a real
// aggregator.Aggregator hosted on a simulation clock, closes each window,
// and hands each window's verified records to the ledger layers.
func (r *replay) ingestLayer() error {
	env := sim.NewEnv(1)
	var total units.Current
	for i := range r.specs {
		total += r.specs[i].current
	}
	maxExpected := 4 * total
	shunt := 0.04096 / (maxExpected.Amps() / 32768 * 60000)
	bus := sensor.NewBus()
	ina := sensor.NewINA219(&sensor.StaticLoad{I: total, V: 5 * units.Volt}, sensor.INA219Config{Seed: 1, ShuntOhms: shunt})
	if err := bus.Attach(sensor.AddrINA219Default, ina); err != nil {
		return err
	}
	meter, err := sensor.NewMeter(bus, sensor.AddrINA219Default, maxExpected, shunt)
	if err != nil {
		return err
	}
	signer, err := blockchain.NewSigner(aggID)
	if err != nil {
		return err
	}
	auth := blockchain.NewAuthority()
	if err := auth.Admit(aggID, signer.Public()); err != nil {
		return err
	}
	pitch := tmeasure / time.Duration(len(r.specs)+1)
	nacks := 0
	agg, err := aggregator.New(aggregator.Config{
		ID: aggID, Env: env, HeadMeter: meter, WallClock: time.Now,
		Mesh: backhaul.NewMesh(env, time.Millisecond), Chain: blockchain.NewChain(auth), Signer: signer,
		// What meterd's sendControl does with an ack before routing it.
		SendToDevice: func(_ string, msg protocol.Message) error {
			if _, nack := msg.(protocol.ReportNack); nack {
				nacks++
			}
			_, err := protocol.Encode(msg)
			return err
		},
		Slots:  tdma.Config{Superframe: tmeasure, SlotLen: pitch * 4 / 5, Guard: pitch / 5},
		Shards: 2,
	})
	if err != nil {
		return err
	}
	defer agg.Stop()
	var windowRecords [][]blockchain.Record
	agg.SetSeal(func(records []blockchain.Record) error {
		windowRecords = append(windowRecords, append([]blockchain.Record(nil), records...))
		return nil
	})
	for i := range r.specs {
		agg.HandleDeviceMessage(r.specs[i].id, protocol.Register{DeviceID: r.specs[i].id})
	}
	if got := len(agg.Members()); got != len(r.specs) {
		return fmt.Errorf("replay aggregator admitted %d of %d devices", got, len(r.specs))
	}

	n := len(r.reports)
	next := make([]int, len(r.specs))
	epoch := time.Date(2020, 4, 29, 0, 0, 0, 0, time.UTC)
	var ingestNs, closeNs, allocs float64
	for win := 0; win < replayWindows; win++ {
		// Fresh sequence numbers each window: the aggregator drops what it
		// has seen.
		for i := range r.reports {
			d := i % len(r.specs)
			fillReport(r.w, &r.specs[d], next[d], epoch.Add(time.Duration(win)*time.Second), r.reports[i].Measurements)
			next[d]++
		}
		feed := func(i int) { agg.HandleDeviceMessage(r.reports[i].DeviceID, r.reports[i]) }
		if win == 0 {
			half := n / 2
			allocs = mallocs(half, feed)
			ingestNs += timeLoop(n-half, func(i int) { feed(half + i) }) / replayWindows
		} else {
			ingestNs += timeLoop(n, feed) / replayWindows
		}
		trace := fmt.Sprintf("window-%d", win)
		root, finish := r.rec.root(trace, "window")
		before := len(windowRecords)
		start := time.Now()
		env.RunUntil(env.Now() + time.Second)
		closeNs += float64(time.Since(start).Nanoseconds()) / replayWindows
		r.rec.add(root, trace, "window_close", start, time.Now())
		if len(windowRecords) != before+1 {
			return fmt.Errorf("replay window %d did not close with records", win)
		}
		if err := r.ledgerWindow(root, trace, windowRecords[before]); err != nil {
			return err
		}
		finish()
	}
	ackNs := timeLoop(n, func(i int) {
		if _, err := protocol.Encode(protocol.ReportAck{DeviceID: r.reports[i].DeviceID, Seq: uint64(i)}); err != nil {
			panic(err)
		}
	})
	r.perReportNs["ingest"] = ingestNs - ackNs
	r.perReportNs["ack_encode"] = ackNs
	r.perWindowNs["window_close"] = closeNs
	r.metrics["aggregator.ingest_ns_per_report"] = ingestNs
	r.metrics["aggregator.ingest_ns_per_record"] = ingestNs / float64(r.w.batch)
	r.metrics["aggregator.ingest_allocs_per_report"] = allocs
	r.metrics["aggregator.window_close_us"] = closeNs / 1e3
	r.metrics["aggregator.nacks"] = float64(nacks)
	return nil
}

// ledger is the state the per-window ledger steps share.
type ledger struct {
	env                        *sim.Env
	cluster                    *consensus.Cluster
	reg                        *telemetry.Registry
	signer                     *blockchain.Signer
	auth                       *blockchain.Authority
	chain                      *blockchain.Chain
	replicas                   []*blockchain.Chain
	decideNs, sealNs, importNs float64
	windows                    int
}

func newLedger() (*ledger, error) {
	l := &ledger{env: sim.NewEnv(1), reg: telemetry.NewRegistry(), auth: blockchain.NewAuthority()}
	var err error
	if l.signer, err = blockchain.NewSigner(aggID); err != nil {
		return nil, err
	}
	if err := l.auth.Admit(aggID, l.signer.Public()); err != nil {
		return nil, err
	}
	l.chain = blockchain.NewChain(l.auth)
	// The consensus and import layers are measured on every workload, at
	// meterd's replicated shape (n=4, f=1), also where the daemon runs one
	// replica: the numbers say what switching replication on would cost.
	l.cluster, err = consensus.NewCluster(l.env, []string{"r0", "r1", "r2", "r3"}, 1, time.Millisecond)
	if err != nil {
		return nil, err
	}
	l.cluster.SetRegistry(l.reg, "consensus", nil)
	for range l.cluster.Replicas {
		l.replicas = append(l.replicas, blockchain.NewChain(l.auth))
	}
	return l, nil
}

// ledgerWindow runs one window's records through agreement, sealing and
// replica import, each under its own span.
func (r *replay) ledgerWindow(root uint64, trace string, records []blockchain.Record) error {
	if r.ledger == nil {
		l, err := newLedger()
		if err != nil {
			return err
		}
		r.ledger = l
	}
	l := r.ledger
	var stepErr error
	step := func(name string, acc *float64, fn func() error) {
		if stepErr != nil {
			return
		}
		start := time.Now()
		stepErr = fn()
		end := time.Now()
		r.rec.add(root, trace, name, start, end)
		*acc += float64(end.Sub(start).Nanoseconds())
	}
	leader := l.cluster.Replicas[l.cluster.Leader(l.cluster.CurrentView())]
	decided := len(leader.DecidedBlocks())
	step("decide", &l.decideNs, func() error {
		if err := leader.Propose(records); err != nil {
			return err
		}
		l.env.RunUntil(l.env.Now() + 20*time.Millisecond)
		if len(leader.DecidedBlocks()) != decided+1 {
			return errors.New("replay proposal did not decide")
		}
		return nil
	})
	var blk *blockchain.Block
	step("seal", &l.sealNs, func() error {
		var err error
		blk, err = l.chain.Seal(l.signer, time.Now(), records)
		return err
	})
	step("import", &l.importNs, func() error {
		for _, c := range l.replicas {
			if err := c.ImportBatch([]*blockchain.Block{blk}); err != nil {
				return err
			}
		}
		return nil
	})
	l.windows++
	return stepErr
}

// ledgerLayers finishes the ledger measurements once every window is
// sealed: signatures, the chain file and verification.
func (r *replay) ledgerLayers() error {
	l := r.ledger
	if l == nil || l.windows == 0 {
		return errors.New("replay sealed no window")
	}
	win := float64(l.windows)
	perWindowRecords := float64(r.records)
	records := perWindowRecords * win
	r.perWindowNs["decide"] = l.decideNs / win
	r.perWindowNs["seal"] = l.sealNs / win
	r.perWindowNs["import"] = l.importNs / win
	decides := l.reg.Counter("consensus.decides").Value()
	r.metrics["consensus.decide_us_per_batch"] = l.decideNs / win / 1e3
	r.metrics["consensus.decide_ns_per_record"] = l.decideNs / records
	if decides > 0 {
		r.metrics["consensus.msgs_per_decide"] = l.reg.Counter("consensus.votes").Value() / decides
	}
	r.metrics["consensus.view_changes"] = l.reg.Counter("consensus.view_changes").Value()
	r.metrics["blockchain.seal_us_per_block"] = l.sealNs / win / 1e3
	r.metrics["blockchain.seal_ns_per_record"] = l.sealNs / records
	r.metrics["blockchain.import_ns_per_record"] = l.importNs / records / float64(len(l.replicas))

	head := l.chain.Head().Hash()
	var sig blockchain.Signature
	var sigErr error
	r.metrics["blockchain.sign_us"] = timeLoop(20, func(int) {
		if sig, sigErr = l.signer.Sign(head); sigErr != nil {
			panic(sigErr)
		}
	}) / 1e3
	r.metrics["blockchain.sig_verify_us"] = timeLoop(20, func(int) {
		if err := l.auth.Verify(aggID, head, sig); err != nil {
			panic(err)
		}
	}) / 1e3

	path := filepath.Join(r.dir, "replay.chain")
	var fileErr error
	var loaded *blockchain.Chain
	root, finish := r.rec.root("chain-file", "chain_file")
	r.rec.timed(root, "chain-file", "writefile", func() { fileErr = l.chain.WriteFile(path) })
	if fileErr != nil {
		return fileErr
	}
	writeNs := r.lastSpanNs()
	r.rec.timed(root, "chain-file", "readfile", func() { loaded, fileErr = blockchain.ReadFile(path, nil) })
	if fileErr != nil {
		return fileErr
	}
	readNs := r.lastSpanNs()
	r.rec.timed(root, "chain-file", "verify", func() { _, fileErr = loaded.Verify() })
	if fileErr != nil {
		return fileErr
	}
	verifyNs := r.lastSpanNs()
	finish()
	r.metrics["blockchain.writefile_ns_per_record"] = writeNs / records
	r.metrics["blockchain.readfile_ns_per_record"] = readNs / records
	r.metrics["blockchain.verify_ns_per_record"] = verifyNs / records
	return nil
}

func (r *replay) lastSpanNs() float64 {
	s := r.rec.spans[len(r.rec.spans)-1]
	return float64(s.EndNs - s.StartNs)
}

// walEntry has the shape of the broker's session journal entries.
type walEntry struct {
	Op      string `json:"op"`
	Client  string `json:"c"`
	ID      uint16 `json:"id,omitempty"`
	Topic   string `json:"t,omitempty"`
	Payload []byte `json:"p,omitempty"`
}

// storeLayer measures the durability primitive under the session journal
// and the device-side store-and-forward queue.
func (r *replay) storeLayer() error {
	path := filepath.Join(r.dir, "replay.wal")
	wal, err := store.OpenWAL[walEntry](path)
	if err != nil {
		return err
	}
	const batches, perBatch = 200, 64
	batch := make([]walEntry, perBatch)
	for i := range batch {
		batch[i] = walEntry{Op: "inflight", Client: "loadgen-0", ID: uint16(i + 1),
			Topic: r.specs[i%len(r.specs)].controlTopic, Payload: r.payloads[0][:min(len(r.payloads[0]), 48)]}
	}
	var walErr error
	perBatchNs := timeLoop(batches, func(int) {
		if err := wal.AppendBatch(batch); err != nil {
			walErr = err
		}
	})
	if walErr != nil {
		return walErr
	}
	start := time.Now()
	if err := wal.Checkpoint(batch); err != nil {
		return err
	}
	checkpoint := time.Since(start)
	if err := wal.AppendBatch(batch); err != nil {
		return err
	}
	if err := wal.Close(); err != nil {
		return err
	}
	start = time.Now()
	got, err := store.RecoverWAL[walEntry](path)
	if err != nil {
		return err
	}
	recoverT := time.Since(start)
	if len(got) != 2*perBatch {
		return fmt.Errorf("wal recovered %d of %d entries", len(got), 2*perBatch)
	}
	q, err := store.NewQueue[protocol.Measurement](4096, store.DropOldest)
	if err != nil {
		return err
	}
	ms := r.reports[0].Measurements
	r.metrics["store.queue_push_ns"] = timeLoop(200000, func(i int) {
		_ = q.Push(ms[i%len(ms)]) // drop-oldest never refuses
		if i%64 == 63 {
			q.Drain(64)
		}
	})
	r.metrics["store.wal_append_us_per_batch"] = perBatchNs / 1e3
	r.metrics["store.wal_append_ns_per_entry"] = perBatchNs / perBatch
	r.metrics["store.wal_checkpoint_ms"] = float64(checkpoint.Nanoseconds()) / 1e6
	r.metrics["store.wal_recover_ms"] = float64(recoverT.Nanoseconds()) / 1e6
	return nil
}

// simLayer measures the event kernel under the fleet scenario.
func (r *replay) simLayer() error {
	const events = 500000
	env := sim.NewEnv(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < events {
			env.Schedule(time.Millisecond, tick)
		}
	}
	start := time.Now()
	env.Schedule(time.Millisecond, tick)
	env.Run()
	r.metrics["sim.event_ns"] = float64(time.Since(start).Nanoseconds()) / events
	return nil
}

// sampledSpans replays one report in traceEvery through the per-report
// layers again, this time one span per call under a root span per report.
// The timed loops above give the budget rows; these give the trace file the
// same layers with parent links.
func (r *replay) sampledSpans() {
	var rd bytes.Reader
	var buf []byte
	for i := 0; i < len(r.reports); i += traceEvery {
		rep := r.reports[i]
		trace := fmt.Sprintf("%s#%d", rep.DeviceID, rep.Measurements[0].Seq)
		root, finish := r.rec.root(trace, "report")
		var payload, frame []byte
		r.rec.timed(root, trace, "device_encode", func() {
			buf, _ = protocol.AppendEncode(buf[:0], rep) // encoded once above
			payload = buf
		})
		r.rec.timed(root, trace, "mqtt_codec", func() {
			frame, _ = mqtt.Encode(&mqtt.PublishPacket{Topic: r.specs[i%len(r.specs)].reportTopic, Payload: payload, QoS: mqtt.QoS1, PacketID: 1})
			rd.Reset(frame)
			_, _ = mqtt.ReadPacket(&rd) // decoded once above
		})
		r.rec.timed(root, trace, "decode", func() { _, _ = protocol.Decode(payload) })
		finish()
	}
}

// budgetRow is one line of the budget table, microseconds per report.
type budgetRow struct {
	Layer string  `json:"layer"`
	Us    float64 `json:"us_per_report"`
}

// budget returns the daemon-side rows in pipeline order. Per-window layers
// are spread over the reports of a window; consensus and import count only
// where the workload's daemon replicates.
func (r *replay) budget() []budgetRow {
	reports := float64(len(r.reports))
	rows := []budgetRow{}
	for _, name := range []string{"mqtt_codec", "decode", "ingest", "ack_encode", "ack_route"} {
		rows = append(rows, budgetRow{name, r.perReportNs[name] / 1e3})
	}
	names := []string{"window_close", "seal"}
	if r.w.replicas > 1 {
		names = []string{"window_close", "decide", "seal", "import"}
	}
	for _, name := range names {
		rows = append(rows, budgetRow{name, r.perWindowNs[name] / reports / 1e3})
	}
	return rows
}
