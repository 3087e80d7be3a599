package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"decentmeter/internal/mqtt"
	"decentmeter/internal/protocol"
)

// helpersPerConn is the number of goroutines per connection that may sit
// parked on a PUBACK; they encode and publish, nothing else.
const helpersPerConn = 16

// traceEvery is the generator's span sampling rate on a traced pass, the
// same one-in-N meterd is given with -trace-every.
const traceEvery = 64

// drainTimeout bounds the wait for acks still outstanding when the
// schedule ends; a report unanswered after it counts as failed.
const drainTimeout = 5 * time.Second

// pendingReport is a sent report waiting for its ReportAck.
type pendingReport struct {
	ackSeq uint64
	due    time.Time
	trace  *reportTrace
}

// reportTrace holds the timestamps of one sampled report; the generator's
// spans are built from these after the run.
type reportTrace struct {
	device           string
	due, sent, acked time.Time // acked is set by the reader goroutine
	// pubackedAfter is the time from sent to the PUBACK, in nanoseconds;
	// the helper stores it while the reader may already hold the ack.
	pubackedAfter atomic.Int64
}

// device is the run-time state of one logical device. It belongs to one
// connection: that connection's helpers send for it and its reader
// goroutine receives for it.
type device struct {
	spec *deviceSpec
	slot int // closed loop: the in-flight slot that owns the device

	// sendMu orders the device's publishes: a report is on the wire before
	// the next one is encoded, so a stalled helper cannot reorder two
	// reports and make the daemon discard the older as a duplicate.
	sendMu sync.Mutex
	next   int // next report number; guarded by sendMu

	mu         sync.Mutex
	registered bool
	pending    []pendingReport
	ackedSeq   uint64 // highest sequence number acknowledged
	sentSeq    uint64 // highest sequence number published
}

type job struct {
	dev *device
	due time.Time
}

// readyEvent returns a closed-loop slot to the scheduler.
type readyEvent struct {
	slot int
	at   time.Time
}

// genConn is one MQTT connection with the logical devices it carries.
type genConn struct {
	g       *generator
	client  *mqtt.Client
	devs    []*device
	byTopic map[string]*device
	jobs    chan job
	ready   chan readyEvent
	slots   [][]*device // closed loop: devices per slot
	slotPos []int

	// recvMu guards what the reader goroutine records; the run reads it
	// once the traffic has ended.
	recvMu  sync.Mutex
	samples []sample
	nacks   int

	// Written by helpers under lateMu, read after the run.
	lateMu  sync.Mutex
	lateNs  []float64
	traces  []*reportTrace
	sendErr int
}

// generator drives one workload against one daemon.
type generator struct {
	w      workload
	traced bool
	conns  []*genConn
	devs   []*device

	unregistered atomic.Int64
	registeredCh chan struct{}

	// The measured interval, in nanoseconds since epoch. Helpers and reader
	// goroutines are running before the interval is known.
	epoch      time.Time
	startNs    atomic.Int64
	endNs      atomic.Int64
	sampleTick atomic.Uint64
}

// measured reports whether a report due at t is inside the measured
// interval, and how far into it.
func (g *generator) measured(t time.Time) (sinceStart int64, ok bool) {
	ns := int64(t.Sub(g.epoch))
	start := g.startNs.Load()
	return ns - start, ns >= start && ns < g.endNs.Load()
}

// newGenerator connects at most GOMAXPROCS clients and spreads the devices
// over them in schedule order, so every connection carries an even share of
// every part of the period.
func newGenerator(w workload, specs []deviceSpec, addr string, traced bool) (*generator, error) {
	g := &generator{w: w, traced: traced, registeredCh: make(chan struct{}), epoch: time.Now()}
	g.endNs.Store(-1)
	nconn := runtime.GOMAXPROCS(0)
	if w.inflight > 0 && nconn > w.inflight {
		nconn = w.inflight
	}
	slotsPerConn := w.inflight / nconn
	for i := 0; i < nconn; i++ {
		c := &genConn{g: g, byTopic: map[string]*device{}}
		if slotsPerConn > 0 {
			c.slots = make([][]*device, slotsPerConn)
			c.slotPos = make([]int, slotsPerConn)
			c.ready = make(chan readyEvent, slotsPerConn)
		}
		g.conns = append(g.conns, c)
	}
	for i := range specs {
		c := g.conns[i%nconn]
		d := &device{spec: &specs[i]}
		if slotsPerConn > 0 {
			d.slot = len(c.devs) % slotsPerConn
			c.slots[d.slot] = append(c.slots[d.slot], d)
		}
		c.devs = append(c.devs, d)
		c.byTopic[d.spec.controlTopic] = d
		g.devs = append(g.devs, d)
	}
	// Dial last: a client's reader goroutine reads the tables built above.
	for i, c := range g.conns {
		client, err := mqtt.Dial(addr, mqtt.ClientOptions{
			ClientID:     fmt.Sprintf("loadgen-%d", i),
			CleanSession: !w.persistent,
			KeepAlive:    30 * time.Second,
			OnMessage:    c.onControl,
		})
		if err != nil {
			g.close()
			return nil, err
		}
		c.client = client
	}
	g.unregistered.Store(int64(len(g.devs)))
	return g, nil
}

func (g *generator) close() {
	for _, c := range g.conns {
		if c.client != nil {
			c.client.Close()
		}
	}
}

// register subscribes every device to its control topic and registers it,
// as cmd/devicesim does, and returns once every RegisterAck has arrived.
func (g *generator) register(timeout time.Duration) error {
	errs := make(chan error, len(g.conns)*helpersPerConn)
	var wg sync.WaitGroup
	for _, c := range g.conns {
		work := make(chan *device, len(c.devs))
		for _, d := range c.devs {
			work <- d
		}
		close(work)
		for h := 0; h < helpersPerConn; h++ {
			wg.Add(1)
			go func(c *genConn) {
				defer wg.Done()
				for d := range work {
					if _, err := c.client.Subscribe(mqtt.Subscription{Filter: d.spec.controlTopic, QoS: mqtt.QoS1}); err != nil {
						errs <- fmt.Errorf("subscribe %s: %w", d.spec.id, err)
						return
					}
					payload, err := protocol.Encode(protocol.Register{DeviceID: d.spec.id})
					if err == nil {
						err = c.client.Publish(protocol.RegisterTopic(aggID), payload, mqtt.QoS1, false)
					}
					if err != nil {
						errs <- fmt.Errorf("register %s: %w", d.spec.id, err)
						return
					}
				}
			}(c)
		}
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	select {
	case <-g.registeredCh:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("%d devices still unregistered after %v", g.unregistered.Load(), timeout)
	}
}

// onControl handles a message on a device's control topic. It runs on the
// connection's reader goroutine and must not block.
func (c *genConn) onControl(topic string, payload []byte) {
	now := time.Now()
	d := c.byTopic[topic]
	if d == nil {
		return
	}
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	msg, err := protocol.Decode(payload)
	if err != nil {
		return
	}
	switch m := msg.(type) {
	case protocol.RegisterAck:
		d.mu.Lock()
		first := !d.registered
		d.registered = true
		d.mu.Unlock()
		if first && c.g.unregistered.Add(-1) == 0 {
			close(c.g.registeredCh)
		}
	case protocol.ReportAck:
		c.settle(d, m.Seq, now, false)
	case protocol.ReportNack:
		c.nacks++
		c.settle(d, m.Seq, now, true)
	}
}

// settle resolves every pending report the acknowledgement covers: a
// ReportAck for sequence number n acknowledges everything up to n.
func (c *genConn) settle(d *device, seq uint64, now time.Time, nack bool) {
	g := c.g
	d.mu.Lock()
	n := 0
	for n < len(d.pending) && d.pending[n].ackSeq <= seq {
		p := d.pending[n]
		n++
		if nack {
			continue
		}
		if since, ok := g.measured(p.due); ok {
			c.samples = append(c.samples, sample{dueNs: since, latNs: int64(now.Sub(p.due))})
		}
		if p.trace != nil {
			p.trace.acked = now
		}
	}
	d.pending = d.pending[:copy(d.pending, d.pending[n:])]
	if !nack && seq > d.ackedSeq && seq <= d.sentSeq {
		d.ackedSeq = seq
	}
	d.mu.Unlock()
	if n > 0 {
		c.release(d.slot, now)
	}
}

// release hands a closed-loop slot back to the scheduler. The channel holds
// one event per slot; an event that does not fit belongs to a slot that was
// already released (a publish that failed and was answered all the same).
func (c *genConn) release(slot int, at time.Time) {
	if c.ready == nil {
		return
	}
	select {
	case c.ready <- readyEvent{slot: slot, at: at}:
	default:
	}
}

// helper publishes the reports it is handed until the job channel closes.
func (c *genConn) helper(wg *sync.WaitGroup) {
	defer wg.Done()
	g := c.g
	ms := make([]protocol.Measurement, g.w.batch)
	var buf []byte
	var late []float64
	var traces []*reportTrace
	sendErr := 0
	for j := range c.jobs {
		d := j.dev
		d.sendMu.Lock()
		ackSeq := fillReport(g.w, d.spec, d.next, j.due, ms)
		d.next++
		payload, err := protocol.AppendEncode(buf[:0], protocol.Report{DeviceID: d.spec.id, Measurements: ms})
		if err != nil {
			panic(err) // the generator built the report; it always encodes
		}
		buf = payload
		p := pendingReport{ackSeq: ackSeq, due: j.due}
		if g.traced && g.sampleTick.Add(1)%traceEvery == 0 {
			p.trace = &reportTrace{device: d.spec.id, due: j.due}
			traces = append(traces, p.trace)
		}
		d.mu.Lock()
		d.pending = append(d.pending, p)
		d.sentSeq = ackSeq
		d.mu.Unlock()
		sentAt := time.Now()
		if p.trace != nil {
			p.trace.sent = sentAt
		}
		err = c.client.Publish(d.spec.reportTopic, payload, mqtt.QoS1, false)
		if p.trace != nil {
			p.trace.pubackedAfter.Store(int64(time.Since(sentAt)))
		}
		d.sendMu.Unlock()
		if _, ok := g.measured(j.due); ok {
			late = append(late, float64(sentAt.Sub(j.due)))
		}
		if err != nil {
			sendErr++
			if !errors.Is(err, mqtt.ErrClientClosed) {
				c.release(d.slot, time.Now())
			}
		}
	}
	c.lateMu.Lock()
	c.lateNs = append(c.lateNs, late...)
	c.traces = append(c.traces, traces...)
	c.sendErr += sendErr
	c.lateMu.Unlock()
}

// openLoop visits the connection's devices in phase order once per period
// and hands each report to a helper when it is due, never before. A report
// the schedule could not hand over in time keeps its due time, so the delay
// shows in its latency and in the generator's lateness.
func (c *genConn) openLoop(origin, end time.Time) {
	period := c.g.w.period
	for round := 0; ; round++ {
		base := origin.Add(time.Duration(round) * period)
		for _, d := range c.devs {
			due := base.Add(d.spec.phase)
			if !due.Before(end) {
				return
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			c.jobs <- job{dev: d, due: due}
		}
	}
}

// closedLoop keeps every slot of the connection busy: a slot's next report
// is due the moment the previous one was acknowledged.
func (c *genConn) closedLoop(origin, end time.Time) {
	time.Sleep(time.Until(origin))
	for slot := range c.slots {
		c.ready <- readyEvent{slot: slot, at: origin}
	}
	timeout := time.NewTimer(time.Until(end))
	defer timeout.Stop()
	for {
		select {
		case ev := <-c.ready:
			if !ev.at.Before(end) {
				return
			}
			devs := c.slots[ev.slot]
			d := devs[c.slotPos[ev.slot]%len(devs)]
			c.slotPos[ev.slot]++
			c.jobs <- job{dev: d, due: ev.at}
		case <-timeout.C:
			return
		}
	}
}

// run offers the workload's traffic from origin until end and waits for the
// outstanding acknowledgements. Reports due in [measureStart, end) are
// timed; earlier ones are warm-up, sent and audited but not timed.
func (g *generator) run(origin, measureStart, end time.Time) {
	g.startNs.Store(int64(measureStart.Sub(g.epoch)))
	g.endNs.Store(int64(end.Sub(g.epoch)))
	var helpers, scheds sync.WaitGroup
	for _, c := range g.conns {
		// A schedule goroutine must never wait on a helper: the queue holds
		// one report for every device of the connection.
		c.jobs = make(chan job, len(c.devs))
		for h := 0; h < helpersPerConn; h++ {
			helpers.Add(1)
			go c.helper(&helpers)
		}
		scheds.Add(1)
		go func(c *genConn) {
			defer scheds.Done()
			if g.w.inflight > 0 {
				c.closedLoop(origin, end)
			} else {
				c.openLoop(origin, end)
			}
			close(c.jobs)
		}(c)
	}
	scheds.Wait()
	helpers.Wait()
	deadline := time.Now().Add(drainTimeout)
	for g.outstanding() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
}

func (g *generator) outstanding() int {
	n := 0
	for _, d := range g.devs {
		d.mu.Lock()
		n += len(d.pending)
		d.mu.Unlock()
	}
	return n
}
