package mqtt

import (
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decentmeter/internal/store"
	"decentmeter/internal/telemetry"
)

// syncBuffer is a mutex-guarded byte buffer usable as a log sink from
// broker goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	return len(p), nil
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.buf)
}

func newTestLogger(w *syncBuffer) *log.Logger { return log.New(w, "", 0) }

func containsLine(haystack, needle string) bool { return strings.Contains(haystack, needle) }

// rawSession is a packet-level MQTT client for durability tests: unlike
// Client it never acknowledges anything on its own, so tests control exactly
// which messages stay inflight across a broker restart.
type rawSession struct {
	t    *testing.T
	conn net.Conn
}

// rawConnect dials addr and performs a CONNECT handshake with
// CleanSession=false, returning the CONNACK session-present flag.
func rawConnect(t *testing.T, addr, id string, clean bool) (*rawSession, bool) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	r := &rawSession{t: t, conn: conn}
	t.Cleanup(func() { conn.Close() })
	r.send(&ConnectPacket{ClientID: id, CleanSession: clean})
	ack, ok := r.read(5 * time.Second).(*ConnackPacket)
	if !ok {
		t.Fatalf("client %s: handshake did not return a CONNACK", id)
	}
	if ack.ReturnCode != ConnAccepted {
		t.Fatalf("client %s refused: code %d", id, ack.ReturnCode)
	}
	return r, ack.SessionPresent
}

func (r *rawSession) send(p Packet) {
	r.t.Helper()
	if err := writePacket(r.conn, p); err != nil {
		r.t.Fatalf("write %v: %v", p.Type(), err)
	}
}

// read returns the next packet, failing the test on error or timeout.
func (r *rawSession) read(timeout time.Duration) Packet {
	r.t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(timeout))
	p, err := ReadPacket(r.conn)
	if err != nil {
		r.t.Fatalf("read packet: %v", err)
	}
	return p
}

// readNone asserts that nothing arrives within the window.
func (r *rawSession) readNone(window time.Duration) {
	r.t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(window))
	p, err := ReadPacket(r.conn)
	if err == nil {
		r.t.Fatalf("unexpected %v while expecting silence", p.Type())
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		r.t.Fatalf("expected read timeout, got: %v", err)
	}
}

// subscribe issues one SUBSCRIBE and consumes the SUBACK.
func (r *rawSession) subscribe(filter string, q QoS) {
	r.t.Helper()
	r.send(&SubscribePacket{PacketID: 1, Subscriptions: []Subscription{{Filter: filter, QoS: q}}})
	if _, ok := r.read(5 * time.Second).(*SubackPacket); !ok {
		r.t.Fatalf("subscribe %s: no SUBACK", filter)
	}
}

// startSessionBroker runs a broker against path on an ephemeral port.
func startSessionBroker(t *testing.T, path string, opts BrokerOptions) (*Broker, string) {
	t.Helper()
	opts.SessionPath = path
	return startBroker(t, opts)
}

// TestBrokerRestartResumesSession is the pinning e2e for durable sessions:
// without the session journal a restarted broker answers SessionPresent=false
// and the unacked QoS 1 publish is gone; with it the session resumes and the
// message is redelivered with DUP until acknowledged — then never again.
func TestBrokerRestartResumesSession(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.wal")

	b1, addr1 := startSessionBroker(t, path, BrokerOptions{})
	sub, present := rawConnect(t, addr1, "meter-7", false)
	if present {
		t.Fatal("fresh session reported SessionPresent=true")
	}
	sub.subscribe("meters/agg1/d7/report", QoS1)

	pub := dialClient(t, addr1, "pub", ClientOptions{})
	if err := pub.Publish("meters/agg1/d7/report", []byte("kwh=82.5"), QoS1, false); err != nil {
		t.Fatal(err)
	}
	// The subscriber receives the publish but never acknowledges it.
	first, ok := sub.read(5 * time.Second).(*PublishPacket)
	if !ok {
		t.Fatal("no PUBLISH before restart")
	}
	if first.Dup {
		t.Fatal("first delivery already flagged DUP")
	}
	sub.conn.Close()
	if err := b1.Close(); err != nil {
		t.Fatalf("broker close: %v", err)
	}

	// Restart against the same journal.
	_, addr2 := startSessionBroker(t, path, BrokerOptions{})
	sub2, present := rawConnect(t, addr2, "meter-7", false)
	if !present {
		t.Fatal("restarted broker did not resume the session (SessionPresent=false)")
	}
	re, ok := sub2.read(5 * time.Second).(*PublishPacket)
	if !ok {
		t.Fatal("no redelivery after restart")
	}
	if !re.Dup {
		t.Fatal("redelivered publish not flagged DUP")
	}
	if re.Topic != first.Topic || string(re.Payload) != string(first.Payload) || re.PacketID != first.PacketID {
		t.Fatalf("redelivered %s id=%d %q, want %s id=%d %q",
			re.Topic, re.PacketID, re.Payload, first.Topic, first.PacketID, first.Payload)
	}
	sub2.send(NewPuback(re.PacketID))
	// The subscription itself survived too: a fresh publish still arrives.
	pub2 := dialClient(t, addr2, "pub", ClientOptions{})
	if err := pub2.Publish("meters/agg1/d7/report", []byte("kwh=83.0"), QoS1, false); err != nil {
		t.Fatal(err)
	}
	next, ok := sub2.read(5 * time.Second).(*PublishPacket)
	if !ok || string(next.Payload) != "kwh=83.0" {
		t.Fatalf("resumed subscription missed fresh publish: %v", next)
	}
	sub2.send(NewPuback(next.PacketID))
	sub2.conn.Close()
}

// TestBrokerRestartDoesNotRedeliverAcked pins the other half of exactly-once
// bookkeeping: a PUBACK must reach the journal, so a second restart does not
// resurrect the already-acknowledged message.
func TestBrokerRestartDoesNotRedeliverAcked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.wal")

	b1, addr1 := startSessionBroker(t, path, BrokerOptions{})
	sub, _ := rawConnect(t, addr1, "meter-3", false)
	sub.subscribe("t", QoS1)
	pub := dialClient(t, addr1, "pub", ClientOptions{})
	if err := pub.Publish("t", []byte("x"), QoS1, false); err != nil {
		t.Fatal(err)
	}
	p, ok := sub.read(5 * time.Second).(*PublishPacket)
	if !ok {
		t.Fatal("no PUBLISH")
	}
	sub.send(NewPuback(p.PacketID))
	// Let the ack reach the broker before tearing the connection down.
	time.Sleep(20 * time.Millisecond)
	sub.conn.Close()
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}

	_, addr2 := startSessionBroker(t, path, BrokerOptions{})
	sub2, present := rawConnect(t, addr2, "meter-3", false)
	if !present {
		t.Fatal("session not resumed")
	}
	sub2.readNone(150 * time.Millisecond)
}

// TestBrokerRestartKeepsQoS2Dedupe pins inbound exactly-once across a
// restart: a QoS 2 publish that reached PUBREC but not PUBREL before the
// crash must not be routed a second time when the publisher retries it.
func TestBrokerRestartKeepsQoS2Dedupe(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.wal")
	var routed1 atomic.Int64
	b1, addr1 := startSessionBroker(t, path, BrokerOptions{
		OnPublish: func(string, []byte) { routed1.Add(1) },
	})
	pub, _ := rawConnect(t, addr1, "meter-q2", false)
	pub.send(&PublishPacket{Topic: "t", Payload: []byte("x"), QoS: QoS2, PacketID: 7})
	if _, ok := pub.read(5 * time.Second).(*PubrecPacket); !ok {
		t.Fatal("no PUBREC")
	}
	waitFor(t, "first routing", func() bool { return routed1.Load() == 1 })
	// Crash before PUBREL: the id stays in the dedupe set.
	pub.conn.Close()
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}

	var routed2 atomic.Int64
	_, addr2 := startSessionBroker(t, path, BrokerOptions{
		OnPublish: func(string, []byte) { routed2.Add(1) },
	})
	pub2, present := rawConnect(t, addr2, "meter-q2", false)
	if !present {
		t.Fatal("publisher session not resumed")
	}
	// Spec-mandated retry of the unreleased publish: must ack, not re-route.
	pub2.send(&PublishPacket{Topic: "t", Payload: []byte("x"), QoS: QoS2, PacketID: 7, Dup: true})
	if _, ok := pub2.read(5 * time.Second).(*PubrecPacket); !ok {
		t.Fatal("no PUBREC on retry")
	}
	time.Sleep(50 * time.Millisecond)
	if n := routed2.Load(); n != 0 {
		t.Fatalf("deduped QoS2 id re-routed %d time(s) after restart", n)
	}
	// Completing the flow releases the id for reuse.
	pub2.send(NewPubrel(7))
	if _, ok := pub2.read(5 * time.Second).(*PubcompPacket); !ok {
		t.Fatal("no PUBCOMP")
	}
	pub2.send(&PublishPacket{Topic: "t", Payload: []byte("y"), QoS: QoS2, PacketID: 7})
	if _, ok := pub2.read(5 * time.Second).(*PubrecPacket); !ok {
		t.Fatal("no PUBREC for reused id")
	}
	waitFor(t, "reused id routed", func() bool { return routed2.Load() == 1 })
}

// TestCleanSessionWipesDurableState pins the opClean path: a CleanSession
// CONNECT erases the journalled state, so even after a restart the broker
// reports no session and redelivers nothing.
func TestCleanSessionWipesDurableState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.wal")
	b1, addr1 := startSessionBroker(t, path, BrokerOptions{})
	sub, _ := rawConnect(t, addr1, "meter-c", false)
	sub.subscribe("t", QoS1)
	pub := dialClient(t, addr1, "pub", ClientOptions{})
	if err := pub.Publish("t", []byte("x"), QoS1, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := sub.read(5 * time.Second).(*PublishPacket); !ok {
		t.Fatal("no PUBLISH")
	}
	sub.conn.Close() // leave the message inflight

	// A CleanSession reconnect wipes it all.
	cleaner, present := rawConnect(t, addr1, "meter-c", true)
	if present {
		t.Fatal("CleanSession connect reported SessionPresent=true")
	}
	cleaner.conn.Close()
	time.Sleep(20 * time.Millisecond)
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}

	_, addr2 := startSessionBroker(t, path, BrokerOptions{})
	sub2, present := rawConnect(t, addr2, "meter-c", false)
	if present {
		t.Fatal("wiped session resumed after restart")
	}
	sub2.readNone(150 * time.Millisecond)
}

// TestSessionJournalCheckpointBounds drives enough traffic through a small
// checkpoint budget to force compactions, then asserts the journal on disk
// is a bounded snapshot, not the full history.
func TestSessionJournalCheckpointBounds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.wal")
	reg := telemetry.NewRegistry()
	b, addr := startSessionBroker(t, path, BrokerOptions{
		Registry:               reg,
		SessionCheckpointEvery: 16,
	})
	checkpoints := reg.Counter("mqtt.wal_checkpoints")

	sub, _ := rawConnect(t, addr, "meter-ckpt", false)
	sub.subscribe("t", QoS1)
	pub := dialClient(t, addr, "pub", ClientOptions{})
	const total = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Drain and ack every delivery so the inflight set stays small.
		for i := 0; i < total; i++ {
			p, ok := sub.read(5 * time.Second).(*PublishPacket)
			if !ok {
				return
			}
			sub.send(NewPuback(p.PacketID))
		}
	}()
	for i := 0; i < total; i++ {
		if err := pub.Publish("t", []byte{byte(i)}, QoS1, false); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	// The subscriber has written its PUBACKs, but the broker may not have
	// read them all yet; Close would drop the connection with the rest in
	// the socket buffer and the final snapshot would rightly carry them as
	// inflight rows. Wait for the session's outbound set to drain first.
	waitFor(t, "every PUBACK processed", func() bool {
		b.mu.Lock()
		s := b.sessions["meter-ckpt"]
		b.mu.Unlock()
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.outbound) == 0
	})
	waitFor(t, "a checkpoint", func() bool { return checkpoints.Value() >= 1 })
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// 200 deliveries wrote >= 400 delta entries; the compacted journal must
	// hold just the final snapshot (the session, its subscription, and at
	// most a handful of still-inflight rows).
	entries, err := store.RecoverWAL[sessionLogEntry](path)
	if err != nil {
		t.Fatalf("recover journal: %v", err)
	}
	if len(entries) > 40 {
		t.Fatalf("journal not compacted: %d entries on disk", len(entries))
	}
}

// TestSessionTakeoverRacingRedelivery (run under -race) pins the takeover
// guard: while one resumed connection is draining a large redelivery
// backlog, a second CONNECT for the same client ID boots it. The successor
// must end up with every inflight message exactly once on its own
// connection — the superseded drain may die mid-flight but must not leak
// duplicates onto the new socket — and nothing may deadlock.
func TestSessionTakeoverRacingRedelivery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.wal")
	_, addr := startSessionBroker(t, path, BrokerOptions{})

	// Seed a durable session with a deep unacked backlog.
	const backlog = 120
	sub, _ := rawConnect(t, addr, "meter-race", false)
	sub.subscribe("t", QoS1)
	pub := dialClient(t, addr, "pub", ClientOptions{})
	for i := 0; i < backlog; i++ {
		if err := pub.Publish("t", []byte{byte(i)}, QoS1, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < backlog; i++ {
		if _, ok := sub.read(5 * time.Second).(*PublishPacket); !ok {
			t.Fatal("seed delivery missing")
		}
	}
	sub.conn.Close()

	// First resume starts its redelivery drain; the takeover lands mid-drain.
	var wg sync.WaitGroup
	wg.Add(1)
	first, _ := rawConnect(t, addr, "meter-race", false)
	go func() {
		defer wg.Done()
		// Read until the takeover kills the connection; ack nothing so every
		// id stays inflight for the successor.
		first.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		for {
			if _, err := ReadPacket(first.conn); err != nil {
				return
			}
		}
	}()
	second, present := rawConnect(t, addr, "meter-race", false)
	if !present {
		t.Fatal("takeover did not resume the session")
	}
	got := make(map[uint16]int)
	for len(got) < backlog {
		p, ok := second.read(10 * time.Second).(*PublishPacket)
		if !ok {
			t.Fatal("successor drain interrupted")
		}
		got[p.PacketID]++
		if got[p.PacketID] > 1 {
			t.Fatalf("packet id %d delivered %d times to the successor", p.PacketID, got[p.PacketID])
		}
		second.send(NewPuback(p.PacketID))
	}
	wg.Wait() // the booted connection must have died, not deadlocked
}

// TestBrokerCloseLogsAbandonedInflight pins the Broker.Close satellite: a
// graceful shutdown with unacked durable state must flush the journal and
// say how much was left hanging.
func TestBrokerCloseLogsAbandonedInflight(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.wal")
	var buf syncBuffer
	logger := newTestLogger(&buf)
	b, addr := startSessionBroker(t, path, BrokerOptions{Logger: logger})
	sub, _ := rawConnect(t, addr, "meter-close", false)
	sub.subscribe("t", QoS1)
	pub := dialClient(t, addr, "pub", ClientOptions{})
	if err := pub.Publish("t", []byte("x"), QoS1, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := sub.read(5 * time.Second).(*PublishPacket); !ok {
		t.Fatal("no PUBLISH")
	}
	// Close with the message unacked.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if want := "1 durable session(s) flushed, 1 message(s) still unacknowledged"; !containsLine(out, want) {
		t.Fatalf("close log missing inflight accounting; got:\n%s", out)
	}
	// And the flushed journal really holds the message.
	entries, err := store.RecoverWAL[sessionLogEntry](path)
	if err != nil {
		t.Fatal(err)
	}
	var outRows int
	for _, e := range entries {
		if e.Op == opOut {
			outRows++
		}
	}
	if outRows != 1 {
		t.Fatalf("flushed journal holds %d inflight rows, want 1", outRows)
	}
}

// TestOpenSessionStoreRejectsCorruptJournal pins NewBroker's loud failure:
// interior journal corruption must surface as a construction error instead
// of silently dropping resumed sessions.
func TestOpenSessionStoreRejectsCorruptJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.wal")
	body := `{"op":"connect","c":"a"}` + "\n" + "garbage{{{" + "\n" + `{"op":"connect","c":"b"}` + "\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewBroker(BrokerOptions{SessionPath: path}); err == nil {
		t.Fatal("corrupt session journal accepted")
	}
}

// TestReplaySessionLogIdempotent pins the property the whole journal design
// rests on: replaying a delta whose effect is already folded in (as happens
// when a compaction snapshot races the delta buffer) changes nothing, and
// stale deletions never resurrect a cleaned session.
func TestReplaySessionLogIdempotent(t *testing.T) {
	base := []sessionLogEntry{
		{Op: opConnect, Client: "m"},
		{Op: opSub, Client: "m", Filter: "t", Q: 1},
		{Op: opOut, Client: "m", ID: 3, Topic: "t", Payload: []byte("x"), Q: 1},
		{Op: opQ2, Client: "m", ID: 9},
	}
	// The same deltas again, as a racing snapshot would duplicate them.
	doubled := append(append([]sessionLogEntry{}, base...), base...)
	a, b := replaySessionLog(base), replaySessionLog(doubled)
	sa, sb := a["m"], b["m"]
	if sa == nil || sb == nil {
		t.Fatal("session lost in replay")
	}
	if fmt.Sprint(sa.subs) != fmt.Sprint(sb.subs) ||
		len(sa.outbound) != len(sb.outbound) || len(sa.q2) != len(sb.q2) {
		t.Fatal("duplicated deltas changed the replayed state")
	}
	// A stale deletion after opClean must not recreate the session.
	wiped := replaySessionLog([]sessionLogEntry{
		{Op: opConnect, Client: "m"},
		{Op: opClean, Client: "m"},
		{Op: opAck, Client: "m", ID: 3},
		{Op: opUnsub, Client: "m", Filter: "t"},
	})
	if _, ok := wiped["m"]; ok {
		t.Fatal("stale deletion resurrected a cleaned session")
	}
}
