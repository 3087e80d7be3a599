package mqtt

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"decentmeter/internal/telemetry"
)

// Broker is an MQTT 3.1.1 server. It supports QoS 0/1/2 routing, retained
// messages, last-will publication, session takeover, keepalive enforcement
// and optional username/password authentication. One Broker instance backs
// each aggregator in cmd/meterd.
type Broker struct {
	opts BrokerOptions

	mu       sync.Mutex
	sessions map[string]*session
	// subs indexes every session's filters for O(levels + matches)
	// publish fan-out; kept in lockstep with each session's subs map.
	subs     *subTrie
	retained map[string]*PublishPacket
	closed   bool
	ln       net.Listener
	wg       sync.WaitGroup

	// store journals durable session state when SessionPath is set; nil
	// otherwise (sessions die with the process, as before).
	store *sessionStore

	// instruments, resolved once in NewBroker when a Registry is given;
	// all nil otherwise so the fan-out stays allocation- and branch-cheap.
	mPublishes   *telemetry.Counter
	mFanout      *telemetry.Counter
	mSessions    *telemetry.Gauge
	mRetransmits *telemetry.Counter
	mResumes     *telemetry.Counter
	mDupRedeliv  *telemetry.Counter
	tracer       *telemetry.Tracer
}

// BrokerOptions configures a Broker.
type BrokerOptions struct {
	// Auth validates credentials; nil accepts everyone.
	Auth func(clientID, username string, password []byte) bool
	// Logger receives connection-level diagnostics; nil silences them.
	Logger *log.Logger
	// OnPublish observes every accepted application message (after
	// routing); used by aggregators to tap the report stream without a
	// loopback client. Called on the connection's goroutine.
	OnPublish func(topic string, payload []byte)
	// KeepAliveGrace multiplies the client keepalive for the server-side
	// deadline; the spec mandates 1.5.
	KeepAliveGrace float64
	// SessionPath, when non-empty, makes persistent sessions durable: their
	// subscriptions, unacknowledged QoS 1/2 deliveries and inbound QoS 2
	// dedupe ids are journalled to this file (batched, off the publish hot
	// path) and restored by the next NewBroker against the same path —
	// resumed with SessionPresent, redelivered with DUP. Empty keeps
	// sessions in-memory only.
	SessionPath string
	// SessionCheckpointEvery bounds the session journal: after this many
	// appended entries it is compacted to a state snapshot (default 4096).
	SessionCheckpointEvery int
	// Registry receives the broker's instruments ("mqtt.publishes",
	// "mqtt.fanout_deliveries", "mqtt.connected_sessions",
	// "mqtt.retransmits", "mqtt.session_resumes", "mqtt.dup_redeliveries",
	// "mqtt.wal_checkpoints"); nil disables them.
	Registry *telemetry.Registry
	// Tracer samples report journeys at the fan-out; nil disables tracing.
	// The broker opens the journey (Begin) before routing, so downstream
	// stages tapped via OnPublish attach to it.
	Tracer *telemetry.Tracer
}

// NewBroker returns a broker ready to Serve. With SessionPath set it
// recovers the session journal first, so a corrupt journal fails loudly
// here instead of silently dropping resumed sessions.
func NewBroker(opts BrokerOptions) (*Broker, error) {
	if opts.KeepAliveGrace == 0 {
		opts.KeepAliveGrace = 1.5
	}
	b := &Broker{
		opts:     opts,
		sessions: make(map[string]*session),
		subs:     newSubTrie(),
		retained: make(map[string]*PublishPacket),
		tracer:   opts.Tracer,
	}
	if reg := opts.Registry; reg != nil {
		b.mPublishes = reg.Counter("mqtt.publishes")
		b.mFanout = reg.Counter("mqtt.fanout_deliveries")
		b.mSessions = reg.Gauge("mqtt.connected_sessions")
		b.mRetransmits = reg.Counter("mqtt.retransmits")
		b.mResumes = reg.Counter("mqtt.session_resumes")
		b.mDupRedeliv = reg.Counter("mqtt.dup_redeliveries")
	}
	if opts.SessionPath != "" {
		if err := b.openSessionStore(opts.SessionPath, opts.SessionCheckpointEvery); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// session is one connected client's state.
type session struct {
	broker   *Broker
	clientID string

	// durable marks a persistent session backed by the broker's session
	// journal (SessionPath set, CONNECT with CleanSession=false). Set once
	// at attach/restore, before the session is reachable from the trie.
	durable bool

	mu     sync.Mutex
	conn   net.Conn
	subs   map[string]QoS // filter -> granted QoS
	nextID uint16
	// inflight QoS>=1 messages to this client, by packet id. Values, not
	// pointers: deliver may hand in a pooled per-publish packet that is
	// recycled as soon as the fan-out returns, so the session stores its
	// own copy.
	outbound map[uint16]PublishPacket
	// pubrelPending tracks QoS2 deliveries awaiting PUBCOMP.
	pubrelPending map[uint16]bool
	// incomingQoS2 dedupes QoS2 publishes from this client.
	incomingQoS2 map[uint16]bool

	// writeMu serializes packet writes (so concurrent deliveries cannot
	// interleave on the connection) and guards wbuf, the reused encode
	// buffer that keeps the steady-state fan-out allocation-free.
	writeMu sync.Mutex
	wbuf    []byte

	will      *PublishPacket
	keepAlive time.Duration
	closed    bool
}

// ListenAndServe listens on addr and serves until Close.
func (b *Broker) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("mqtt: listen %s: %w", addr, err)
	}
	return b.Serve(ln)
}

// Serve accepts connections on ln until Close.
func (b *Broker) Serve(ln net.Listener) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return errors.New("mqtt: broker closed")
	}
	b.ln = ln
	b.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			b.mu.Lock()
			closed := b.closed
			b.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.handleConn(conn)
		}()
	}
}

// Addr returns the listener address (useful with ":0").
func (b *Broker) Addr() net.Addr {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ln == nil {
		return nil
	}
	return b.ln.Addr()
}

// Close stops the listener and disconnects every session. With durable
// sessions enabled it then flushes the session journal to a final compact
// snapshot, so inflight QoS 1/2 state survives a graceful shutdown exactly
// like a crash — and logs how much was still unacknowledged.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	ln := b.ln
	sessions := make([]*session, 0, len(b.sessions))
	for _, s := range b.sessions {
		sessions = append(sessions, s)
	}
	b.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, s := range sessions {
		s.close()
	}
	b.wg.Wait()
	if b.store != nil {
		durable, unacked := 0, 0
		for _, s := range sessions {
			s.mu.Lock()
			if s.durable {
				durable++
				unacked += len(s.outbound) + len(s.pubrelPending)
			}
			s.mu.Unlock()
		}
		err := b.store.close(b.sessionSnapshot())
		if err != nil {
			b.logf("mqtt: session journal close: %v", err)
			return err
		}
		b.logf("mqtt: %d durable session(s) flushed, %d message(s) still unacknowledged (redelivered on resume)",
			durable, unacked)
	}
	return nil
}

// HandleConn serves a single pre-established connection (e.g. a net.Pipe in
// tests). It blocks until the session ends.
func (b *Broker) HandleConn(conn net.Conn) {
	b.handleConn(conn)
}

func (b *Broker) logf(format string, args ...any) {
	if b.opts.Logger != nil {
		b.opts.Logger.Printf(format, args...)
	}
}

func (b *Broker) handleConn(conn net.Conn) {
	defer conn.Close()
	// The first packet must be CONNECT, within a short deadline.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	pkt, err := ReadPacket(conn)
	if err != nil {
		b.logf("mqtt: pre-connect read: %v", err)
		return
	}
	connect, ok := pkt.(*ConnectPacket)
	if !ok {
		b.logf("mqtt: first packet %v, want CONNECT", pkt.Type())
		return
	}
	if connect.ClientID == "" {
		if !connect.CleanSession {
			writePacket(conn, &ConnackPacket{ReturnCode: ConnRefusedIdentifier})
			return
		}
		connect.ClientID = fmt.Sprintf("anon-%p", conn)
	}
	if b.opts.Auth != nil && !b.opts.Auth(connect.ClientID, connect.Username, connect.Password) {
		writePacket(conn, &ConnackPacket{ReturnCode: ConnRefusedBadAuth})
		return
	}

	s, sessionPresent := b.attachSession(connect, conn)
	if s == nil {
		writePacket(conn, &ConnackPacket{ReturnCode: ConnRefusedUnavailable})
		return
	}
	if err := s.write(&ConnackPacket{SessionPresent: sessionPresent, ReturnCode: ConnAccepted}); err != nil {
		s.close()
		return
	}
	if sessionPresent && b.mResumes != nil {
		b.mResumes.Inc()
	}
	// Redeliver inflight QoS>=1 messages for resumed sessions — onto this
	// connection specifically, so a takeover racing the drain cannot leak
	// duplicates onto the successor's connection.
	s.redeliver(conn)

	if b.mSessions != nil {
		b.mSessions.Add(1)
		defer b.mSessions.Add(-1)
	}
	_ = b.readLoop(s, conn)
	// A clean DISCONNECT clears the will inside readLoop; any other way
	// out of the loop (EOF from a dead peer, timeout, protocol error,
	// session takeover) is an abnormal termination and publishes it
	// (spec 3.1.2.5).
	s.mu.Lock()
	will := s.will
	s.will = nil
	s.mu.Unlock()
	if will != nil {
		b.route(will, nil)
	}
	b.detachSession(s, conn)
}

// attachSession creates or resumes the session for a CONNECT, handling
// session takeover (a second CONNECT with the same client ID boots the
// first connection, per spec 3.1.4).
func (b *Broker) attachSession(c *ConnectPacket, conn net.Conn) (*session, bool) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, false
	}
	old, existed := b.sessions[c.ClientID]
	var s *session
	present := false
	if existed && !c.CleanSession {
		s = old
		present = true
	} else {
		s = &session{
			broker:        b,
			clientID:      c.ClientID,
			durable:       b.store != nil && !c.CleanSession,
			subs:          make(map[string]QoS),
			outbound:      make(map[uint16]PublishPacket),
			pubrelPending: make(map[uint16]bool),
			incomingQoS2:  make(map[uint16]bool),
		}
	}
	b.sessions[c.ClientID] = s
	b.mu.Unlock()

	if s.durable && !present {
		// A fresh durable session must exist in the journal even before
		// its first subscription.
		s.persist(sessionLogEntry{Op: opConnect})
	}
	if b.store != nil && c.CleanSession && existed {
		// CleanSession wipes whatever durable state the ID had.
		b.store.log(sessionLogEntry{Op: opClean, Client: c.ClientID})
	}

	if existed && old != s {
		// Clean-session takeover replaces the session object; its
		// subscriptions die with it and must leave the routing trie.
		old.close()
		old.mu.Lock()
		filters := make([]string, 0, len(old.subs))
		for f := range old.subs {
			filters = append(filters, f)
		}
		old.mu.Unlock()
		b.mu.Lock()
		for _, f := range filters {
			b.subs.remove(f, old)
		}
		b.mu.Unlock()
	}
	s.mu.Lock()
	if existed && old == s && s.conn != nil {
		// Takeover of a live resumed session: boot the previous conn.
		s.conn.Close()
	}
	s.conn = conn
	s.closed = false
	s.keepAlive = time.Duration(c.KeepAliveSec) * time.Second
	if c.WillTopic != "" {
		s.will = &PublishPacket{Topic: c.WillTopic, Payload: c.WillMessage, QoS: c.WillQoS, Retain: c.WillRetain}
	} else {
		s.will = nil
	}
	s.mu.Unlock()
	return s, present
}

func (b *Broker) detachSession(s *session, conn net.Conn) {
	s.mu.Lock()
	if s.conn == conn {
		s.conn = nil
	}
	s.mu.Unlock()
}

// readLoop processes packets from one connection until error/DISCONNECT.
func (b *Broker) readLoop(s *session, conn net.Conn) error {
	for {
		if s.keepAlive > 0 {
			grace := time.Duration(float64(s.keepAlive) * b.opts.KeepAliveGrace)
			conn.SetReadDeadline(time.Now().Add(grace))
		} else {
			conn.SetReadDeadline(time.Time{})
		}
		pkt, err := ReadPacket(conn)
		if err != nil {
			return err
		}
		switch p := pkt.(type) {
		case *PublishPacket:
			if err := b.handlePublish(s, p); err != nil {
				return err
			}
		case *PubackPacket:
			s.ackOutbound(p.PacketID, false)
		case *PubrecPacket:
			s.ackOutbound(p.PacketID, true)
			if err := s.write(NewPubrel(p.PacketID)); err != nil {
				return err
			}
		case *PubrelPacket:
			s.mu.Lock()
			seen := s.incomingQoS2[p.PacketID]
			delete(s.incomingQoS2, p.PacketID)
			s.mu.Unlock()
			if seen {
				s.persist(sessionLogEntry{Op: opQ2Done, ID: p.PacketID})
			}
			if err := s.write(NewPubcomp(p.PacketID)); err != nil {
				return err
			}
		case *PubcompPacket:
			s.mu.Lock()
			pending := s.pubrelPending[p.PacketID]
			delete(s.pubrelPending, p.PacketID)
			s.mu.Unlock()
			if pending {
				s.persist(sessionLogEntry{Op: opRelDone, ID: p.PacketID})
			}
		case *SubscribePacket:
			if err := b.handleSubscribe(s, p); err != nil {
				return err
			}
		case *UnsubscribePacket:
			s.mu.Lock()
			for _, f := range p.Filters {
				delete(s.subs, f)
			}
			s.mu.Unlock()
			b.mu.Lock()
			for _, f := range p.Filters {
				b.subs.remove(f, s)
			}
			b.mu.Unlock()
			for _, f := range p.Filters {
				s.persist(sessionLogEntry{Op: opUnsub, Filter: f})
			}
			if err := s.write(NewUnsuback(p.PacketID)); err != nil {
				return err
			}
		case *PingreqPacket:
			if err := s.write(&PingrespPacket{}); err != nil {
				return err
			}
		case *DisconnectPacket:
			// Clean disconnect discards the will.
			s.mu.Lock()
			s.will = nil
			s.mu.Unlock()
			return io.EOF
		case *ConnectPacket:
			return fmt.Errorf("%w: second CONNECT", ErrProtocolViolation)
		default:
			return fmt.Errorf("%w: unexpected %v from client", ErrProtocolViolation, pkt.Type())
		}
	}
}

func (b *Broker) handlePublish(s *session, p *PublishPacket) error {
	if strings.HasPrefix(p.Topic, "$") {
		// $-topics are broker-internal; silently ignore client writes.
		return nil
	}
	switch p.QoS {
	case QoS0:
		b.route(p, s)
	case QoS1:
		b.route(p, s)
		return s.write(NewPuback(p.PacketID))
	case QoS2:
		s.mu.Lock()
		dup := s.incomingQoS2[p.PacketID]
		s.incomingQoS2[p.PacketID] = true
		s.mu.Unlock()
		if !dup {
			s.persist(sessionLogEntry{Op: opQ2, ID: p.PacketID})
			b.route(p, s)
		}
		return s.write(NewPubrec(p.PacketID))
	}
	return nil
}

func (b *Broker) handleSubscribe(s *session, p *SubscribePacket) error {
	codes := make([]byte, len(p.Subscriptions))
	for i, sub := range p.Subscriptions {
		granted := sub.QoS
		if granted > QoS2 {
			codes[i] = SubackFailure
			continue
		}
		s.mu.Lock()
		s.subs[sub.Filter] = granted
		s.mu.Unlock()
		b.mu.Lock()
		// Guard against a SUBSCRIBE racing a clean-session takeover: once
		// another session object owns this client ID, the takeover's trie
		// cleanup has run (or will only see the old subs snapshot), so
		// inserting here would leave a permanent route to a dead session.
		if b.sessions[s.clientID] == s {
			b.subs.add(sub.Filter, s, granted)
		}
		b.mu.Unlock()
		s.persist(sessionLogEntry{Op: opSub, Filter: sub.Filter, Q: byte(granted)})
		codes[i] = byte(granted)
	}
	if err := s.write(&SubackPacket{PacketID: p.PacketID, ReturnCodes: codes}); err != nil {
		return err
	}
	// Deliver retained messages matching the new filters.
	b.mu.Lock()
	var matches []*PublishPacket
	for topic, ret := range b.retained {
		for _, sub := range p.Subscriptions {
			if MatchTopic(sub.Filter, topic) {
				cp := *ret
				cp.Retain = true
				if cp.QoS > sub.QoS {
					cp.QoS = sub.QoS
				}
				matches = append(matches, &cp)
				break
			}
		}
	}
	b.mu.Unlock()
	sort.Slice(matches, func(i, j int) bool { return matches[i].Topic < matches[j].Topic })
	for _, m := range matches {
		s.deliver(m)
	}
	return nil
}

// route fans an accepted message out to matching sessions. from is the
// publishing session (may be nil for broker-origin messages).
func (b *Broker) route(p *PublishPacket, from *session) {
	if b.mPublishes != nil {
		b.mPublishes.Inc()
	}
	// One atomic add decides sampling; only the 1-in-N sampled publishes
	// open a journey and take timestamps, so the steady-state fan-out stays
	// allocation-free.
	sampled := b.tracer.Sample()
	var fanoutStart time.Time
	if sampled {
		b.tracer.Begin(p.Topic)
		fanoutStart = time.Now()
	}
	if p.Retain {
		b.mu.Lock()
		if len(p.Payload) == 0 {
			delete(b.retained, p.Topic)
		} else {
			cp := *p
			b.retained[p.Topic] = &cp
		}
		b.mu.Unlock()
	}
	// Match against the subscription trie: O(topic levels + matched
	// subscribers), independent of the total subscription count. Matches
	// are copied out under the lock (delivery re-enters broker and session
	// locks) into a pooled buffer so steady-state routing does not grow
	// the heap per publish.
	rb := routeBufPool.Get().(*routeBuf)
	b.mu.Lock()
	rb.collect(b.subs, p.Topic)
	b.mu.Unlock()
	// The per-publish delivery list is pooled alongside the matches: each
	// subscriber's copy (with its effective QoS) lives in rb.pkts for the
	// duration of the fan-out, so routing a publish allocates nothing.
	// deliver must not retain the pointer — QoS>=1 tracking stores a value
	// copy (see session.outbound).
	if cap(rb.pkts) < len(rb.matches) {
		rb.pkts = make([]PublishPacket, len(rb.matches))
	}
	rb.pkts = rb.pkts[:len(rb.matches)]
	for i, m := range rb.matches {
		out := &rb.pkts[i]
		*out = *p
		out.Retain = false // forwarded publications clear retain
		out.Dup = false
		if out.QoS > m.q {
			out.QoS = m.q
		}
		m.s.deliver(out)
	}
	if b.mFanout != nil {
		b.mFanout.AddInt(uint64(len(rb.matches)))
	}
	rb.reset()
	routeBufPool.Put(rb)
	if sampled {
		b.tracer.ObserveStage(telemetry.StageBrokerFanout, fanoutStart, time.Since(fanoutStart))
	}
	if b.opts.OnPublish != nil {
		b.opts.OnPublish(p.Topic, p.Payload)
	}
}

// routeMatch is one matched subscriber with its effective (max) QoS.
type routeMatch struct {
	s *session
	q QoS
}

// routeBuf is the reusable per-publish match accumulator. visitFn is the
// visit method bound once at construction, so collect passes a prebuilt
// closure instead of allocating a method value per publish. seen indexes
// sessions already matched, keeping dedup O(1) per visit — this runs under
// the broker mutex, so a wide fan-out must not go quadratic.
type routeBuf struct {
	matches []routeMatch
	// pkts is the pooled per-publish delivery list: one packet copy per
	// matched subscriber, valid only for the duration of one route call.
	pkts    []PublishPacket
	seen    map[*session]int
	visitFn func(*session, QoS)
}

var routeBufPool = sync.Pool{New: func() any {
	rb := &routeBuf{seen: make(map[*session]int)}
	rb.visitFn = rb.visit
	return rb
}}

// collect gathers trie matches, folding duplicate sessions (a session can
// match through several filters) to their maximum granted QoS.
func (rb *routeBuf) collect(t *subTrie, topic string) {
	t.match(topic, rb.visitFn)
}

func (rb *routeBuf) visit(s *session, q QoS) {
	if i, ok := rb.seen[s]; ok {
		if q > rb.matches[i].q {
			rb.matches[i].q = q
		}
		return
	}
	rb.seen[s] = len(rb.matches)
	rb.matches = append(rb.matches, routeMatch{s: s, q: q})
}

func (rb *routeBuf) reset() {
	for i := range rb.matches {
		delete(rb.seen, rb.matches[i].s)
		rb.matches[i].s = nil // drop session references while pooled
	}
	rb.matches = rb.matches[:0]
	for i := range rb.pkts {
		rb.pkts[i] = PublishPacket{} // drop payload references while pooled
	}
	rb.pkts = rb.pkts[:0]
}

// Publish injects a broker-origin message (retained-config updates, tests).
func (b *Broker) Publish(topic string, payload []byte, qos QoS, retain bool) error {
	if err := ValidateTopicName(topic); err != nil {
		return err
	}
	b.route(&PublishPacket{Topic: topic, Payload: payload, QoS: qos, Retain: retain}, nil)
	return nil
}

// Retained returns a copy of the retained message for topic, if any.
func (b *Broker) Retained(topic string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, ok := b.retained[topic]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(p.Payload))
	copy(out, p.Payload)
	return out, true
}

// SessionCount returns the number of known sessions (live or resumable).
func (b *Broker) SessionCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.sessions)
}

// SessionJournalErr reports the most recent durable-session journal failure
// (nil when healthy or when session durability is disabled) — the healthz
// surface for the broker_sessions check.
func (b *Broker) SessionJournalErr() error {
	if b.store == nil {
		return nil
	}
	return b.store.err()
}

// --- session methods --------------------------------------------------------

// errNotConnected is returned by write on a detached session; predeclared
// because detached persistent sessions are routine on the fan-out path.
var errNotConnected = errors.New("mqtt: session not connected")

// write serializes and sends one packet, thread-safe. The connection check
// runs first (a detached persistent session skips encoding entirely) and
// encoding reuses the session's write buffer, so the steady-state fan-out
// path allocates nothing.
func (s *session) write(p Packet) error {
	s.mu.Lock()
	conn := s.conn
	s.mu.Unlock()
	if conn == nil {
		return errNotConnected
	}
	return s.writeTo(conn, p)
}

// writeTo serializes and sends one packet onto a specific connection. A
// redelivery drain holds the connection it started on: if a takeover swaps
// s.conn mid-drain, its writes land on the doomed old socket (and fail
// there) instead of duplicating onto the successor's connection.
func (s *session) writeTo(conn net.Conn, p Packet) error {
	s.writeMu.Lock()
	buf, err := p.encode(s.wbuf[:0])
	if err != nil {
		s.writeMu.Unlock()
		return err
	}
	s.wbuf = buf
	_, err = conn.Write(buf)
	s.writeMu.Unlock()
	return err
}

// deliver sends an application message to this session's client, allocating
// a packet id for QoS >= 1 and tracking a value copy of it for redelivery
// (p itself may live in the route pool and must not be retained). The
// payload bytes are wire-read buffers owned by no pool, so the tracked copy
// and the journal entry may share them.
func (s *session) deliver(p *PublishPacket) {
	if p.QoS > QoS0 {
		s.mu.Lock()
		s.nextID++
		if s.nextID == 0 {
			s.nextID = 1
		}
		p.PacketID = s.nextID
		s.outbound[p.PacketID] = *p
		s.mu.Unlock()
		s.persist(sessionLogEntry{
			Op: opOut, ID: p.PacketID,
			Topic: p.Topic, Payload: p.Payload, Q: byte(p.QoS),
		})
	}
	// Best effort: a dead connection keeps the message inflight for
	// redelivery on session resume.
	_ = s.write(p)
}

// ackOutbound clears an inflight message. For QoS2 (rec=true) the id moves
// to the pubrel-pending set.
func (s *session) ackOutbound(id uint16, rec bool) {
	s.mu.Lock()
	_, ok := s.outbound[id]
	if ok {
		delete(s.outbound, id)
		if rec {
			s.pubrelPending[id] = true
		}
	}
	s.mu.Unlock()
	if ok {
		if rec {
			s.persist(sessionLogEntry{Op: opRel, ID: id})
		} else {
			s.persist(sessionLogEntry{Op: opAck, ID: id})
		}
	}
}

// redeliver resends inflight messages after a session resume, writing them
// onto conn (the connection whose CONNACK announced the resume) so a
// concurrent takeover's fresher drain cannot be double-delivered onto.
func (s *session) redeliver(conn net.Conn) {
	s.mu.Lock()
	pending := make([]PublishPacket, 0, len(s.outbound))
	for _, p := range s.outbound {
		p.Dup = true
		pending = append(pending, p)
	}
	rels := make([]uint16, 0, len(s.pubrelPending))
	for id := range s.pubrelPending {
		rels = append(rels, id)
	}
	s.mu.Unlock()
	if n := len(pending) + len(rels); n > 0 {
		if s.broker.mRetransmits != nil {
			s.broker.mRetransmits.AddInt(uint64(n))
		}
		if s.broker.mDupRedeliv != nil {
			s.broker.mDupRedeliv.AddInt(uint64(len(pending)))
		}
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].PacketID < pending[j].PacketID })
	sort.Slice(rels, func(i, j int) bool { return rels[i] < rels[j] })
	for i := range pending {
		_ = s.writeTo(conn, &pending[i])
	}
	for _, id := range rels {
		_ = s.writeTo(conn, NewPubrel(id))
	}
}

func (s *session) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *session) close() {
	s.mu.Lock()
	s.closed = true
	conn := s.conn
	s.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

func writePacket(w io.Writer, p Packet) error {
	buf, err := Encode(p)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}
