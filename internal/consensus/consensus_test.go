package consensus

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"decentmeter/internal/blockchain"
	"decentmeter/internal/sim"
	"decentmeter/internal/units"
)

func recs(base uint64, n int) []blockchain.Record {
	out := make([]blockchain.Record, n)
	for i := range out {
		out[i] = blockchain.Record{
			DeviceID:       fmt.Sprintf("dev%d", i),
			Seq:            base + uint64(i),
			HomeAggregator: "cluster",
			ReportedVia:    "cluster",
			Timestamp:      time.Date(2020, 4, 29, 0, 0, 0, 0, time.UTC),
			Interval:       100 * time.Millisecond,
			Current:        80 * units.Milliampere,
			Voltage:        5 * units.Volt,
			Energy:         11 * units.MicrowattHour,
		}
	}
	return out
}

func newCluster(t *testing.T, n, f int) (*sim.Env, *Cluster) {
	t.Helper()
	env := sim.NewEnv(1)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("dev%02d", i)
	}
	c, err := NewCluster(env, ids, f, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return env, c
}

func TestClusterSizeValidation(t *testing.T) {
	env := sim.NewEnv(1)
	if _, err := NewCluster(env, []string{"a", "b", "c"}, 1, time.Millisecond); err == nil {
		t.Fatal("3 replicas accepted for f=1")
	}
	if _, err := NewCluster(env, []string{"a", "b", "c", "d"}, 1, time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// TestClusterRejectsOversizedMembership pins the 64-member cap: vote
// bookkeeping is a uint64 bitmask, so a 65th replica must be refused loudly
// at construction — a silent wrap would alias two members onto one vote bit
// and corrupt every quorum count.
func TestClusterRejectsOversizedMembership(t *testing.T) {
	env := sim.NewEnv(1)
	ids := make([]string, 65)
	for i := range ids {
		ids[i] = fmt.Sprintf("rep%02d", i)
	}
	_, err := NewCluster(env, ids, 1, time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "64-member limit") {
		t.Fatalf("65 replicas: want the 64-member limit error, got %v", err)
	}
	if _, err := NewCluster(env, ids[:64], 1, time.Millisecond); err != nil {
		t.Fatalf("exactly 64 replicas must construct: %v", err)
	}
}

func TestNormalCaseDecides(t *testing.T) {
	env, c := newCluster(t, 4, 1)
	if err := c.Submit(recs(0, 3)); err != nil {
		t.Fatal(err)
	}
	env.RunUntil(100 * time.Millisecond)
	for id, r := range c.Replicas {
		if len(r.Decided()) != 3 {
			t.Fatalf("%s decided %d records, want 3", id, len(r.Decided()))
		}
	}
}

func TestAllReplicasAgreeOnOrder(t *testing.T) {
	env, c := newCluster(t, 4, 1)
	for i := 0; i < 10; i++ {
		if err := c.Submit(recs(uint64(i*10), 2)); err != nil {
			t.Fatal(err)
		}
		env.RunUntil(env.Now() + 50*time.Millisecond)
	}
	var ref []*blockchain.Record
	for _, id := range c.ids {
		r := c.Replicas[id]
		got := r.Decided()
		if len(got) != 20 {
			t.Fatalf("%s decided %d, want 20", id, len(got))
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range got {
			if got[i].DeviceID != ref[i].DeviceID || got[i].Seq != ref[i].Seq {
				t.Fatalf("%s diverges at %d", id, i)
			}
		}
	}
}

func TestFollowerCannotPropose(t *testing.T) {
	_, c := newCluster(t, 4, 1)
	follower := c.Replicas[c.ids[1]] // view 0 leader is ids[0]
	if err := follower.Propose(recs(0, 1)); err != ErrNotLeader {
		t.Fatalf("err = %v", err)
	}
}

func TestEmptyProposalRejected(t *testing.T) {
	_, c := newCluster(t, 4, 1)
	leader := c.Replicas[c.Leader(0)]
	if err := leader.Propose(nil); err == nil {
		t.Fatal("empty proposal accepted")
	}
}

func TestToleratesFCrashedFollowers(t *testing.T) {
	env, c := newCluster(t, 4, 1)
	// Crash one follower (f=1).
	c.Replicas[c.ids[3]].Crash()
	if err := c.Submit(recs(0, 2)); err != nil {
		t.Fatal(err)
	}
	env.RunUntil(200 * time.Millisecond)
	for _, id := range c.ids[:3] {
		if len(c.Replicas[id].Decided()) != 2 {
			t.Fatalf("%s did not decide with f crashed", id)
		}
	}
	if len(c.Replicas[c.ids[3]].Decided()) != 0 {
		t.Fatal("crashed replica decided")
	}
}

func TestTooManyCrashesBlocksProgress(t *testing.T) {
	env, c := newCluster(t, 4, 1)
	c.Replicas[c.ids[2]].Crash()
	c.Replicas[c.ids[3]].Crash() // 2 > f crashed
	if err := c.Submit(recs(0, 1)); err != nil {
		t.Fatal(err)
	}
	env.RunUntil(200 * time.Millisecond)
	for _, id := range c.ids[:2] {
		if len(c.Replicas[id].Decided()) != 0 {
			t.Fatalf("%s decided without quorum", id)
		}
	}
}

func TestLeaderCrashTriggersViewChange(t *testing.T) {
	env, c := newCluster(t, 4, 1)
	// Decide one slot normally.
	if err := c.Submit(recs(0, 1)); err != nil {
		t.Fatal(err)
	}
	env.RunUntil(100 * time.Millisecond)
	// Leader dies mid-proposal: pre-prepare reaches followers, then no
	// quorum of commits... simulate by crashing the leader right after
	// submit so its own vote is lost.
	leader := c.Replicas[c.Leader(0)]
	if err := c.Submit(recs(100, 1)); err != nil {
		t.Fatal(err)
	}
	leader.Crash()
	// Followers' view timers fire; view advances past the dead leader.
	env.RunUntil(2 * time.Second)
	live := c.Replicas[c.ids[1]]
	if live.View() == 0 {
		t.Fatal("view never advanced after leader crash")
	}
	// The new leader can decide fresh batches.
	newLeader := c.Replicas[c.Leader(c.anyView())]
	if newLeader.crashed {
		t.Fatalf("new leader %s is the crashed one", newLeader.ID)
	}
	before := len(live.Decided())
	if err := newLeader.Propose(recs(200, 2)); err != nil {
		t.Fatal(err)
	}
	env.RunUntil(env.Now() + 200*time.Millisecond)
	if len(live.Decided()) <= before {
		t.Fatal("no progress after view change")
	}
}

func TestEquivocatingLeaderCannotSplitDecision(t *testing.T) {
	env, c := newCluster(t, 4, 1)
	leader := c.Replicas[c.Leader(0)]
	// The leader broadcasts proposal A but hand-delivers a conflicting
	// proposal B to one victim first.
	a := recs(0, 1)
	b := recs(500, 1)
	victim := c.Replicas[c.ids[1]]
	victim.receive(Message{
		Kind: "preprepare", View: 0, Seq: 0, From: leader.ID,
		Digest: digestOf(b, nil), Records: b,
	})
	if err := leader.Propose(a); err != nil {
		t.Fatal(err)
	}
	env.RunUntil(2 * time.Second)
	// Safety: no two replicas decide different records for slot 0.
	var decidedA, decidedB int
	for _, id := range c.ids {
		blocks := c.Replicas[id].DecidedBlocks()
		if len(blocks) == 0 {
			continue
		}
		switch blocks[0][0].Seq {
		case a[0].Seq:
			decidedA++
		case b[0].Seq:
			decidedB++
		}
	}
	if decidedA > 0 && decidedB > 0 {
		t.Fatal("split decision: safety violated")
	}
}

func TestPartitionHealsAndProgresses(t *testing.T) {
	env, c := newCluster(t, 4, 1)
	// Cut one follower off from everyone.
	isolated := c.ids[3]
	for _, id := range c.ids[:3] {
		c.Net.Partition(isolated, id, true)
	}
	if err := c.Submit(recs(0, 1)); err != nil {
		t.Fatal(err)
	}
	env.RunUntil(100 * time.Millisecond)
	if len(c.Replicas[isolated].Decided()) != 0 {
		t.Fatal("isolated replica decided")
	}
	for _, id := range c.ids[:3] {
		if len(c.Replicas[id].Decided()) != 1 {
			t.Fatalf("%s blocked by partition of a single follower", id)
		}
	}
	// Heal; the isolated node participates in new slots.
	for _, id := range c.ids[:3] {
		c.Net.Partition(isolated, id, false)
	}
	if err := c.Submit(recs(100, 1)); err != nil {
		t.Fatal(err)
	}
	env.RunUntil(env.Now() + 100*time.Millisecond)
	if len(c.Replicas[isolated].Decided()) == 0 {
		t.Fatal("healed replica never caught a new slot")
	}
}

func TestLargerCluster(t *testing.T) {
	env, c := newCluster(t, 7, 2)
	// Crash 2 (== f) replicas.
	c.Replicas[c.ids[5]].Crash()
	c.Replicas[c.ids[6]].Crash()
	for i := 0; i < 5; i++ {
		if err := c.Submit(recs(uint64(i*10), 1)); err != nil {
			t.Fatal(err)
		}
		env.RunUntil(env.Now() + 50*time.Millisecond)
	}
	for _, id := range c.ids[:5] {
		if len(c.Replicas[id].Decided()) != 5 {
			t.Fatalf("%s decided %d/5", id, len(c.Replicas[id].Decided()))
		}
	}
}

func TestProposeMetaAgreedOnAllReplicas(t *testing.T) {
	env, c := newCluster(t, 4, 1)
	leader := c.Replicas[c.Leader(0)]
	meta := []byte("pre-sealed header + signature")
	got := make(map[string][]byte)
	for _, id := range c.ids {
		id := id
		c.Replicas[id].OnDecideMeta = func(seq uint64, records []blockchain.Record, m []byte) {
			got[id] = m
		}
	}
	if err := leader.ProposeMeta(recs(0, 2), meta); err != nil {
		t.Fatal(err)
	}
	env.RunUntil(100 * time.Millisecond)
	if len(got) != 4 {
		t.Fatalf("only %d replicas delivered the meta", len(got))
	}
	for id, m := range got {
		if string(m) != string(meta) {
			t.Fatalf("%s delivered meta %q", id, m)
		}
	}
	// A tampered meta must fail the digest check: no replica accepts it.
	victim := c.Replicas[c.ids[1]]
	body := recs(100, 1)
	victim.receive(Message{
		Kind: "preprepare", View: 0, Seq: 5, From: leader.ID,
		Digest: digestOf(body, []byte("original")), Records: body, Meta: []byte("tampered"),
	})
	if sl, ok := victim.slots[5]; ok && sl.phase != PhaseIdle {
		t.Fatal("tampered meta accepted into pre-prepare")
	}
}

func TestRecoverCatchesUpDecidedSequence(t *testing.T) {
	env, c := newCluster(t, 4, 1)
	sleeper := c.Replicas[c.ids[3]]
	sleeper.Crash()
	for i := 0; i < 4; i++ {
		leader := c.Replicas[c.Leader(c.anyView())]
		if err := leader.ProposeMeta(recs(uint64(i*10), 2), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		env.RunUntil(env.Now() + 50*time.Millisecond)
	}
	if got := sleeper.Frontier(); got != 0 {
		t.Fatalf("crashed replica advanced to %d", got)
	}
	var metas [][]byte
	sleeper.OnDecideMeta = func(seq uint64, records []blockchain.Record, m []byte) {
		metas = append(metas, m)
	}
	// Recover broadcasts a sync request; peers replay the decided slots
	// (records and metadata) and the replica delivers them in order.
	sleeper.Recover()
	env.RunUntil(env.Now() + 200*time.Millisecond)
	if got := sleeper.Frontier(); got != 4 {
		t.Fatalf("recovered replica at frontier %d, want 4", got)
	}
	if len(metas) != 4 {
		t.Fatalf("recovered replica delivered %d metas, want 4", len(metas))
	}
	for i, m := range metas {
		if len(m) != 1 || m[0] != byte(i) {
			t.Fatalf("meta %d = %v, want [%d]", i, m, i)
		}
	}
}

func TestRecoveredReplicaAdoptsCurrentView(t *testing.T) {
	env, c := newCluster(t, 4, 1)
	// Crash the view-0 leader; the cluster rotates to view 1.
	oldLeader := c.Replicas[c.Leader(0)]
	oldLeader.Crash()
	env.RunUntil(env.Now() + 2*time.Second)
	if v := c.anyView(); v == 0 {
		t.Fatal("view never advanced past the crashed leader")
	}
	// The recovered replica fast-forwards its view from the new leader's
	// heartbeats instead of walking one silence timeout per missed view.
	oldLeader.Recover()
	env.RunUntil(env.Now() + 2*time.Second)
	if oldLeader.View() < c.anyView() {
		t.Fatalf("recovered replica stuck at view %d, cluster at %d", oldLeader.View(), c.anyView())
	}
	// And the cluster still decides with it participating.
	leader := c.Replicas[c.Leader(c.anyView())]
	if err := leader.Propose(recs(500, 1)); err != nil {
		t.Fatal(err)
	}
	env.RunUntil(env.Now() + 100*time.Millisecond)
	if len(oldLeader.Decided()) == 0 {
		t.Fatal("recovered replica missed the post-recovery decision")
	}
}

func TestOnDecideCallback(t *testing.T) {
	env, c := newCluster(t, 4, 1)
	var got []uint64
	c.Replicas[c.ids[1]].OnDecide = func(seq uint64, records []blockchain.Record) {
		got = append(got, seq)
	}
	for i := 0; i < 3; i++ {
		if err := c.Submit(recs(uint64(i*10), 1)); err != nil {
			t.Fatal(err)
		}
		env.RunUntil(env.Now() + 50*time.Millisecond)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("OnDecide seqs = %v", got)
	}
}

func TestDeterministicConsensus(t *testing.T) {
	run := func() []uint64 {
		env, c := newCluster(t, 4, 1)
		var seqs []uint64
		c.Replicas[c.ids[0]].OnDecide = func(seq uint64, _ []blockchain.Record) {
			seqs = append(seqs, seq)
		}
		for i := 0; i < 5; i++ {
			c.Submit(recs(uint64(i*10), 1))
			env.RunUntil(env.Now() + 30*time.Millisecond)
		}
		return seqs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d", i)
		}
	}
}

// TestReleaseKeepsReplayAboveWatermark: a host that released the decided
// batches at or below a watermark still serves catch-up above it, and the
// decided order is the one the unreleased replicas saw.
func TestReleaseKeepsReplayAboveWatermark(t *testing.T) {
	env, c := newCluster(t, 4, 1)
	decide := func(from, n int) {
		t.Helper()
		for i := from; i < from+n; i++ {
			leader := c.Replicas[c.Leader(c.anyView())]
			if err := leader.ProposeMeta(recs(uint64(i*10), 2), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			env.RunUntil(env.Now() + 50*time.Millisecond)
		}
	}
	decide(0, 3)
	sleeper := c.Replicas[c.ids[3]]
	sleeper.Crash()
	decide(3, 3)
	for _, id := range c.ids {
		c.Replicas[id].Release(2)
	}

	live := c.Replicas[c.ids[0]]
	blocks := live.DecidedBlocks()
	for s, b := range blocks {
		if released := s <= 2; released != (b == nil) {
			t.Fatalf("seq %d: batch %v after Release(2)", s, b)
		}
		if _, ok := live.slots[uint64(s)]; ok == (s <= 2) {
			t.Fatalf("seq %d: slot kept = %v after Release(2)", s, ok)
		}
	}
	if got := len(live.Decided()); got != 6 {
		t.Fatalf("Decided lists %d records after Release(2), want the 6 above it", got)
	}
	if got := len(sleeper.DecidedBlocks()); got != 3 {
		t.Fatalf("crashed replica decided %d batches, want 3", got)
	}

	var caught []uint64
	sleeper.OnDecideMeta = func(seq uint64, records []blockchain.Record, meta []byte) {
		caught = append(caught, seq)
		if want := blocks[seq]; len(records) != len(want) || records[0] != want[0] || meta[0] != byte(seq) {
			t.Errorf("seq %d replayed %v (meta %v), want %v", seq, records, meta, want)
		}
	}
	sleeper.Recover()
	env.RunUntil(env.Now() + 200*time.Millisecond)
	if len(caught) != 3 || caught[0] != 3 || caught[2] != 5 || sleeper.Frontier() != 6 {
		t.Fatalf("recovered replica caught up %v, frontier %d; want seqs 3..5", caught, sleeper.Frontier())
	}
	sleeper.OnDecideMeta = nil

	// Agreement goes on past the watermark, in one order everywhere.
	decide(6, 2)
	for _, id := range c.ids {
		r := c.Replicas[id]
		got := r.DecidedBlocks()
		if len(got) != 8 || got[7][0].Seq != 70 || got[6][0].Seq != 60 {
			t.Fatalf("%s decided %d batches after the watermark, last %v", id, len(got), got[len(got)-1])
		}
		for s := 3; s < 8; s++ {
			if got[s][0] != live.DecidedBlocks()[s][0] {
				t.Fatalf("%s: seq %d differs from %s", id, s, live.ID)
			}
		}
	}
}
