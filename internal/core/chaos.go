// Fault injection for the scenario engine: a FaultPlan schedules broker
// outages, ack-loss bursts, backhaul partitions and replica crashes at tick
// granularity over a run against one cluster rig, and the scenario's ledger
// audit then proves the zero-loss / zero-duplication invariant held through
// all of them. The faults compose with (and must be scheduled around) the
// replicated fleet's built-in choreography — the sec-1 leader crash, sec-3
// recovery, sec-5 roaming wave and sec-6+ rebalancing.
package core

import (
	"fmt"
	"sync/atomic"

	"decentmeter/internal/consensus"
)

// FaultKind enumerates the injectable failures.
type FaultKind int

const (
	// FaultBrokerOutage models the fleet's shared MQTT broker going down
	// (a restart, in deployment terms): for the duration no report reaches
	// any replica. Devices keep measuring into their unacked tails — the
	// firmware's local buffer — and flush everything with the first report
	// after the broker returns, which also counts one reconnect per device.
	FaultBrokerOutage FaultKind = iota
	// FaultAckLossBurst suppresses every downstream ack for the duration:
	// reports deliver and seal, but devices keep retransmitting their
	// tails until acks resume. Sequence dedup must absorb the duplicates.
	FaultAckLossBurst
	// FaultMeshPartition cuts the target replica off the backhaul mesh.
	// Forwarding to and from it fails synchronously (ErrPartitioned), so
	// serving replicas fall back to recording roamed data locally — the
	// paper's store-and-forward-later path. Consensus runs its own
	// transport and keeps sealing through the partition. Keep partitions
	// clear of window boundaries: migrations and wave registrations
	// verify homes over the mesh.
	FaultMeshPartition
	// FaultReplicaCrash crashes the target replica mid-window (its
	// devices fail over as guests) and recovers it when the fault ends.
	// Skipped, and logged, if some replica is already down — the driver
	// never pushes the cluster below quorum on purpose.
	FaultReplicaCrash
	// FaultByzantine corrupts the target replica's consensus participant
	// mid-run: it stops following the protocol and instead runs the
	// Fault.Behaviors adversary suite (equivocation, vote forgery, replay,
	// flooding — see consensus.Behavior). Target -1 corrupts the leader —
	// the strongest attack, forcing the honest followers through a view
	// change — and TargetFollower picks a live honest follower. The fault
	// ends with a consensus-state Restore and catch-up sync. Skipped, and
	// logged, when a replica is already crashed or corrupted: the driver
	// keeps the combined faulty set within the f the cluster tolerates.
	FaultByzantine
)

// TargetFollower, as a Fault.Target for FaultByzantine, resolves at
// injection time to the first live, honest, non-leader replica — "some
// follower", without hardwiring an index that the built-in crash
// choreography might have taken down.
const TargetFollower = -2

// String names the fault kind for logs and results.
func (k FaultKind) String() string {
	switch k {
	case FaultBrokerOutage:
		return "broker-outage"
	case FaultAckLossBurst:
		return "ack-loss-burst"
	case FaultMeshPartition:
		return "mesh-partition"
	case FaultReplicaCrash:
		return "replica-crash"
	case FaultByzantine:
		return "byzantine"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Fault is one scheduled failure in a chaos run. Time is tick-granular:
// the fault starts before the producers of tick (Sec, Tick) run and ends
// before the tick Ticks later; a fault whose end falls past the run is
// ended (healed, recovered) before the final settle.
type Fault struct {
	Kind FaultKind
	// Sec is the simulated second (= verification window) the fault
	// starts in; Tick is the tick within it (0-9).
	Sec, Tick int
	// Ticks is the duration (>= 1).
	Ticks int
	// Target is the replica index for FaultMeshPartition,
	// FaultReplicaCrash and FaultByzantine; -1 targets the consensus
	// leader at injection time, and TargetFollower (FaultByzantine only)
	// a live honest follower. Ignored by the fleet-wide kinds.
	Target int
	// Behaviors selects the adversary suite for FaultByzantine
	// (zero means consensus.DefaultAdversaryBehaviors). Ignored by the
	// other kinds.
	Behaviors consensus.Behavior
}

// FaultPlan schedules faults over a replicated fleet run (FleetConfig.Chaos).
type FaultPlan struct {
	Faults []Fault
}

// DefaultFaultPlan is the acceptance gauntlet: a broker outage while the
// cluster is still recovering from the built-in sec-1 leader crash, an
// ack-loss burst, a mesh partition during the post-wave rebalancing, and a
// second (chaos) replica crash — all in one run. Needs the replicated
// scenario's default eight seconds and at least two replicas.
func DefaultFaultPlan() *FaultPlan {
	return &FaultPlan{Faults: []Fault{
		{Kind: FaultBrokerOutage, Sec: 2, Tick: 2, Ticks: 4},
		{Kind: FaultAckLossBurst, Sec: 4, Tick: 1, Ticks: 4},
		{Kind: FaultMeshPartition, Sec: 6, Tick: 2, Ticks: 5, Target: -1},
		{Kind: FaultReplicaCrash, Sec: 7, Tick: 1, Ticks: 4, Target: -1},
	}}
}

// ByzantineFaultPlan is the adversary gauntlet: a follower turns Byzantine
// mid-run and sprays forged votes, forged decided attestations, replayed
// traffic and far-future floods at the honest majority; later the leader
// itself goes Byzantine — equivocating and withholding heartbeats — which
// forces the followers through a view change to depose it. Each stint
// straddles a window boundary (the fleet proposes once per simulated
// second, so an adversary active only mid-window would see no proposals to
// attack), and both end at least a second before the run does so the
// restored replicas catch up (Restore triggers a sync) before the final
// settle and ledger audit. Needs the replicated scenario's default eight
// seconds and four replicas (3f+1 with f=1: one adversary at a time), and
// composes with DefaultFaultPlan — the quorum guards keep the combined
// faulty set at f.
func ByzantineFaultPlan() *FaultPlan {
	return &FaultPlan{Faults: []Fault{
		// Follower stint across the sec-5 boundary: forged votes and
		// decided attestations against the boundary proposal, plus replay
		// and flood pressure the whole time.
		{Kind: FaultByzantine, Sec: 4, Tick: 1, Ticks: 12, Target: TargetFollower,
			Behaviors: consensus.BehaviorForgeVotes | consensus.BehaviorForgeDecided |
				consensus.BehaviorReplay | consensus.BehaviorGarbageFlood},
		// Leader corrupted just before the sec-6 boundary: the boundary
		// batch lands on it while it still owns the view, the split
		// proposal is detected, and the followers depose it.
		{Kind: FaultByzantine, Sec: 5, Tick: 9, Ticks: 8, Target: -1,
			Behaviors: consensus.BehaviorEquivocate | consensus.BehaviorWithhold},
	}}
}

// validate rejects plans that do not fit the run.
func (p *FaultPlan) validate(seconds, replicas int) error {
	for i, f := range p.Faults {
		if f.Sec < 0 || f.Sec >= seconds {
			return fmt.Errorf("chaos: fault %d (%s) starts in second %d of a %d-second run", i, f.Kind, f.Sec, seconds)
		}
		if f.Tick < 0 || f.Tick > 9 {
			return fmt.Errorf("chaos: fault %d (%s) tick %d outside 0-9", i, f.Kind, f.Tick)
		}
		if f.Ticks < 1 {
			return fmt.Errorf("chaos: fault %d (%s) needs Ticks >= 1", i, f.Kind)
		}
		switch f.Kind {
		case FaultMeshPartition, FaultReplicaCrash:
			if f.Target < -1 || f.Target >= replicas {
				return fmt.Errorf("chaos: fault %d (%s) targets replica %d of %d", i, f.Kind, f.Target, replicas)
			}
		case FaultByzantine:
			if f.Target < TargetFollower || f.Target >= replicas {
				return fmt.Errorf("chaos: fault %d (%s) targets replica %d of %d", i, f.Kind, f.Target, replicas)
			}
			if replicas < 4 {
				return fmt.Errorf("chaos: fault %d (%s) needs at least 4 replicas (3f+1, f >= 1) to tolerate an adversary", i, f.Kind)
			}
		case FaultBrokerOutage, FaultAckLossBurst:
		default:
			return fmt.Errorf("chaos: fault %d has unknown kind %d", i, int(f.Kind))
		}
	}
	return nil
}

// chaosDriver executes a FaultPlan against one cluster rig inside the
// scenario engine. Begin/end actions run single-threaded on the driver
// between ticks; the producer goroutines only read the two atomic flags.
type chaosDriver struct {
	plan    *FaultPlan
	rig     *clusterRig
	devices int

	// uplinkDown and ackDown gate the producers' delivery and ack paths
	// while a broker outage / ack burst is active.
	uplinkDown atomic.Bool
	ackDown    atomic.Bool

	// victim[i] is the replica fault i crashed or turned Byzantine ("" if
	// the fault was skipped or of another kind); ended[i] marks faults
	// already finished so the end-of-run sweep does not double-heal.
	victim []string
	ended  []bool

	injected   int
	reconnects uint64
	log        []string
}

func newChaosDriver(plan *FaultPlan, rig *clusterRig, devices int) *chaosDriver {
	return &chaosDriver{
		plan: plan, rig: rig, devices: devices,
		victim: make([]string, len(plan.Faults)),
		ended:  make([]bool, len(plan.Faults)),
	}
}

// step fires the begin/end actions scheduled for tick (sec, tick). Called
// on the driver thread before the tick's producers launch.
func (c *chaosDriver) step(sec, tick int) error {
	abs := sec*10 + tick
	for i := range c.plan.Faults {
		f := &c.plan.Faults[i]
		start := f.Sec*10 + f.Tick
		if abs == start+f.Ticks && !c.ended[i] {
			if err := c.finish(i, f); err != nil {
				return err
			}
		}
		if abs == start {
			if err := c.begin(i, f, sec, tick); err != nil {
				return err
			}
		}
	}
	return nil
}

// finishAll ends every still-active fault; the engine calls it after the
// last tick so the run settles (and the ledger audits) fully healed. It
// reports whether any fault was still open, so the engine can extend the
// settle window for post-recovery catch-up.
func (c *chaosDriver) finishAll() (bool, error) {
	open := false
	for i := range c.plan.Faults {
		if c.ended[i] {
			continue
		}
		open = true
		if err := c.finish(i, &c.plan.Faults[i]); err != nil {
			return open, err
		}
	}
	return open, nil
}

func (c *chaosDriver) begin(i int, f *Fault, sec, tick int) error {
	at := fmt.Sprintf("sec %d tick %d: ", sec, tick)
	skip := func(format string, args ...any) error {
		c.ended[i] = true
		c.log = append(c.log, at+"skipped "+fmt.Sprintf(format, args...))
		return nil
	}
	detail := ""
	switch f.Kind {
	case FaultBrokerOutage:
		c.uplinkDown.Store(true)
	case FaultAckLossBurst:
		c.ackDown.Store(true)
	case FaultMeshPartition:
		id := c.target(f)
		if err := c.rig.mesh.PartitionOff(id); err != nil {
			return err
		}
		detail = " of " + id
	case FaultReplicaCrash:
		id := c.target(f)
		if down := c.rig.firstReplica((*Replica).Crashed); down != "" {
			// Quorum guard: one replica is already out (the built-in
			// choreography, or an overlapping fault) — stand down.
			return skip("%s of %s (%s already down)", f.Kind, id, down)
		}
		if bad := c.rig.firstReplica((*Replica).Byzantine); bad != "" {
			// Fault-budget guard: a Byzantine replica already spends the
			// one fault f=1 tolerates; crashing another honest replica
			// would leave only 2f live honest votes.
			return skip("%s of %s (%s is byzantine)", f.Kind, id, bad)
		}
		if err := c.rig.rs.Crash(id); err != nil {
			return err
		}
		c.victim[i] = id
		detail = " of " + id
	case FaultByzantine:
		if down := c.rig.firstReplica((*Replica).Crashed); down != "" {
			return skip("%s (%s already down)", f.Kind, down)
		}
		if bad := c.rig.firstReplica((*Replica).Byzantine); bad != "" {
			return skip("%s (%s already byzantine)", f.Kind, bad)
		}
		id := c.byzantineTarget(f)
		if id == "" {
			return skip("%s (no eligible target)", f.Kind)
		}
		behaviors := f.Behaviors
		if behaviors == 0 {
			behaviors = consensus.DefaultAdversaryBehaviors
		}
		if err := c.rig.rs.Corrupt(id, behaviors); err != nil {
			return err
		}
		c.victim[i] = id
		detail = fmt.Sprintf(" of %s (%s)", id, behaviors)
	}
	c.injected++
	c.log = append(c.log, fmt.Sprintf("%s%s%s for %d tick(s)", at, f.Kind, detail, f.Ticks))
	return nil
}

func (c *chaosDriver) finish(i int, f *Fault) error {
	c.ended[i] = true
	switch f.Kind {
	case FaultBrokerOutage:
		c.uplinkDown.Store(false)
		// The broker is back: every device redials (with backoff and
		// session resumption in the real transport) and flushes its tail
		// on the next tick.
		c.reconnects += uint64(c.devices)
	case FaultAckLossBurst:
		c.ackDown.Store(false)
	case FaultMeshPartition:
		c.rig.mesh.Heal()
	case FaultReplicaCrash:
		if c.victim[i] != "" {
			return c.rig.rs.Recover(c.victim[i])
		}
	case FaultByzantine:
		if c.victim[i] != "" {
			return c.rig.rs.Restore(c.victim[i])
		}
	}
	return nil
}

// target resolves a fault's replica: explicit index, or the consensus
// leader at injection time for Target == -1.
func (c *chaosDriver) target(f *Fault) string {
	if f.Target >= 0 {
		return c.rig.reps[f.Target].id
	}
	return c.rig.rs.LeaderID()
}

// byzantineTarget resolves a FaultByzantine target at injection time: as
// target, or for TargetFollower the first live honest follower. Returns ""
// when nothing qualifies.
func (c *chaosDriver) byzantineTarget(f *Fault) string {
	if f.Target != TargetFollower {
		return c.target(f)
	}
	leader := c.rig.rs.LeaderID()
	return c.rig.firstReplica(func(rep *Replica) bool {
		return rep.ID != leader && !rep.Crashed() && !rep.Byzantine()
	})
}
