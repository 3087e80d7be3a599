package aggregator

import (
	"sync"

	"decentmeter/internal/anomaly"
	"decentmeter/internal/blockchain"
	"decentmeter/internal/protocol"
	"decentmeter/internal/telemetry"
	"decentmeter/internal/units"
)

// deviceState is everything the report path needs for one admitted device.
// It lives inside exactly one ingest shard, so a report touches a single
// shard lock and a single map entry: membership (seq high-water mark
// included), the running window accumulator, and the per-device baseline.
type deviceState struct {
	Membership

	// winSum/winCount accumulate the live (non-buffered) samples of the
	// current verification window; CloseWindow folds them into the
	// window's per-device mean and resets them.
	winSum   int64
	winCount int
	// winQuarantined counts this window's live measurements rejected by
	// the timestamp-skew gate (a drifted RTC); CloseWindow folds it into
	// the window report and resets it. A device with only quarantined
	// samples still joins the active list so the merge sees it.
	winQuarantined uint64

	baseline *anomaly.Deviation

	// series is the pre-resolved telemetry trace (nil when no Registry is
	// configured), so the hot path never rebuilds the series name.
	series *telemetry.Series
}

// departedAccum preserves the partial window of a device that left
// mid-window (membership removal, roam-away release, transfer), so the
// samples it already contributed still count against the feeder measurement
// at the next CloseWindow instead of firing a false sum-check anomaly.
type departedAccum struct {
	sum   int64
	count int
	// base is the device's baseline mean at departure, kept so culprit
	// attribution still has an expectation for the departed device.
	base units.Current
	// quar carries the device's quarantined-measurement count (also used
	// by the winScratch merge, where the same accumulator folds live
	// shard partials).
	quar uint64
}

// ingestShard owns the report-path state of the devices that hash to it.
// Reports for devices on different shards never contend: the shard mutex
// covers only its own members' seq tracking, window accumulation and
// pending-record batch. The control plane (admission, removal, window
// close) takes shard locks one at a time, always after the aggregator's
// own mutex — lock order is Aggregator.mu, then shard.mu, never reversed.
type ingestShard struct {
	mu      sync.Mutex
	devices map[string]*deviceState
	// active lists the devices with samples in the current window, so the
	// window merge walks only reporters, not the whole membership.
	active   []*deviceState
	departed map[string]departedAccum
	pending  boundedRecords
}

func newShard(maxPending int) *ingestShard {
	return &ingestShard{
		devices:  make(map[string]*deviceState),
		departed: make(map[string]departedAccum),
		pending:  boundedRecords{max: maxPending},
	}
}

// ShardOf hashes a device ID onto one of n shards with FNV-1a, which is
// deterministic across processes (the DES depends on reproducible runs).
func ShardOf(deviceID string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(deviceID); i++ {
		h ^= uint64(deviceID[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// recordOf builds the chain record for one accepted measurement.
func recordOf(st *deviceState, meas protocol.Measurement, via string) blockchain.Record {
	return blockchain.Record{
		DeviceID:       st.DeviceID,
		Seq:            meas.Seq,
		HomeAggregator: st.Home,
		ReportedVia:    via,
		Timestamp:      meas.Timestamp,
		Interval:       meas.Interval,
		Current:        meas.Current,
		Voltage:        meas.Voltage,
		Energy:         meas.Energy,
		Buffered:       meas.Buffered,
	}
}

// ingestLocked converts one fresh measurement into a pending chain record
// (unless record is false: shared-ledger mode lets the forwarding home
// record instead) and, for live data, a window sample. Callers hold the
// shard lock.
func (sh *ingestShard) ingestLocked(a *Aggregator, st *deviceState, meas protocol.Measurement, via string, record bool) {
	if record {
		sh.pending.push(recordOf(st, meas, via))
	}
	// Only live (non-buffered) measurements feed the verification window:
	// buffered data describes past intervals, and comparing it against the
	// current feeder measurement would garble the sum check. Foreign-feeder
	// guests never do — their draw is on another network's feeder, which
	// the local head meter cannot see.
	if !meas.Buffered && !st.ForeignFeeder {
		if st.winCount == 0 {
			sh.active = append(sh.active, st)
		}
		st.winSum += int64(meas.Current)
		st.winCount++
	}
	if st.baseline == nil {
		st.baseline = anomaly.NewDeviation(0, 0, 0)
	}
	st.baseline.Observe(meas.Current)
	if st.series != nil {
		st.series.Append(a.cfg.Env.Now(), meas.Current.Milliamps())
	}
}

// boundedRecords is an append-mostly record buffer with a hard cap: while
// under the cap it is a plain slice (no up-front allocation), at the cap it
// becomes a ring that overwrites the oldest record, counting every drop.
// This is the store.Queue DropOldest policy specialised for the seal path:
// when Chain.Seal keeps failing, the backlog stays bounded and recency wins
// (the newest consumption data matters most for reconciliation).
type boundedRecords struct {
	recs    []blockchain.Record
	head    int // ring start, meaningful once len(recs) == max
	max     int
	dropped uint64
}

func (b *boundedRecords) push(r blockchain.Record) {
	if len(b.recs) < b.max {
		b.recs = append(b.recs, r)
		return
	}
	b.recs[b.head] = r
	b.head++
	if b.head == len(b.recs) {
		b.head = 0
	}
	b.dropped++
}

func (b *boundedRecords) pushAll(rs []blockchain.Record) {
	for _, r := range rs {
		b.push(r)
	}
}

func (b *boundedRecords) len() int { return len(b.recs) }

// appendOrdered appends the buffered records oldest-first to dst.
func (b *boundedRecords) appendOrdered(dst []blockchain.Record) []blockchain.Record {
	dst = append(dst, b.recs[b.head:]...)
	return append(dst, b.recs[:b.head]...)
}

func (b *boundedRecords) reset() {
	b.recs = b.recs[:0]
	b.head = 0
}

// takeDropped returns and clears the drop counter.
func (b *boundedRecords) takeDropped() uint64 {
	d := b.dropped
	b.dropped = 0
	return d
}
