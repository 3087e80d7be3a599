package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"decentmeter/internal/protocol"
	"decentmeter/internal/units"
)

// aggID is the identity every benchmarked meterd runs under.
const aggID = "agg1"

// tmeasure is the paper's reporting interval; meterd runs at its default.
const tmeasure = 100 * time.Millisecond

// workload is one traffic mix and the daemon configuration it runs against.
type workload struct {
	name string
	why  string
	// devices is the number of logical devices multiplexed over the
	// generator's connections.
	devices int
	// batch is the number of measurements in each report.
	batch int
	// period is each device's report interval on the open loop; zero on
	// the closed loop.
	period time.Duration
	// inflight is the closed loop's number of report slots; zero on the
	// open loop. Each logical device belongs to one slot.
	inflight int
	// persistent makes the clients connect with CleanSession=false.
	persistent bool
	// replicas is meterd's -replicas; above 1 the run also audits the
	// replica chain files and the session journal.
	replicas int
	// daemonArgs are the meterd flags besides -id, -addr and -chain.
	daemonArgs func(dir string) []string
}

func plainDaemon(string) []string {
	return []string{"-shards", "2", "-replicas", "1", "-block", "1s", "-slots", "4096"}
}

// workloads lists every workload in the order the full run executes them.
// fleet_des runs no daemon; see fleet.go.
var workloads = []workload{
	{
		name:    "steady",
		why:     "open loop, 2000 devices x 1 measurement per 100 ms = 20k reports/s, about half of capacity: normal operation; transport, decode, ingest and the ack path do the work, sealing little",
		devices: 2000, batch: 1, period: tmeasure, replicas: 1,
		daemonArgs: plainDaemon,
	},
	{
		name:    "saturate",
		why:     "closed loop, 64 single-measurement reports in flight over 2000 devices: the processor is fully busy, so per-report cost shows as reports/s where steady shows it only as CPU",
		devices: 2000, batch: 1, inflight: 64, replicas: 1,
		daemonArgs: plainDaemon,
	},
	{
		name:    "tail_flush",
		why:     "open loop, 1500 devices flush a shuffled 64-measurement tail every 2 s into 4 consensus-sealed replicas with a session journal: the mobility case; record, consensus and file costs dominate",
		devices: 1500, batch: 64, period: 2 * time.Second, persistent: true, replicas: 4,
		daemonArgs: func(dir string) []string {
			return []string{"-shards", "2", "-replicas", "4", "-pipeline", "4",
				"-session", filepath.Join(dir, "sess.wal"), "-block", "1s", "-slots", "4096"}
		},
	},
}

const fleetWorkload = "fleet_des"

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// splitmix is the generator behind every seeded choice: device ids, phase
// offsets, measurement values and in-batch order.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	x := uint64(*s)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deviceSpec is one logical device as drawn from the seed.
type deviceSpec struct {
	id string
	// phase is the offset of the device's first report inside the period
	// (open loop only).
	phase time.Duration
	// key seeds the device's measurement values and batch order.
	key uint64
	// current is the device's mean draw; reports jitter around it.
	current units.Current
	// topics, built once: a report must not pay for fmt on the send path.
	reportTopic  string
	controlTopic string
}

// makeDevices draws a workload's logical devices from the seed. The result
// is ordered by phase (then id), which is the order the open-loop schedule
// visits them in every period.
func makeDevices(w workload, seed uint64) []deviceSpec {
	rng := splitmix(seed ^ 0x6d657465726400)
	devs := make([]deviceSpec, w.devices)
	for i := range devs {
		tag := rng.next()
		d := deviceSpec{
			id:      fmt.Sprintf("m%06x-%04d", tag&0xffffff, i),
			key:     rng.next(),
			current: units.Current(20000 + rng.next()%180000), // 20..200 mA
		}
		if w.period > 0 {
			d.phase = time.Duration(rng.next() % uint64(w.period))
		}
		d.reportTopic = protocol.ReportTopic(aggID, d.id)
		d.controlTopic = protocol.ControlTopic(aggID, d.id)
		devs[i] = d
	}
	sort.Slice(devs, func(a, b int) bool {
		if devs[a].phase != devs[b].phase {
			return devs[a].phase < devs[b].phase
		}
		return devs[a].id < devs[b].id
	})
	return devs
}

// fillReport writes report number k (0-based) of device d into ms, which
// must hold w.batch measurements, and returns the sequence number its
// ReportAck will carry. The content is a pure function of the device, k and
// the due time. A batch is a store-and-forward tail: measurements taken one
// Tmeasure apart up to the due time, flagged Buffered, in a seeded shuffled
// order; a single measurement is stamped with the due time itself.
func fillReport(w workload, d *deviceSpec, k int, due time.Time, ms []protocol.Measurement) uint64 {
	rng := splitmix(d.key + uint64(k)*0x2545f4914f6cdd1d)
	first := uint64(k*w.batch) + 1
	for j := range ms {
		cur := d.current + units.Current(rng.next()%2001) - 1000
		volt := 5*units.Volt + units.Voltage(rng.next()%100001) - 50000
		ms[j] = protocol.Measurement{
			Seq:       first + uint64(j),
			Timestamp: due.Add(-time.Duration(len(ms)-1-j) * tmeasure),
			Interval:  tmeasure,
			Current:   cur,
			Voltage:   volt,
			Energy:    units.EnergyFromIVOver(cur, volt, tmeasure),
			Buffered:  w.batch > 1,
		}
	}
	for j := len(ms) - 1; j > 0; j-- {
		i := int(rng.next() % uint64(j+1))
		ms[i], ms[j] = ms[j], ms[i]
	}
	return first + uint64(len(ms)) - 1
}
