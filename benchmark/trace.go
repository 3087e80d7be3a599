package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one report or one window
// share Trace; Parent is the ID of the span that caused this one, 0 for a
// root. Times are nanoseconds since the recorder was created.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the pass ends. It is used from one
// goroutine.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its id.
func (r *recorder) add(parent uint64, trace, name string, start, end time.Time) uint64 {
	id := uint64(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		StartNs: int64(start.Sub(r.epoch)), EndNs: int64(end.Sub(r.epoch)),
	})
	return id
}

// timed runs fn as a child span of parent.
func (r *recorder) timed(parent uint64, trace, name string, fn func()) {
	start := time.Now()
	fn()
	r.add(parent, trace, name, start, time.Now())
}

// root reserves a root span whose interval is set by finish once its
// children have run.
func (r *recorder) root(trace, name string) (id uint64, finish func()) {
	start := time.Now()
	id = r.add(0, trace, name, start, start)
	return id, func() { r.spans[id-1].EndNs = int64(time.Since(r.epoch)) }
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover. Children may overlap one another and
// may stick out of the parent; only covered time inside the parent counts.
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, cursor := int64(0), s.StartNs
		for _, k := range kids {
			from, to := max(k.StartNs, cursor), min(k.EndNs, s.EndNs)
			if to > from {
				covered += to - from
				cursor = to
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// selfByName sums self time per span name, in nanoseconds.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// generatorSpans turns the sampled reports of a traced daemon pass into
// spans: a root "report" from due time to ReportAck with children
// schedule_wait (due -> publish call), publish (-> PUBACK) and ack_wait
// (-> ReportAck). meterd sends the ack from its own goroutine, so it can
// overtake the PUBACK; ack_wait is then empty.
func generatorSpans(r *recorder, traces []*reportTrace) {
	for _, t := range traces {
		if t.acked.IsZero() || t.sent.IsZero() {
			continue
		}
		puback := t.sent.Add(time.Duration(t.pubackedAfter.Load()))
		if t.pubackedAfter.Load() == 0 || puback.After(t.acked) {
			puback = t.acked
		}
		root := r.add(0, t.device, "report", t.due, t.acked)
		r.add(root, t.device, "schedule_wait", t.due, t.sent)
		r.add(root, t.device, "publish", t.sent, puback)
		r.add(root, t.device, "ack_wait", puback, t.acked)
	}
}
