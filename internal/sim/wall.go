package sim

import (
	"sync"
	"time"
)

// Wall offers Env's scheduling calls — Now, Ticker, Schedule, Cancel — on
// the process clock, so a component written against them can be hosted by a
// daemon unchanged. Callbacks run on timer goroutines, not on one simulation
// goroutine: what they touch must be safe for that.
type Wall struct {
	start time.Time
	// mu guards Event.index of the refs Schedule hands out: a scheduling is
	// claimed once, by its timer firing or by Cancel.
	mu sync.Mutex
}

// NewWall returns a wall-clock scheduler whose Now starts at zero.
func NewWall() *Wall { return &Wall{start: time.Now()} }

func (w *Wall) Now() Time { return time.Since(w.start) }

// Ticker invokes fn every period on its own goroutine. The returned stop is
// idempotent and returns once that goroutine has exited, so no tick is in
// flight afterwards; it must not be called from inside fn.
func (w *Wall) Ticker(period Time, fn func(Time)) (stop func()) {
	t := time.NewTicker(period)
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-t.C:
				fn(w.Now())
			case <-quit:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			t.Stop()
			close(quit)
		})
		<-exited
	}
}

// Schedule runs fn once after delay d unless the ref is cancelled first.
// Pending on the ref is only meaningful while the timer cannot fire.
func (w *Wall) Schedule(d Time, fn func()) EventRef {
	ev := &Event{}
	time.AfterFunc(d, func() {
		if w.claim(ev) {
			fn()
		}
	})
	return EventRef{ev: ev}
}

// Cancel disarms a scheduling that has not fired; a zero, fired or already
// cancelled ref is a no-op.
func (w *Wall) Cancel(r EventRef) bool { return r.ev != nil && w.claim(r.ev) }

func (w *Wall) claim(ev *Event) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if ev.index < 0 {
		return false
	}
	ev.index = -1
	return true
}
