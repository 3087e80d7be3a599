package sim

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestWallTickerStopsAndWaits(t *testing.T) {
	w := NewWall()
	var ticks atomic.Int64
	fired := make(chan struct{}, 1)
	stop := w.Ticker(time.Millisecond, func(now Time) {
		if now <= 0 {
			t.Errorf("tick at %v", now)
		}
		ticks.Add(1)
		select {
		case fired <- struct{}{}:
		default:
		}
	})
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("ticker never fired")
	}
	stop()
	n := ticks.Load()
	stop() // idempotent
	time.Sleep(5 * time.Millisecond)
	if got := ticks.Load(); got != n {
		t.Fatalf("%d ticks after stop returned", got-n)
	}
}

func TestWallScheduleAndCancel(t *testing.T) {
	w := NewWall()
	ran := make(chan struct{})
	ref := w.Schedule(time.Millisecond, func() { close(ran) })
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("scheduled callback never ran")
	}
	if w.Cancel(ref) {
		t.Error("cancelled a scheduling that already fired")
	}

	var late atomic.Bool
	ref = w.Schedule(20*time.Millisecond, func() { late.Store(true) })
	if !w.Cancel(ref) {
		t.Fatal("could not cancel a pending scheduling")
	}
	if w.Cancel(ref) || w.Cancel(EventRef{}) {
		t.Error("cancel of a dead or zero ref reported true")
	}
	time.Sleep(40 * time.Millisecond)
	if late.Load() {
		t.Error("cancelled callback ran")
	}
}
