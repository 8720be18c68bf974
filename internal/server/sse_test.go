package server

import (
	"testing"

	"rfdump/internal/metrics"
	"rfdump/internal/serving"
)

func TestBrokerDropAndCount(t *testing.T) {
	reg := metrics.NewRegistry()
	b := serving.NewBroker(4, 0, reg)
	sub := b.Subscribe()
	for i := 1; i <= 20; i++ {
		b.Publish(serving.Event{Seq: uint64(i), Type: "detection", Stream: 1})
	}
	if got := sub.Dropped(); got != 16 {
		t.Errorf("subscriber dropped %d, want 16", got)
	}
	if got := reg.Counter("server/sse/dropped_events").Load(); got != 16 {
		t.Errorf("registry dropped_events %d, want 16", got)
	}
	if got := reg.Counter("server/sse/events").Load(); got != 20 {
		t.Errorf("registry events %d, want 20", got)
	}
	// The queue kept the oldest events, in order.
	for want := uint64(1); want <= 4; want++ {
		ev := <-sub.Events()
		if ev.Seq != want {
			t.Errorf("queued seq %d, want %d", ev.Seq, want)
		}
	}
	select {
	case ev := <-sub.Events():
		t.Errorf("unexpected queued event %+v", ev)
	default:
	}
	b.Unsubscribe(sub)
}

func TestBrokerTypeFilter(t *testing.T) {
	b := serving.NewBroker(8, 0, nil)
	sub := b.Subscribe("packet")
	b.Publish(serving.Event{Seq: 1, Type: "detection"})
	b.Publish(serving.Event{Seq: 2, Type: "packet"})
	b.Publish(serving.Event{Seq: 3, Type: "stream-close"})
	ev := <-sub.Events()
	if ev.Type != "packet" || ev.Seq != 2 {
		t.Errorf("filtered event %+v", ev)
	}
	select {
	case ev := <-sub.Events():
		t.Errorf("filter leaked %+v", ev)
	default:
	}
	if got := sub.Dropped(); got != 0 {
		t.Errorf("filtered events counted as drops: %d", got)
	}
	b.Unsubscribe(sub)
}

func TestBrokerUnsubscribeClosesQueue(t *testing.T) {
	b := serving.NewBroker(2, 0, nil)
	sub := b.Subscribe()
	b.Unsubscribe(sub)
	if _, open := <-sub.Events(); open {
		t.Error("channel still open after unsubscribe")
	}
	// Idempotent, and publishing after unsubscribe is harmless.
	b.Unsubscribe(sub)
	b.Publish(serving.Event{Seq: 1, Type: "detection"})
}

func TestSampleRingWraparound(t *testing.T) {
	r := newSampleRing(300)
	feed := func(base, n int) {
		s := make([]complex64, n)
		for i := range s {
			s[i] = complex(float32(base+i), 0)
		}
		r.Append(s)
	}
	feed(0, 250)
	feed(250, 120) // total 370: ring holds 70..369
	got := r.Snapshot()
	if len(got) != 300 {
		t.Fatalf("snapshot len %d, want 300", len(got))
	}
	for i, v := range got {
		if real(v) != float32(70+i) {
			t.Fatalf("snapshot[%d] = %v, want %d", i, v, 70+i)
		}
	}
	if r.Total() != 370 {
		t.Errorf("total %d, want 370", r.Total())
	}
	// An append larger than the ring keeps only the newest samples.
	feed(1000, 900)
	got = r.Snapshot()
	if len(got) != 300 || real(got[0]) != 1600 || real(got[299]) != 1899 {
		t.Errorf("oversized append: len=%d first=%v last=%v", len(got), got[0], got[len(got)-1])
	}
}
