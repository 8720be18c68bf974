package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rfdump/internal/history"
	"rfdump/internal/metrics"
	"rfdump/internal/serving"
)

// fakeNode mimics the two rfdumpd endpoints the manager speaks:
// /api/history for the seq-epoch probe and /api/live for the
// replay-then-tail feed. The live handler replays everything past the
// cursor, then holds the connection open and tails extend()ed events —
// and drops it when set() installs a new epoch, exactly the connection
// failure a real restart produces.
type fakeNode struct {
	mu      sync.Mutex
	epoch   int
	lastSeq uint64
	events  []serving.Event
	lives   int
}

func (n *fakeNode) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/history", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		last := n.lastSeq
		n.mu.Unlock()
		fmt.Fprintf(w, `{"kind":"fake","last_seq":%d}`, last)
	})
	mux.HandleFunc("/api/live", func(w http.ResponseWriter, r *http.Request) {
		since, _ := strconv.ParseUint(r.URL.Query().Get("since"), 10, 64)
		w.Header().Set("Content-Type", "text/event-stream")
		fl := w.(http.Flusher)
		n.mu.Lock()
		n.lives++
		epoch := n.epoch
		n.mu.Unlock()
		cur := since
		for {
			n.mu.Lock()
			if n.epoch != epoch {
				n.mu.Unlock()
				return // restarted: the old daemon's connections die
			}
			var pending []serving.Event
			for _, ev := range n.events {
				if ev.Seq > cur {
					pending = append(pending, ev)
				}
			}
			n.mu.Unlock()
			for _, ev := range pending {
				buf, _ := json.Marshal(ev)
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, buf)
				cur = ev.Seq
			}
			fl.Flush()
			select {
			case <-r.Context().Done():
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	})
	return mux
}

// set replaces the node's entire ledger — a restart installs a fresh
// one whose seqs start over — and severs live connections.
func (n *fakeNode) set(evs []serving.Event) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.epoch++
	n.events = evs
	n.lastSeq = 0
	if len(evs) > 0 {
		n.lastSeq = evs[len(evs)-1].Seq
	}
}

func (n *fakeNode) extend(evs ...serving.Event) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.events = append(n.events, evs...)
	n.lastSeq = n.events[len(n.events)-1].Seq
}

// detEvent builds a detection event; the span identifies the
// over-the-air packet, so re-streaming the same trace after a restart
// reproduces the same spans under fresh seqs.
func detEvent(seq uint64, start int64) serving.Event {
	return serving.Event{
		Seq: seq, Type: "detection", Stream: 1,
		Detection: &history.DetectionRecord{
			Seq: seq, Stream: 1, Family: "wifi", Detector: "timing",
			TimeS: float64(start) / 20e6, AbsStart: start, AbsEnd: start + 20_000,
			Confidence: 0.9, Channel: 6,
		},
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestManagerSeamAcrossRestart is the epoch-seam test: a node restarts
// mid-subscription, its seq allocator starts over, and its replayed
// history overlaps what the aggregator already consumed. The manager
// must detect the restart (store LastSeq below the cursor), reset the
// cursor, take the full replay — and the fuser must dedup the overlap
// by content, so the fused ledger counts each packet exactly once
// across both epochs.
func TestManagerSeamAcrossRestart(t *testing.T) {
	node := &fakeNode{}
	// Epoch 1: five detections on the air, seqs 1..5.
	epoch1 := make([]serving.Event, 0, 5)
	for i := uint64(1); i <= 5; i++ {
		epoch1 = append(epoch1, detEvent(i, int64(i)*1_000_000))
	}
	node.set(epoch1)

	ts := httptest.NewServer(node.handler())
	defer ts.Close()
	api := strings.TrimPrefix(ts.URL, "http://")

	reg := metrics.NewRegistry()
	fuser := NewFuser(MatchConfig{}, reg)
	var cmu sync.Mutex
	created, merged, dups := 0, 0, 0
	m := NewManager(ManagerConfig{
		OnEvent: func(n string, ev serving.Event) {
			if ev.Detection == nil {
				return
			}
			_, res := fuser.Ingest(n, ev.Stream, ev.Detection)
			cmu.Lock()
			switch res {
			case Created:
				created++
			case Merged:
				merged++
			case Duplicate:
				dups++
			}
			cmu.Unlock()
		},
		MinBackoff: time.Millisecond,
		MaxBackoff: 10 * time.Millisecond,
		Seed:       1,
		Registry:   reg,
	})
	defer m.Close()
	m.Add("lab1", api)

	status := func() NodeStatus {
		sts := m.Nodes()
		if len(sts) != 1 {
			t.Fatalf("status for %d nodes, want 1", len(sts))
		}
		return sts[0]
	}
	// The manager advances a node's LastSeq before it calls OnEvent, so
	// the waits below count finished OnEvent calls — what the assertions
	// read — rather than the cursor.
	handled := func() int {
		cmu.Lock()
		defer cmu.Unlock()
		return created + merged + dups
	}
	waitFor(t, "epoch-1 consume", func() bool { return handled() == 5 })
	if fuser.Len() != 5 {
		t.Fatalf("epoch 1 fused %d detections, want 5", fuser.Len())
	}

	// Restart: the node comes back re-streaming the same trace. Its
	// store holds the first three detections again — identical packets,
	// fresh seqs 1..3 hiding behind the aggregator's stale cursor of 5.
	node.set([]serving.Event{
		detEvent(1, 1_000_000), detEvent(2, 2_000_000), detEvent(3, 3_000_000),
	})
	waitFor(t, "restart detect + replay", func() bool {
		st := status()
		return st.Resets == 1 && st.LastSeq == 3 && handled() == 8
	})

	// The replay crossed OnEvent again; content dedup must have eaten
	// all of it.
	cmu.Lock()
	if created != 5 || dups != 3 {
		cmu.Unlock()
		t.Fatalf("after replay: created=%d dups=%d, want 5/3", created, dups)
	}
	cmu.Unlock()
	if fuser.Len() != 5 {
		t.Fatalf("replay grew the fused ledger to %d, want 5", fuser.Len())
	}

	// The epoch-2 node keeps detecting: seqs 4..6 are genuinely new
	// packets and must flow normally from the reset cursor.
	node.extend(detEvent(4, 11_000_000), detEvent(5, 12_000_000), detEvent(6, 13_000_000))
	waitFor(t, "post-restart tail", func() bool { return status().LastSeq == 6 && handled() == 11 })

	cmu.Lock()
	defer cmu.Unlock()
	if created != 8 || dups != 3 || merged != 0 {
		t.Fatalf("final ledger: created=%d merged=%d dups=%d, want 8/0/3", created, merged, dups)
	}
	if got := reg.Counter("cluster/node_resets").Load(); got != 1 {
		t.Fatalf("cluster/node_resets = %d, want 1", got)
	}
	if st := status(); st.Duplicates != 0 {
		// Seq-level duplicates never happened: the seam was handled by
		// cursor reset + content dedup, not by replaying into the guard.
		t.Fatalf("seq-duplicate count %d, want 0", st.Duplicates)
	}
}

// TestManagerRemoveStopsConsuming pins Remove: the loop stops, status
// disappears, and later node activity is never consumed.
func TestManagerRemoveStopsConsuming(t *testing.T) {
	node := &fakeNode{}
	node.set([]serving.Event{detEvent(1, 1_000_000)})
	ts := httptest.NewServer(node.handler())
	defer ts.Close()

	reg := metrics.NewRegistry()
	var cmu sync.Mutex
	seen := 0
	m := NewManager(ManagerConfig{
		OnEvent:    func(string, serving.Event) { cmu.Lock(); seen++; cmu.Unlock() },
		MinBackoff: time.Millisecond,
		MaxBackoff: 5 * time.Millisecond,
		Registry:   reg,
	})
	defer m.Close()
	m.Add("lab1", strings.TrimPrefix(ts.URL, "http://"))
	waitFor(t, "first event", func() bool { cmu.Lock(); defer cmu.Unlock(); return seen == 1 })

	m.Remove("lab1")
	if len(m.Nodes()) != 0 {
		t.Fatal("removed node still reported")
	}
	node.extend(detEvent(2, 2_000_000))
	time.Sleep(30 * time.Millisecond)
	cmu.Lock()
	defer cmu.Unlock()
	if seen != 1 {
		t.Fatalf("removed node's events still consumed: seen=%d", seen)
	}
}
