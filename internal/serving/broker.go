// Package serving is the shared HTTP/SSE serving core behind both
// monitoring tiers: the single-vantage node daemon (rfdumpd) and the
// fleet aggregator (rfdumpc). Both export the identical surface —
// /api/live with ?since= catch-up, /api/history bounds, the paged DVR
// query endpoints, health probes, metrics — from the same handler code
// over the same record path. That is what makes broker trees possible:
// an aggregator subscribes to another aggregator exactly as it
// subscribes to a node, because the surfaces cannot drift apart.
//
// The pieces: a sharded SSE Broker (bounded per-subscriber queues,
// drop-and-count, consecutive-drop eviction), the Ledger (store, broker
// and sequence allocator behind one lock — the one write path of both
// tiers, and the replay behind the ?since= seam), a per-host query
// Quota, and a Core that registers the shared routes over them.
//
// The cardinal rule of the fan-out is that observers never apply
// backpressure to ingest: every subscriber owns a bounded queue, and a
// publisher that finds it full drops the event for that subscriber and
// counts the drop. A stalled dashboard loses events; the 8 Msps sample
// path loses nothing.
package serving

import (
	"runtime"
	"sync"
	"sync/atomic"

	"rfdump/internal/history"
	"rfdump/internal/metrics"
)

// Event is one entry of the live feed. Type selects which payload field
// is set: "detection", "packet", "stream-open", "stream-close",
// "stream-resume" (a reconnecting transmitter stitched a new
// connection onto an existing stream); the aggregation tier adds
// "detection-update" (new evidence merged into an already-published
// detection) and seq-less "node-up"/"node-down" connectivity edges.
type Event struct {
	// Seq is the publisher-wide event sequence number; a gap tells a
	// subscriber it was too slow and events were dropped. Connectivity
	// edges carry no seq (0).
	Seq uint64 `json:"seq"`
	// Type is the event kind.
	Type string `json:"type"`
	// Stream is the stream id the event belongs to.
	Stream uint64 `json:"stream"`
	// Epoch is the stream's connection epoch at the event (0 for the
	// first connection; reconnects increment it).
	Epoch uint32 `json:"epoch,omitempty"`
	// Detection is set for "detection" and "detection-update" events.
	Detection *history.DetectionRecord `json:"detection,omitempty"`
	// Packet is set for "packet" events.
	Packet *history.PacketEvent `json:"packet,omitempty"`
	// Error carries the session error on "stream-close" (empty = clean)
	// and the node id on "node-up"/"node-down".
	Error string `json:"error,omitempty"`
}

// Subscriber is one bounded event queue. Read Events until it is
// unsubscribed; Dropped counts events the publisher discarded because
// the queue was full. A subscriber that falls so far behind that it
// drops eviction-threshold events in a row is evicted: unsubscribed by
// the broker, its channel closed.
type Subscriber struct {
	ch      chan Event
	types   map[string]bool // nil = all types
	shard   *brokerShard    // home shard, for O(1) unsubscribe
	dropped atomic.Int64
	lag     atomic.Int64 // consecutive drops; reset on delivery
	evicted atomic.Bool
}

// Events returns the receive side of the queue.
func (s *Subscriber) Events() <-chan Event { return s.ch }

// Dropped returns how many events this subscriber lost to backpressure.
func (s *Subscriber) Dropped() int64 { return s.dropped.Load() }

// Evicted reports whether the broker kicked this subscriber for
// sustained lag (its Events channel is closed).
func (s *Subscriber) Evicted() bool { return s.evicted.Load() }

// wantsType reports whether the subscriber's type filter admits events
// of type t (the SSE catch-up replay filters synthesized events through
// the same subscription filter).
func (s *Subscriber) wantsType(t string) bool { return s.types == nil || s.types[t] }

// brokerShard is one shared-nothing slice of the subscriber set: its
// own map under its own lock. Nothing is shared between shards but the
// broker's counters (which are atomic), so subscriber churn on one
// shard never contends with publishes draining another.
type brokerShard struct {
	mu   sync.RWMutex
	subs map[*Subscriber]struct{}
}

// Broker fans events out to subscribers with per-subscriber bounded
// queues. Publish never blocks: a full queue means the event is dropped
// for that subscriber and counted, both per-subscriber and in the
// registry ("server/sse/dropped_events"), where the /api/metricz scrape
// makes slow consumers visible. Drop-and-count alone lets a dead
// consumer hold its queue (and its HTTP connection) forever, so the
// broker also enforces bounded lag: a subscriber that drops evictAfter
// events consecutively is evicted — unsubscribed, channel closed,
// counted in "server/conns_evicted".
//
// The subscriber set is sharded: round-robin assignment into N
// shared-nothing maps, each under its own RWMutex. With one map and one
// lock, every Subscribe/Unsubscribe (write lock) serializes against
// every in-flight Publish (read lock) — at aggregation-tier fan-out
// (tens of thousands of SSE clients connecting and disconnecting
// continuously) that single lock is the ingest path's bottleneck.
// Sharding cuts the contention domain by N: churn on one shard stalls
// only 1/N of a publish, and publishes hold each shard lock only long
// enough to drain that shard's subscribers.
type Broker struct {
	queue      int
	evictAfter int // consecutive drops before eviction; 0 disables

	shards []*brokerShard
	rr     atomic.Uint64 // round-robin shard assignment
	count  atomic.Int64  // live subscribers across all shards

	published  *metrics.Counter
	dropped    *metrics.Counter
	evictCount *metrics.Counter
	gauge      *metrics.Gauge
}

// defaultBrokerShards sizes the shard set to the machine: one shard per
// core, capped — past ~16 shards the per-shard maps are so small that
// more sharding only adds iteration overhead.
func defaultBrokerShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	return n
}

// NewBroker returns a broker handing each subscriber a queue of the
// given length (minimum 1), sharded for this machine's core count.
// evictAfter is the consecutive-drop budget before a subscriber is
// evicted (0 disables eviction). reg may be nil.
func NewBroker(queue, evictAfter int, reg *metrics.Registry) *Broker {
	return NewBrokerSharded(queue, evictAfter, 0, reg)
}

// NewBrokerSharded is NewBroker with an explicit shard count (≤0 takes
// the machine default).
func NewBrokerSharded(queue, evictAfter, shards int, reg *metrics.Registry) *Broker {
	if queue < 1 {
		queue = 1
	}
	if evictAfter < 0 {
		evictAfter = 0
	}
	if shards <= 0 {
		shards = defaultBrokerShards()
	}
	b := &Broker{
		queue:      queue,
		evictAfter: evictAfter,
		shards:     make([]*brokerShard, shards),
		published:  reg.Counter("server/sse/events"),
		dropped:    reg.Counter("server/sse/dropped_events"),
		evictCount: reg.Counter("server/conns_evicted"),
		gauge:      reg.Gauge("server/sse/subscribers"),
	}
	for i := range b.shards {
		b.shards[i] = &brokerShard{subs: make(map[*Subscriber]struct{})}
	}
	return b
}

// Shards returns the shard count (observability; fixed for the
// broker's lifetime).
func (b *Broker) Shards() int { return len(b.shards) }

// Subscribers returns the current live subscriber count.
func (b *Broker) Subscribers() int64 { return b.count.Load() }

// Subscribe registers a new queue. An empty types list subscribes to
// every event type.
func (b *Broker) Subscribe(types ...string) *Subscriber {
	sh := b.shards[b.rr.Add(1)%uint64(len(b.shards))]
	s := &Subscriber{ch: make(chan Event, b.queue), shard: sh}
	if len(types) > 0 {
		s.types = make(map[string]bool, len(types))
		for _, t := range types {
			s.types[t] = true
		}
	}
	sh.mu.Lock()
	sh.subs[s] = struct{}{}
	sh.mu.Unlock()
	b.gauge.Set(b.count.Add(1))
	return s
}

// Unsubscribe removes the queue and closes its channel.
func (b *Broker) Unsubscribe(s *Subscriber) {
	sh := s.shard
	sh.mu.Lock()
	_, ok := sh.subs[s]
	if ok {
		delete(sh.subs, s)
		close(s.ch)
	}
	sh.mu.Unlock()
	if ok {
		b.gauge.Set(b.count.Add(-1))
	}
}

// Publish delivers the event to every subscriber whose queue has room;
// the rest drop-and-count, and a subscriber that exhausts the
// consecutive-drop budget is evicted. It runs on pipeline callback
// goroutines and must never block — evictions are collected under the
// per-shard read locks and applied after them.
func (b *Broker) Publish(ev Event) {
	b.published.Inc()
	var evictees []*Subscriber
	for _, sh := range b.shards {
		sh.mu.RLock()
		for s := range sh.subs {
			if !s.wantsType(ev.Type) {
				continue
			}
			select {
			case s.ch <- ev:
				s.lag.Store(0)
			default:
				s.dropped.Add(1)
				b.dropped.Inc()
				if b.evictAfter > 0 && s.lag.Add(1) >= int64(b.evictAfter) &&
					s.evicted.CompareAndSwap(false, true) {
					evictees = append(evictees, s)
				}
			}
		}
		sh.mu.RUnlock()
	}
	for _, s := range evictees {
		b.evictCount.Inc()
		b.Unsubscribe(s)
	}
}
