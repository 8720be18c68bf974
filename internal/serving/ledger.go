package serving

import (
	"sync"

	"rfdump/internal/history"
)

// Ledger is the one record path under both tiers: a history store, the
// live-feed broker and the sequence allocator behind one mutex. Every
// write is stamp → append → publish as a single step, so sequence order
// == append order == publish order by construction — what a downstream
// manager's seq-dedup guard, the SSE ?since= seam filter and the
// store's cursor pagination all rely on. The node hub writes raw
// records through it; the aggregator's fused ledger writes its WAL
// through it; Core reads both back through the same Replay.
//
// A record the store refused is not published and takes no sequence
// number: the feed never carries a seq that a ?since= replay could not
// return, and never shows a gap a subscriber would read as its own
// drop. The error goes to the caller, which counts it.
type Ledger struct {
	store  history.Store
	broker *Broker

	mu  sync.Mutex
	seq uint64
}

// NewLedger builds the ledger over store and broker (both required),
// seeding the allocator past everything the store already holds so a
// tier restarting over a disk store keeps sequence numbers strictly
// increasing across its whole history. The ledger owns the store and
// closes it in Close.
func NewLedger(store history.Store, broker *Broker) *Ledger {
	return &Ledger{store: store, broker: broker, seq: store.LastSeq()}
}

// Broker returns the live feed: Subscribe/Unsubscribe, and Publish for
// seq-less connectivity edges that are no part of the ledger.
func (l *Ledger) Broker() *Broker { return l.broker }

// Store returns the store for reads (queries, recent snapshots, stats).
// Writes go through the ledger's own methods, never the store directly.
func (l *Ledger) Store() history.Store { return l.store }

// Close releases the store (segment stores flush and close their
// files). Writes after Close fail with the store's error.
func (l *Ledger) Close() error { return l.store.Close() }

// LastSeq returns the newest sequence number the ledger assigned.
func (l *Ledger) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Stats returns the /api/history body (store retention snapshot).
func (l *Ledger) Stats() history.Stats { return l.store.Stats() }

// write is the one write path: stamp the record with the next sequence
// number, append it, and — when the record has a live event — publish
// that event under the same number, all inside the ledger lock. Publish
// never blocks (bounded subscriber queues), so holding the lock across
// it is safe. A refused record is left unstamped (Seq 0).
func (l *Ledger) write(seq *uint64, appendRec func() error, ev *Event) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	*seq = l.seq + 1
	if err := appendRec(); err != nil {
		*seq = 0
		return err
	}
	l.seq = *seq
	if ev != nil {
		ev.Seq = *seq
		l.broker.Publish(*ev)
	}
	return nil
}

// eventType maps a stored detection record to its feed event type.
func eventType(rec *history.DetectionRecord) string {
	if rec.Merge {
		return "detection-update"
	}
	return "detection"
}

// Detection appends rec and publishes it as a "detection" event, or
// "detection-update" when rec.Merge is set (the aggregator's WAL marks
// evidence merged into an already-published detection that way). rec is
// stamped in place and shared with the published event: the caller must
// not modify it afterwards.
func (l *Ledger) Detection(rec *history.DetectionRecord) error {
	return l.write(&rec.Seq, func() error { return l.store.AppendDetection(rec) },
		&Event{Type: eventType(rec), Stream: rec.Stream, Epoch: rec.Epoch, Detection: rec})
}

// Packet appends ev and publishes it as a "packet" event under the
// stream's current epoch (packet records do not store one). ev is
// shared with the published event, as in Detection.
func (l *Ledger) Packet(ev *history.PacketEvent, epoch uint32) error {
	return l.write(&ev.Seq, func() error { return l.store.AppendPacket(ev) },
		&Event{Type: "packet", Stream: ev.Stream, Epoch: epoch, Packet: ev})
}

// Tile appends one waterfall column. No live event: the feed carries
// detections and packets; tiles are history for the query API.
func (l *Ledger) Tile(t *history.Tile) error {
	return l.write(&t.Seq, func() error { return l.store.AppendTile(t) }, nil)
}

// Snippet appends one captured IQ burst (no live event). The store
// copies s.IQ; the capture path reuses the buffer.
func (l *Ledger) Snippet(s *history.Snippet) error {
	return l.write(&s.Seq, func() error { return l.store.AppendSnippet(s) }, nil)
}

// Announce publishes a lifecycle event (stream-open, stream-close,
// stream-resume) under the next sequence number. Lifecycle events are
// ordered with the records around them but not stored, so they never
// replay.
func (l *Ledger) Announce(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	ev.Seq = l.seq
	l.broker.Publish(ev)
}

// replayLimit bounds how much stored history one SSE ?since= catch-up
// replays before handing over to the live feed.
const replayLimit = 4096

// collect pages one record type from the store, strictly after since,
// up to the replay bound. A store error ends the walk with what it had.
func collect[T any](query func(history.Query) ([]T, uint64, bool, error), since uint64) []T {
	var out []T
	_ = history.Walk(query, since, func(recs []T) bool {
		out = append(out, recs...)
		return len(out) < replayLimit
	})
	return out
}

// Replay emits stored detection and packet records with Seq > since as
// synthesized feed events, merged in sequence order and filtered
// through wants (the subscriber's type filter), and returns the newest
// sequence emitted (since when nothing qualified).
//
// The replay stops at the sequence horizon read before the first query.
// A seq is assigned only after its append, so everything at or below
// the horizon is in the store already and both queries cover it fully;
// records landing between the two queries lie above it and are left to
// the live tail — a caller that subscribed before calling Replay and
// skips live events at or below the returned seq sees each record once.
func (l *Ledger) Replay(since uint64, wants func(string) bool, emit func(Event)) uint64 {
	last, horizon := since, l.LastSeq()
	var dets []history.DetectionRecord
	var pkts []history.PacketEvent
	if wants("detection") || wants("detection-update") {
		dets = collect(l.store.QueryDetections, since)
	}
	if wants("packet") {
		pkts = collect(l.store.QueryPackets, since)
	}
	di, pi := 0, 0
	for di < len(dets) || pi < len(pkts) {
		var ev Event
		if pi >= len(pkts) || (di < len(dets) && dets[di].Seq < pkts[pi].Seq) {
			rec := dets[di]
			di++
			typ := eventType(&rec)
			if !wants(typ) {
				continue
			}
			ev = Event{Seq: rec.Seq, Type: typ, Stream: rec.Stream, Epoch: rec.Epoch, Detection: &rec}
		} else {
			pe := pkts[pi]
			pi++
			ev = Event{Seq: pe.Seq, Type: "packet", Stream: pe.Stream, Packet: &pe}
		}
		if ev.Seq > horizon {
			break
		}
		emit(ev)
		if ev.Seq > last {
			last = ev.Seq
		}
	}
	return last
}
