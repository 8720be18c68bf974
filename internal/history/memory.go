package history

import (
	"fmt"
	"sync"

	"rfdump/internal/iq"
	"rfdump/internal/metrics"
)

// MemoryConfig sizes the in-memory store.
type MemoryConfig struct {
	// DetectionCap / PacketCap bound the record rings (defaults 4096
	// and 2048). Negative values are rejected — a caller that computed
	// a negative capacity has a bug upstream, and silently defaulting
	// would hide it.
	DetectionCap int
	PacketCap    int
	// TileCap bounds the waterfall-tile ring (default 512).
	TileCap int
	// SnippetCap / SnippetMaxBytes bound captured IQ bursts by count
	// (default 256) and total payload (default 16 MiB); the oldest
	// snippets are evicted first on either budget.
	SnippetCap      int
	SnippetMaxBytes int64
	// Registry receives history/* instruments; may be nil.
	Registry *metrics.Registry
}

// Memory is the bounded in-memory Store: one overwrite-oldest ring per
// record type. It is the default — zero configuration, no disk, history
// dies with the process.
type Memory struct {
	mu         sync.Mutex
	detections seqRing[DetectionRecord]
	packets    seqRing[PacketEvent]
	tiles      seqRing[Tile]
	snippets   []*Snippet // oldest first
	snipIndex  map[snipKey]*Snippet
	snipBytes  int64
	cfg        MemoryConfig
	lastSeq    uint64
	appended   int64
	evictedN   int64
	closed     bool

	appends *metrics.Counter
	evicted *metrics.Counter
}

type snipKey struct{ stream, detection uint64 }

// NewMemory validates the configuration and builds the store.
func NewMemory(cfg MemoryConfig) (*Memory, error) {
	if cfg.DetectionCap < 0 || cfg.PacketCap < 0 {
		return nil, fmt.Errorf("history: negative ring capacity (detections %d, packets %d)",
			cfg.DetectionCap, cfg.PacketCap)
	}
	if cfg.TileCap < 0 || cfg.SnippetCap < 0 || cfg.SnippetMaxBytes < 0 {
		return nil, fmt.Errorf("history: negative capacity (tiles %d, snippets %d, snippet bytes %d)",
			cfg.TileCap, cfg.SnippetCap, cfg.SnippetMaxBytes)
	}
	if cfg.DetectionCap == 0 {
		cfg.DetectionCap = 4096
	}
	if cfg.PacketCap == 0 {
		cfg.PacketCap = 2048
	}
	if cfg.TileCap == 0 {
		cfg.TileCap = 512
	}
	if cfg.SnippetCap == 0 {
		cfg.SnippetCap = 256
	}
	if cfg.SnippetMaxBytes == 0 {
		cfg.SnippetMaxBytes = 16 << 20
	}
	return &Memory{
		detections: newSeqRing[DetectionRecord](cfg.DetectionCap),
		packets:    newSeqRing[PacketEvent](cfg.PacketCap),
		tiles:      newSeqRing[Tile](cfg.TileCap),
		snipIndex:  make(map[snipKey]*Snippet),
		cfg:        cfg,
		appends:    cfg.Registry.Counter("history/appends"),
		evicted:    cfg.Registry.Counter("history/evicted"),
	}, nil
}

// stamp assigns the next sequence when the record arrives unstamped and
// tracks the high-water mark either way.
func (m *Memory) stamp(seq *uint64) {
	if *seq == 0 {
		m.lastSeq++
		*seq = m.lastSeq
	} else if *seq > m.lastSeq {
		m.lastSeq = *seq
	}
	m.appended++
	m.appends.Inc()
}

// AppendDetection implements Store.
func (m *Memory) AppendDetection(rec *DetectionRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.stamp(&rec.Seq)
	if m.detections.add(*rec, rec.Seq) {
		m.evictedN++
		m.evicted.Inc()
	}
	return nil
}

// AppendPacket implements Store.
func (m *Memory) AppendPacket(ev *PacketEvent) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.stamp(&ev.Seq)
	if m.packets.add(*ev, ev.Seq) {
		m.evictedN++
		m.evicted.Inc()
	}
	return nil
}

// AppendTile implements Store.
func (m *Memory) AppendTile(t *Tile) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.stamp(&t.Seq)
	if m.tiles.add(*t, t.Seq) {
		m.evictedN++
		m.evicted.Inc()
	}
	return nil
}

// AppendSnippet implements Store. The IQ payload is copied — the
// capture path reuses its buffer.
func (m *Memory) AppendSnippet(s *Snippet) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.stamp(&s.Seq)
	own := *s
	own.IQ = append(iq.Samples(nil), s.IQ...)
	p := &own
	m.snippets = append(m.snippets, p)
	m.snipIndex[snipKey{p.Stream, p.Detection}] = p
	m.snipBytes += p.Bytes()
	for len(m.snippets) > 1 &&
		(len(m.snippets) > m.cfg.SnippetCap || m.snipBytes > m.cfg.SnippetMaxBytes) {
		old := m.snippets[0]
		m.snippets = m.snippets[1:]
		m.snipBytes -= old.Bytes()
		if m.snipIndex[snipKey{old.Stream, old.Detection}] == old {
			delete(m.snipIndex, snipKey{old.Stream, old.Detection})
		}
		m.evictedN++
		m.evicted.Inc()
	}
	return nil
}

// RecentDetections implements Store (limit <= 0 returns everything the
// ring retains).
func (m *Memory) RecentDetections(stream uint64, limit int) []DetectionRecord {
	m.mu.Lock()
	all := m.detections.snapshot()
	m.mu.Unlock()
	return filterTail(all, limit, func(r DetectionRecord) bool {
		return stream == 0 || r.Stream == stream
	})
}

// RecentPackets implements Store.
func (m *Memory) RecentPackets(stream uint64, limit int) []PacketEvent {
	m.mu.Lock()
	all := m.packets.snapshot()
	m.mu.Unlock()
	return filterTail(all, limit, func(e PacketEvent) bool {
		return stream == 0 || e.Stream == stream
	})
}

// QueryDetections implements Store.
func (m *Memory) QueryDetections(q Query) ([]DetectionRecord, uint64, bool, error) {
	m.mu.Lock()
	all := m.detections.snapshot()
	m.mu.Unlock()
	return page(all, q, func(r DetectionRecord) (uint64, uint64, float64) {
		return r.Seq, r.Stream, r.TimeS
	})
}

// QueryPackets implements Store.
func (m *Memory) QueryPackets(q Query) ([]PacketEvent, uint64, bool, error) {
	m.mu.Lock()
	all := m.packets.snapshot()
	m.mu.Unlock()
	return page(all, q, func(e PacketEvent) (uint64, uint64, float64) {
		return e.Seq, e.Stream, e.TimeS
	})
}

// QueryTiles implements Store.
func (m *Memory) QueryTiles(q Query) ([]Tile, uint64, bool, error) {
	m.mu.Lock()
	all := m.tiles.snapshot()
	m.mu.Unlock()
	return page(all, q, func(t Tile) (uint64, uint64, float64) {
		return t.Seq, t.Stream, t.TimeS
	})
}

// Snippet implements Store, returning a copy safe to hold after the
// original is evicted.
func (m *Memory) Snippet(stream, detection uint64) (*Snippet, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	p, ok := m.snipIndex[snipKey{stream, detection}]
	if !ok {
		return nil, ErrNotFound
	}
	out := *p
	out.IQ = append(iq.Samples(nil), p.IQ...)
	return &out, nil
}

// LastSeq implements Store.
func (m *Memory) LastSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastSeq
}

// Stats implements Store.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{
		Kind:         "memory",
		LastSeq:      m.lastSeq,
		Detections:   int64(m.detections.len()),
		Packets:      int64(m.packets.len()),
		Tiles:        int64(m.tiles.len()),
		Snippets:     int64(len(m.snippets)),
		Appended:     m.appended,
		Evicted:      m.evictedN,
		Bytes:        m.snipBytes,
		DetectionCap: m.cfg.DetectionCap,
		PacketCap:    m.cfg.PacketCap,
	}
	// Time bounds span every record type, matching the segment store.
	dLo, dHi, dAny := m.detections.timeBounds(func(r DetectionRecord) float64 { return r.TimeS })
	pLo, pHi, pAny := m.packets.timeBounds(func(r PacketEvent) float64 { return r.TimeS })
	tLo, tHi, tAny := m.tiles.timeBounds(func(r Tile) float64 { return r.TimeS })
	first := true
	for _, b := range []struct {
		lo, hi float64
		any    bool
	}{{dLo, dHi, dAny}, {pLo, pHi, pAny}, {tLo, tHi, tAny}} {
		if !b.any {
			continue
		}
		if first || b.lo < st.OldestTimeS {
			st.OldestTimeS = b.lo
		}
		if first || b.hi > st.NewestTimeS {
			st.NewestTimeS = b.hi
		}
		first = false
	}
	return st
}

// Close implements Store. The memory store has nothing to flush;
// further appends and snippet lookups fail with ErrClosed.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// page applies the query contract to a seq-ordered snapshot: records
// after the cursor matching the stream/time filters, one page plus a
// lookahead bit.
func page[T any](all []T, q Query, key func(T) (seq, stream uint64, t float64)) ([]T, uint64, bool, error) {
	limit := q.limit()
	var out []T
	next := q.Cursor
	more := false
	for _, v := range all {
		seq, stream, ts := key(v)
		if seq <= q.Cursor || !q.matchStream(stream) || !q.matchTime(ts) {
			continue
		}
		if len(out) == limit {
			more = true
			break
		}
		out = append(out, v)
		next = seq
	}
	return out, next, more, nil
}

// filterTail keeps matching entries, then the newest limit of them.
func filterTail[T any](in []T, limit int, keep func(T) bool) []T {
	out := in[:0]
	for _, v := range in {
		if keep(v) {
			out = append(out, v)
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	res := make([]T, len(out))
	copy(res, out)
	return res
}

// seqRing is a fixed-capacity overwrite-oldest buffer whose snapshot
// comes back oldest-first (seq ascending, since appends are ordered).
type seqRing[T any] struct {
	buf  []T
	next int
	full bool
}

func newSeqRing[T any](n int) seqRing[T] {
	if n < 1 {
		n = 1
	}
	return seqRing[T]{buf: make([]T, n)}
}

// add stores v, reporting whether an older entry was overwritten.
func (r *seqRing[T]) add(v T, _ uint64) (evicted bool) {
	evicted = r.full
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	return evicted
}

func (r *seqRing[T]) len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// snapshot returns the contents oldest-first.
func (r *seqRing[T]) snapshot() []T {
	if !r.full {
		out := make([]T, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// timeBounds returns the oldest and newest timestamps retained.
func (r *seqRing[T]) timeBounds(t func(T) float64) (lo, hi float64, ok bool) {
	n := r.len()
	if n == 0 {
		return 0, 0, false
	}
	if !r.full {
		return t(r.buf[0]), t(r.buf[r.next-1]), true
	}
	newest := r.next - 1
	if newest < 0 {
		newest = len(r.buf) - 1
	}
	return t(r.buf[r.next]), t(r.buf[newest]), true
}
