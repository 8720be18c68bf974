package server

import (
	"sync"
	"sync/atomic"
	"time"

	"rfdump/internal/core"
	"rfdump/internal/demod"
	"rfdump/internal/history"
	"rfdump/internal/iq"
	"rfdump/internal/metrics"
	"rfdump/internal/serving"
	"rfdump/internal/trace"
	"rfdump/internal/wire"
)

// Hub is the daemon's shared state: the registry of ingest streams and
// the ledger every record and lifecycle event is written through (store,
// live-feed broker and sequence allocator in one). All mutating entry
// points are called from pipeline callbacks on session goroutines, so
// everything is guarded by the hub mutex, atomic, or delegated to the
// (concurrency-safe) ledger.
type Hub struct {
	clock  iq.Clock
	ledger *serving.Ledger

	mu      sync.Mutex
	streams map[uint64]*Stream
	order   []uint64 // registration order, oldest first
	nextID  uint64

	detCount   *metrics.Counter
	pktCount   *metrics.Counter
	opened     *metrics.Counter
	active     *metrics.Gauge
	reconnects *metrics.Counter
	gapFrames  *metrics.Counter
	gapSamples *metrics.Counter
	storeErrs  *metrics.Counter
}

// HubConfig sizes the hub.
type HubConfig struct {
	// Clock converts sample spans to seconds in records.
	Clock iq.Clock
	// Store persists detections, packets, tiles and IQ snippets
	// (required). The hub owns the store and closes it in Close.
	Store history.Store
	// SubscriberQueue bounds each live-feed subscriber (default 256);
	// EvictAfter is the consecutive-drop budget before a subscriber is
	// evicted (default 4× the queue; negative disables).
	SubscriberQueue int
	EvictAfter      int
	// Registry receives hub and broker counters; may be nil.
	Registry *metrics.Registry
}

// NewHub builds the hub, its broker and the ledger over them.
func NewHub(cfg HubConfig) *Hub {
	if cfg.SubscriberQueue <= 0 {
		cfg.SubscriberQueue = 256
	}
	if cfg.EvictAfter == 0 {
		cfg.EvictAfter = 4 * cfg.SubscriberQueue
	}
	broker := serving.NewBroker(cfg.SubscriberQueue, cfg.EvictAfter, cfg.Registry)
	return &Hub{
		clock:      cfg.Clock,
		ledger:     serving.NewLedger(cfg.Store, broker),
		streams:    make(map[uint64]*Stream),
		detCount:   cfg.Registry.Counter("server/detections"),
		pktCount:   cfg.Registry.Counter("server/packets"),
		opened:     cfg.Registry.Counter("server/streams/opened"),
		active:     cfg.Registry.Gauge("server/streams/active"),
		reconnects: cfg.Registry.Counter("wire/reconnects"),
		gapFrames:  cfg.Registry.Counter("wire/gap_frames"),
		gapSamples: cfg.Registry.Counter("wire/gap_samples"),
		storeErrs:  cfg.Registry.Counter("server/history/errors"),
	}
}

// Broker returns the live-feed broker (Subscribe/Unsubscribe).
func (h *Hub) Broker() *serving.Broker { return h.ledger.Broker() }

// Close releases the history store (segment stores flush and close
// their files). The hub stays usable for stream accounting; ledger
// writes after Close fail and are counted, not fatal.
func (h *Hub) Close() error { return h.ledger.Close() }

// epoch is one ingest connection's tenure on a stream. A stream that
// never loses its link has exactly one; a reconnecting transmitter
// stitches a new epoch on with a resume frame, and the ledger in that
// frame is what prices the gap between them.
type epoch struct {
	num     uint32
	remote  string
	started time.Time
	// resume is the reconnect handshake that opened this epoch (nil for
	// a fresh first connection).
	resume *wire.ResumeInfo
	// counts/lastFrame poll the live connection; detach kicks it (used
	// when a resume supersedes a half-open predecessor). counts is nil
	// once the epoch ends (final holds the frozen snapshot).
	counts    func() wire.Counts
	lastFrame func() time.Time
	detach    func()
	final     wire.Counts

	active   bool
	done     bool
	session  uint64
	endErr   string
	degraded string
}

// countsNow returns the epoch's wire accounting, live or frozen.
func (e *epoch) countsNow() wire.Counts {
	if e.counts != nil {
		return e.counts()
	}
	return e.final
}

// Stream is one logical ingest stream in the hub: a sequence of epochs
// (connections) carrying the same transmitter, with gap accounting
// between them.
type Stream struct {
	hub     *Hub
	id      uint64
	meta    wire.StreamMeta
	started time.Time
	ring    *sampleRing // recent samples for the waterfall

	mu     sync.Mutex
	epochs []*epoch

	// absBase is the stream-timeline offset of the current epoch's
	// first sample; curEpoch its number. Read by Detection on dispatch
	// goroutines to stamp absolute spans.
	absBase  atomic.Int64
	curEpoch atomic.Uint32

	detections atomic.Int64
	packets    atomic.Int64
}

// ID returns the hub-assigned stream id.
func (s *Stream) ID() uint64 { return s.id }

// GapRecord prices one outage: the samples and frames of the stream
// timeline that entered no session — in-flight loss on the dead
// connection plus payload the client shed while down (the Dropped*
// subset). It mirrors the Degradation record the pipeline keeps for
// shed load: nothing is silently lost, everything is priced.
type GapRecord struct {
	// Epoch is the connection whose resume handshake closed the gap;
	// AtSample is where on the stream timeline the gap begins.
	Epoch    uint32 `json:"epoch"`
	AtSample int64  `json:"at_sample"`
	Frames   int64  `json:"frames"`
	Samples  int64  `json:"samples"`
	// DroppedFrames/DroppedSamples is the client-shed subset of the
	// totals above.
	DroppedFrames  int64 `json:"dropped_frames,omitempty"`
	DroppedSamples int64 `json:"dropped_samples,omitempty"`
}

// EpochInfo is the JSON shape of one epoch in StreamInfo.
type EpochInfo struct {
	Epoch       uint32 `json:"epoch"`
	Remote      string `json:"remote"`
	StartOffset int64  `json:"start_offset"`
	Frames      int64  `json:"frames"`
	Samples     int64  `json:"samples"`
	Active      bool   `json:"active"`
	Error       string `json:"error,omitempty"`
}

// StreamInfo is the JSON shape of one stream in /api/streams. Wire
// aggregates the decoder counters across every epoch; Session, Active,
// Error and Degraded describe the newest epoch. Done is what a client
// waiting for the end of a stream keys on: every epoch has ended, which
// happens-after the stream's last record is visible to every query
// surface. (Active is false before the session starts as well as after
// it ends.)
type StreamInfo struct {
	ID         uint64          `json:"id"`
	Session    uint64          `json:"session,omitempty"`
	Remote     string          `json:"remote"`
	Meta       wire.StreamMeta `json:"meta"`
	StartedS   float64         `json:"uptime_s"`
	Active     bool            `json:"active"`
	Done       bool            `json:"done"`
	Error      string          `json:"error,omitempty"`
	Degraded   string          `json:"degraded,omitempty"`
	Wire       wire.Counts     `json:"wire"`
	Detections int64           `json:"detections"`
	Packets    int64           `json:"packets"`
	// Epoch is the current connection number; Reconnects how many
	// resumes stitched the stream back together.
	Epoch      uint32 `json:"epoch"`
	Reconnects int64  `json:"reconnects"`
	// SilentS is how long the active connection has delivered no frame
	// (heartbeats count as frames); 0 when inactive.
	SilentS float64 `json:"silent_s,omitempty"`
	// GapFrames/GapSamples total the accounted outage cost; Gaps
	// itemizes it per reconnect.
	GapFrames  int64       `json:"gap_frames,omitempty"`
	GapSamples int64       `json:"gap_samples,omitempty"`
	Gaps       []GapRecord `json:"gaps,omitempty"`
	Epochs     []EpochInfo `json:"epochs,omitempty"`
}

// info snapshots the stream.
func (s *Stream) info(now time.Time) StreamInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	inf := StreamInfo{
		ID:         s.id,
		Meta:       s.meta,
		StartedS:   now.Sub(s.started).Seconds(),
		Detections: s.detections.Load(),
		Packets:    s.packets.Load(),
		Done:       s.doneLocked(),
	}
	if n := len(s.epochs); n > 0 {
		last := s.epochs[n-1]
		inf.Session = last.session
		inf.Remote = last.remote
		inf.Active = last.active
		inf.Error = last.endErr
		inf.Degraded = last.degraded
		inf.Epoch = last.num
		inf.Reconnects = int64(n - 1)
		if last.active {
			inf.SilentS = now.Sub(s.lastFrameLocked(last)).Seconds()
		}
	}
	inf.Wire = s.wireLocked()
	inf.Gaps = s.gapsLocked()
	for _, g := range inf.Gaps {
		inf.GapFrames += g.Frames
		inf.GapSamples += g.Samples
	}
	for _, ep := range s.epochs {
		c := ep.countsNow()
		ei := EpochInfo{
			Epoch:  ep.num,
			Remote: ep.remote,
			Frames: c.Frames, Samples: c.Samples,
			Active: ep.active,
			Error:  ep.endErr,
		}
		if ep.resume != nil {
			ei.StartOffset = ep.resume.Offset()
		}
		inf.Epochs = append(inf.Epochs, ei)
	}
	return inf
}

// lastFrameLocked returns the epoch's liveness clock: last valid frame,
// falling back to the epoch's start before any frame arrived.
func (s *Stream) lastFrameLocked(ep *epoch) time.Time {
	if ep.lastFrame != nil {
		if t := ep.lastFrame(); !t.IsZero() {
			return t
		}
	}
	return ep.started
}

// wireLocked aggregates decoder counters across epochs. CleanEnd is the
// newest epoch's: a stream is cleanly ended iff its last connection
// was.
func (s *Stream) wireLocked() wire.Counts {
	var w wire.Counts
	for i, ep := range s.epochs {
		c := ep.countsNow()
		w.Frames += c.Frames
		w.Samples += c.Samples
		w.Heartbeats += c.Heartbeats
		w.ResyncBytes += c.ResyncBytes
		w.BadFrames += c.BadFrames
		w.SeqGaps += c.SeqGaps
		if i == len(s.epochs)-1 {
			w.CleanEnd = c.CleanEnd
		}
	}
	return w
}

// gapsLocked prices every reconnect from the resume ledgers: the gap a
// resume closes is (everything the client sent before this epoch) minus
// (everything sessions actually received before it), plus whatever the
// client shed while down. Computed lazily from live counters, so it is
// exact once the prior epoch has drained.
func (s *Stream) gapsLocked() []GapRecord {
	var out []GapRecord
	// accFrames/accSamples is everything accounted for before the epoch
	// at hand: delivered by earlier sessions plus in-flight loss already
	// priced by earlier resumes. Charging each resume against the
	// accounted total (not delivery alone) keeps a gap from being billed
	// again by every later reconnect.
	var accFrames, accSamples int64
	var prevDropF, prevDropS uint64
	for _, ep := range s.epochs {
		if r := ep.resume; r != nil {
			gf := int64(r.SentFrames) - accFrames
			if gf < 0 {
				gf = 0
			}
			gs := int64(r.SentSamples) - accSamples
			if gs < 0 {
				gs = 0
			}
			accFrames += gf
			accSamples += gs
			df := int64(r.DroppedFrames - prevDropF)
			ds := int64(r.DroppedSamples - prevDropS)
			g := GapRecord{
				Epoch:  ep.num,
				Frames: gf + df, Samples: gs + ds,
				DroppedFrames: df, DroppedSamples: ds,
			}
			g.AtSample = r.Offset() - g.Samples
			if g.Frames > 0 || g.Samples > 0 {
				out = append(out, g)
			}
			prevDropF, prevDropS = r.DroppedFrames, r.DroppedSamples
		}
		c := ep.countsNow()
		accFrames += c.Frames
		accSamples += c.Samples
	}
	return out
}

// activeLocked reports whether the stream's newest epoch has a live
// session.
func (s *Stream) activeLocked() bool {
	n := len(s.epochs)
	return n > 0 && s.epochs[n-1].active
}

// doneLocked reports whether every epoch has ended (prune eligibility).
func (s *Stream) doneLocked() bool {
	if len(s.epochs) == 0 {
		return false
	}
	for _, ep := range s.epochs {
		if !ep.done {
			return false
		}
	}
	return true
}

// AttachSpec describes one ingest connection arriving at the hub.
type AttachSpec struct {
	Remote string
	Meta   wire.StreamMeta
	// Resume is the connection's reconnect handshake, nil for a fresh
	// stream. A resume attaches to the newest stream carrying the same
	// wire StreamID; if none exists (daemon restart), a fresh stream is
	// opened and the whole ledger becomes its leading gap.
	Resume *wire.ResumeInfo
	// Counts/LastFrame poll the connection's decoder; Detach kicks the
	// connection (the hub calls the previous epoch's Detach when a
	// resume supersedes a connection the daemon still thinks is live).
	Counts    func() wire.Counts
	LastFrame func() time.Time
	Detach    func()
	// WaterfallSamples sizes a fresh stream's sample ring (0 disables;
	// resumed streams keep their ring).
	WaterfallSamples int
}

// Attach registers an ingest connection, either opening a fresh stream
// or stitching a resume onto an existing one. It returns the stream and
// the connection's epoch handle (passed back to SessionStarted /
// SessionEnded so late callbacks from a superseded connection cannot
// corrupt the current epoch's state).
func (h *Hub) Attach(spec AttachSpec) (*Stream, *epoch) {
	var st *Stream
	h.mu.Lock()
	if spec.Resume != nil {
		for i := len(h.order) - 1; i >= 0; i-- {
			cand := h.streams[h.order[i]]
			if cand.meta.StreamID == spec.Meta.StreamID {
				st = cand
				break
			}
		}
	}
	fresh := st == nil
	if fresh {
		h.nextID++
		st = &Stream{hub: h, id: h.nextID, meta: spec.Meta, started: time.Now()}
		if spec.WaterfallSamples > 0 {
			st.ring = newSampleRing(spec.WaterfallSamples)
		}
		h.streams[st.id] = st
		h.order = append(h.order, st.id)
		h.pruneLocked()
	}
	h.mu.Unlock()

	ep := &epoch{
		remote:    spec.Remote,
		started:   time.Now(),
		resume:    spec.Resume,
		counts:    spec.Counts,
		lastFrame: spec.LastFrame,
		detach:    spec.Detach,
	}
	var superseded func()
	var gapF, gapS int64
	st.mu.Lock()
	if n := len(st.epochs); n > 0 {
		prev := st.epochs[n-1]
		if !prev.done {
			superseded = prev.detach
		}
		ep.num = prev.num + 1
	}
	if spec.Resume != nil && spec.Resume.Epoch > ep.num {
		ep.num = spec.Resume.Epoch
	}
	st.epochs = append(st.epochs, ep)
	st.curEpoch.Store(ep.num)
	if spec.Resume != nil {
		st.absBase.Store(spec.Resume.Offset())
		// Price the gap this resume closes, for the monotonic counters
		// (StreamInfo recomputes lazily and stays exact).
		for _, g := range st.gapsLocked() {
			if g.Epoch == ep.num {
				gapF, gapS = g.Frames, g.Samples
			}
		}
	} else {
		st.absBase.Store(0)
	}
	st.mu.Unlock()

	if fresh {
		h.opened.Inc()
	}
	if spec.Resume != nil {
		h.reconnects.Inc()
		h.gapFrames.Add(gapF)
		h.gapSamples.Add(gapS)
		h.ledger.Announce(serving.Event{Type: "stream-resume", Stream: st.id, Epoch: ep.num})
	}
	if superseded != nil {
		// The previous connection is still live from the daemon's point
		// of view (half-open, most likely). Kick it so its session winds
		// down; the resume has already taken the stream over.
		superseded()
	}
	return st, ep
}

// endedRetention is how many ended streams the registry keeps for
// post-mortem queries before the oldest are pruned.
const endedRetention = 64

// pruneLocked drops the oldest fully-ended streams past the retention
// bound.
func (h *Hub) pruneLocked() {
	ended := 0
	for _, id := range h.order {
		st := h.streams[id]
		st.mu.Lock()
		if st.doneLocked() {
			ended++
		}
		st.mu.Unlock()
	}
	for ended > endedRetention {
		for i, id := range h.order {
			st := h.streams[id]
			st.mu.Lock()
			done := st.doneLocked()
			st.mu.Unlock()
			if done {
				delete(h.streams, id)
				h.order = append(h.order[:i], h.order[i+1:]...)
				ended--
				break
			}
		}
	}
}

// SessionStarted marks the epoch live (wired to core's OnSessionStart)
// and announces it on the feed.
func (h *Hub) SessionStarted(st *Stream, ep *epoch, session uint64) {
	st.mu.Lock()
	ep.active = true
	ep.session = session
	st.mu.Unlock()
	h.active.Set(h.countActive())
	h.ledger.Announce(serving.Event{Type: "stream-open", Stream: st.id, Epoch: ep.num})
}

// SessionEnded marks the epoch done (wired to core's OnSessionEnd),
// freezes its wire counters, records degradation, and announces the
// close. res and err may both describe failure modes; a nil res with a
// nil err means the session never started (e.g. NewSession failed).
func (h *Hub) SessionEnded(st *Stream, ep *epoch, res *core.Result, err error) {
	st.mu.Lock()
	ep.active = false
	ep.done = true
	if ep.session == 0 {
		ep.session = ^uint64(0) // never ran; mark terminal for pruning
	}
	if err != nil {
		ep.endErr = err.Error()
	}
	if res != nil && res.Degradation.Any() {
		ep.degraded = res.Degradation.String()
	}
	if ep.counts != nil {
		ep.final = ep.counts()
		ep.counts = nil
	}
	errStr := ep.endErr
	st.mu.Unlock()
	h.active.Set(h.countActive())
	h.ledger.Announce(serving.Event{Type: "stream-close", Stream: st.id, Epoch: ep.num, Error: errStr})
}

// countActive recounts live streams under the hub lock.
func (h *Hub) countActive() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var n int64
	for _, st := range h.streams {
		st.mu.Lock()
		if st.activeLocked() {
			n++
		}
		st.mu.Unlock()
	}
	return n
}

// StallInfo is one silent-but-supposedly-live stream in /healthz.
type StallInfo struct {
	Stream  uint64  `json:"stream"`
	Epoch   uint32  `json:"epoch"`
	Remote  string  `json:"remote"`
	SilentS float64 `json:"silent_s"`
}

// Stalled returns every active stream that has delivered no frame
// (heartbeats included) for longer than stallAfter — the ingest
// liveness check behind /healthz.
func (h *Hub) Stalled(stallAfter time.Duration, now time.Time) []StallInfo {
	h.mu.Lock()
	sts := make([]*Stream, 0, len(h.order))
	for _, id := range h.order {
		sts = append(sts, h.streams[id])
	}
	h.mu.Unlock()
	var out []StallInfo
	for _, st := range sts {
		st.mu.Lock()
		if st.activeLocked() {
			ep := st.epochs[len(st.epochs)-1]
			if silent := now.Sub(st.lastFrameLocked(ep)); silent > stallAfter {
				out = append(out, StallInfo{
					Stream: st.id, Epoch: ep.num, Remote: ep.remote,
					SilentS: silent.Seconds(),
				})
			}
		}
		st.mu.Unlock()
	}
	return out
}

// Detection records one fast-detector verdict: a ledger write (store
// history for the REST API plus a live event under one sequence number)
// and counters. Runs on the session's dispatch goroutine; must not
// block. Spans arrive epoch-relative; the stream's absolute base places
// them on the transmit timeline. It returns the record written, for the
// capture path to key its snippet on (Seq 0 when the store refused it).
func (h *Hub) Detection(st *Stream, d core.Detection) *history.DetectionRecord {
	base := st.absBase.Load()
	rec := &history.DetectionRecord{
		Stream:     st.id,
		Epoch:      st.curEpoch.Load(),
		TimeS:      (float64(base) + float64(d.Span.Start)) / float64(h.clock.Rate),
		Family:     d.Family.FamilyName(),
		Detector:   d.Detector,
		Start:      int64(d.Span.Start),
		End:        int64(d.Span.End),
		AbsStart:   base + int64(d.Span.Start),
		AbsEnd:     base + int64(d.Span.End),
		Confidence: d.Confidence,
		Channel:    d.Channel,
	}
	st.detections.Add(1)
	h.detCount.Inc()
	h.count(h.ledger.Detection(rec))
	return rec
}

// count books a failed ledger write.
func (h *Hub) count(err error) {
	if err != nil {
		h.storeErrs.Inc()
	}
}

// DetectionCaptured is Detection plus the DVR half: the triggering IQ
// burst rides along (core's capture hook), and the hub banks it as a
// snippet keyed by the detection's sequence number. The burst buffer is
// owned by the session and reused — the store's append contract is to
// copy, never retain.
func (h *Hub) DetectionCaptured(st *Stream, d core.Detection, span iq.Interval, burst iq.Samples) {
	rec := h.Detection(st, d)
	if rec.Seq == 0 {
		return // no detection record to key the snippet on
	}
	base := st.absBase.Load()
	h.count(h.ledger.Snippet(&history.Snippet{
		Stream:    st.id,
		Detection: rec.Seq,
		Epoch:     rec.Epoch,
		Rate:      h.clock.Rate,
		Start:     base + int64(span.Start),
		End:       base + int64(span.End),
		IQ:        burst,
	}))
}

// Packet records one decoded packet, reusing the offline packet-log
// record as the single packet schema.
func (h *Hub) Packet(st *Stream, p demod.Packet) {
	ev := &history.PacketEvent{Stream: st.id, PacketRecord: trace.NewPacketRecord(h.clock, p)}
	st.packets.Add(1)
	h.pktCount.Inc()
	h.count(h.ledger.Packet(ev, st.curEpoch.Load()))
}

// Tile banks one waterfall column (built by the daemon's ingest tee).
func (h *Hub) Tile(t *history.Tile) {
	h.count(h.ledger.Tile(t))
}

// Streams snapshots every registered stream, oldest first.
func (h *Hub) Streams() []StreamInfo {
	now := time.Now()
	h.mu.Lock()
	sts := make([]*Stream, 0, len(h.order))
	for _, id := range h.order {
		sts = append(sts, h.streams[id])
	}
	h.mu.Unlock()
	out := make([]StreamInfo, len(sts))
	for i, st := range sts {
		out[i] = st.info(now)
	}
	return out
}

// Stream returns a registered stream by id.
func (h *Hub) Stream(id uint64) (*Stream, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.streams[id]
	return st, ok
}

// newestStream returns the most recently opened stream, preferring an
// active one (the default target for /api/waterfall).
func (h *Hub) newestStream() (*Stream, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var fallback *Stream
	for i := len(h.order) - 1; i >= 0; i-- {
		st := h.streams[h.order[i]]
		if fallback == nil {
			fallback = st
		}
		st.mu.Lock()
		act := st.activeLocked()
		st.mu.Unlock()
		if act {
			return st, true
		}
	}
	return fallback, fallback != nil
}

// Detections returns up to limit newest detection records (0 = all
// retained), oldest first, optionally filtered to one stream id (0 =
// all streams).
func (h *Hub) Detections(stream uint64, limit int) []history.DetectionRecord {
	return h.ledger.Store().RecentDetections(stream, limit)
}

// Packets returns up to limit newest packet events, as Detections.
func (h *Hub) Packets(stream uint64, limit int) []history.PacketEvent {
	return h.ledger.Store().RecentPackets(stream, limit)
}

// sampleRing keeps the most recent capacity samples of a stream for the
// waterfall endpoint. Appends run on the ingest goroutine between block
// reads, so the copy must stay cheap; snapshots run on API goroutines.
type sampleRing struct {
	mu    sync.Mutex
	buf   iq.Samples
	n     int // valid samples
	next  int // write cursor
	total int64
}

func newSampleRing(capacity int) *sampleRing {
	if capacity < iq.ChunkSamples {
		capacity = iq.ChunkSamples
	}
	return &sampleRing{buf: make(iq.Samples, capacity)}
}

// Append adds the next span of the stream, overwriting the oldest.
func (r *sampleRing) Append(s iq.Samples) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total += int64(len(s))
	if len(s) >= len(r.buf) {
		copy(r.buf, s[len(s)-len(r.buf):])
		r.next = 0
		r.n = len(r.buf)
		return
	}
	k := copy(r.buf[r.next:], s)
	if k < len(s) {
		copy(r.buf, s[k:])
	}
	r.next = (r.next + len(s)) % len(r.buf)
	if r.n < len(r.buf) {
		r.n += len(s)
		if r.n > len(r.buf) {
			r.n = len(r.buf)
		}
	}
}

// Snapshot copies out the retained samples, oldest first.
func (r *sampleRing) Snapshot() iq.Samples {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(iq.Samples, r.n)
	if r.n < len(r.buf) {
		copy(out, r.buf[:r.n])
		return out
	}
	k := copy(out, r.buf[r.next:])
	copy(out[k:], r.buf[:r.next])
	return out
}

// Total returns how many samples have passed through the ring.
func (r *sampleRing) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
