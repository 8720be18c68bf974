// Package core implements the RFDump architecture itself: the
// protocol-agnostic detection stage (peak detector with integrated
// energy filtering producing per-chunk metadata), the protocol-specific
// fast detectors (timing, phase and frequency analysis for 802.11b,
// Bluetooth, microwave ovens and ZigBee), and the dispatcher that
// selectively forwards tentatively-classified sample blocks to the
// analysis stage (Figure 2 of the paper).
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rfdump/internal/blocks"
	"rfdump/internal/iq"
	"rfdump/internal/protocols"
)

// Chunk is the unit the pipeline's source feeds in: ChunkSamples samples
// plus their position. Samples references the underlying stream (no
// copies; the whole point of the architecture is to touch the stream as
// little as possible).
type Chunk struct {
	// Seq is the chunk index.
	Seq int
	// Span is the chunk's sample range.
	Span iq.Interval
	// Samples is the chunk's view of the stream.
	Samples iq.Samples
	// Block, when non-nil, is the pooled block backing Samples. Holders
	// of the chunk beyond the producing stage must Retain it; the batch
	// path (a whole trace in one slice) leaves it nil and samples live
	// for the run.
	Block *blocks.Block
}

// Peak is one detected RF transmission: the protocol-agnostic stage's
// core metadata (paper Section 3.2).
type Peak struct {
	// Span is the refined start/end of the transmission.
	Span iq.Interval
	// MeanPower is the average power over the peak.
	MeanPower float64
	// MaxPower is the largest windowed average seen inside the peak.
	MaxPower float64
	// MinPower is the smallest windowed average seen in the peak's
	// interior. It is approximate: a strong noise sample in the decay
	// tail can drag it down, so envelope checks should prefer
	// MaxPower/MeanPower (which the microwave detector uses for its
	// "amplitude of the signal is constant across peaks" test).
	MinPower float64
}

// String implements fmt.Stringer.
func (p Peak) String() string {
	return fmt.Sprintf("peak%v pwr=%.2f", p.Span, p.MeanPower)
}

// PeakHistory is the shared "history window of recent peaks detected" the
// chunk metadata points to: a fixed-capacity ring of peaks, newest
// first on scan. It is safe for concurrent use: the multi-threaded scheduler has the
// peak detector appending while protocol-specific detectors scan.
type PeakHistory struct {
	mu    sync.RWMutex
	ring  []Peak
	next  int
	count int
}

// NewPeakHistory returns a history holding up to capacity peaks.
func NewPeakHistory(capacity int) *PeakHistory {
	if capacity < 1 {
		capacity = 1
	}
	return &PeakHistory{ring: make([]Peak, capacity)}
}

// Append records a completed peak as most recent.
func (h *PeakHistory) Append(p Peak) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ring[h.next] = p
	h.next = (h.next + 1) % len(h.ring)
	if h.count < len(h.ring) {
		h.count++
	}
}

// Len returns the number of peaks held.
func (h *PeakHistory) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.count
}

// at is the lock-free indexing core (callers hold the lock).
func (h *PeakHistory) at(i int) Peak {
	if i < 0 || i >= h.count {
		panic("core: PeakHistory index out of range")
	}
	idx := h.next - 1 - i
	for idx < 0 {
		idx += len(h.ring)
	}
	return h.ring[idx]
}

// At returns the i-th most recent peak (0 = newest); it panics when out
// of range.
func (h *PeakHistory) At(i int) Peak {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.at(i)
}

// ScanBack visits peaks newest-first until fn returns false. The ring is
// read-locked for the duration: fn must not call Append.
func (h *PeakHistory) ScanBack(fn func(Peak) bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for i := 0; i < h.count; i++ {
		if !fn(h.at(i)) {
			return
		}
	}
}

// ChunkMeta is the metadata the protocol-agnostic stage associates with
// each chunk of samples: "a concise representation of the sample stream
// ... stored separately as metadata associated with each block of
// samples" (Section 2.2). Protocol-specific detectors operate on this,
// not on the samples.
type ChunkMeta struct {
	// Chunk is the underlying chunk (samples remain accessible for the
	// detectors that need signal access, e.g. phase analysis). When
	// Chunk.Block is non-nil a pooled meta owns one reference to it,
	// released with the meta's last Dispose.
	Chunk Chunk
	// AvgPower is the chunk's average power.
	AvgPower float64
	// NoiseFloor is the detector's current noise floor estimate.
	NoiseFloor float64
	// Busy reports whether the chunk passed the energy filter.
	Busy bool
	// Completed lists peaks that ended within this chunk (refined spans
	// may begin in earlier chunks).
	Completed []Peak
	// History points to the shared recent-peak ring.
	History *PeakHistory
	// Settled is the stream-time watermark: the chunk's end, or the start
	// of the peak still open across it. Every peak yet to complete starts
	// at or after it (a start is never refined back past the chunk that
	// opened the peak), which is what lets the dispatcher flush on it.
	Settled iq.Tick

	// Pooled-lifetime state (zero for metas built by hand, e.g. in
	// tests, which then have value semantics and Retain/Dispose no-ops).
	refs atomic.Int32
	home *metaPool
}

// Retain adds a scheduler reference (flowgraph.Owned); a no-op for
// non-pooled metas.
func (m *ChunkMeta) Retain() {
	if m.home == nil {
		return
	}
	if m.refs.Add(1) <= 1 {
		panic("core: ChunkMeta retained after release")
	}
}

// Dispose drops one scheduler reference; the last one releases the
// backing block and recycles the meta. A no-op for non-pooled metas.
func (m *ChunkMeta) Dispose() {
	if m.home == nil {
		return
	}
	switch n := m.refs.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic("core: ChunkMeta disposed twice")
	}
	if b := m.Chunk.Block; b != nil {
		b.Release()
	}
	m.Chunk = Chunk{}
	m.AvgPower, m.NoiseFloor, m.Busy, m.Settled = 0, 0, false, 0
	m.Completed = m.Completed[:0]
	m.History = nil
	m.home.pool.Put(m)
}

// metaPool recycles ChunkMeta values through the detection stage: one
// meta per chunk at 40k chunks/s is otherwise a steady GC tax.
type metaPool struct {
	pool sync.Pool
}

// get returns a reset meta with one reference.
func (mp *metaPool) get() *ChunkMeta {
	m, ok := mp.pool.Get().(*ChunkMeta)
	if !ok {
		m = &ChunkMeta{home: mp}
	}
	m.refs.Store(1)
	return m
}

// Detection is a fast detector's verdict: a tentative mapping of a sample
// span to a protocol family, with a confidence value (Section 2.2:
// "identifies properties of blocks of samples ... and associates
// confidence values with these properties").
type Detection struct {
	// Family is the claimed protocol family.
	Family protocols.ID
	// Span is the sample range to forward to the family's analyzer.
	Span iq.Interval
	// Detector names the module that fired.
	Detector string
	// Confidence in [0, 1].
	Confidence float64
	// Channel is the claimed protocol channel, or -1.
	Channel int
}

// String implements fmt.Stringer.
func (d Detection) String() string {
	return fmt.Sprintf("%s %s%v conf=%.2f", d.Detector, d.Family.FamilyName(), d.Span, d.Confidence)
}
