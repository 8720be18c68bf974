package core

import (
	"sync"

	"rfdump/internal/blocks"
	"rfdump/internal/iq"
)

// BlockWindow is the streaming pipeline's sample store: a bounded deque
// of retained pooled blocks standing in for the contiguous stream.
// Instead of copying every block into one compacting buffer, the window
// retains the blocks themselves and evicts (releases) the oldest once the retention target
// is exceeded, so a recycled buffer can never be read through the window.
//
// Slice clips to retained history like every accessor. A slice that falls
// inside a single block is a zero-copy view of that block; one that
// crosses block boundaries is assembled into an internal scratch buffer.
// Either way the returned slice is valid only until the next Slice or
// Append call — the contract every detector and analyzer already honors
// (each probes one span at a time, and the depth-first scheduler finishes
// a stage before the source appends again). The parallel scheduler must
// wrap the window in lockedBlockWindow, which copies.
type BlockWindow struct {
	blks   []*blocks.Block
	starts []iq.Tick // starts[i] is the absolute tick of blks[i][0]
	head   int       // index of the oldest live block
	end    iq.Tick   // one past the newest sample
	total  int       // live samples across blocks
	limit  int       // retention target in samples

	scratch iq.Samples // cross-block slice assembly, reused
}

// NewBlockWindow returns a window retaining at least limit samples
// (minimum four chunks).
func NewBlockWindow(limit int) *BlockWindow {
	if limit < 4*iq.ChunkSamples {
		limit = 4 * iq.ChunkSamples
	}
	return &BlockWindow{limit: limit}
}

// AppendBlock takes ownership of one reference to b (the caller's) and
// makes its samples the newest window content. Blocks must arrive in
// stream order; eviction releases the oldest blocks once the retention
// target is exceeded.
func (w *BlockWindow) AppendBlock(b *blocks.Block) {
	if len(w.blks) == cap(w.blks) && w.head > len(w.blks)/2 {
		// Compact the deque in place so steady-state appends stay
		// allocation-free.
		n := copy(w.blks, w.blks[w.head:])
		copy(w.starts, w.starts[w.head:])
		w.blks = w.blks[:n]
		w.starts = w.starts[:n]
		w.head = 0
	}
	w.blks = append(w.blks, b)
	w.starts = append(w.starts, w.end)
	w.end += iq.Tick(b.Len())
	w.total += b.Len()
	for w.head < len(w.blks)-1 && w.total-w.blks[w.head].Len() >= w.limit {
		w.total -= w.blks[w.head].Len()
		w.blks[w.head].Release()
		w.blks[w.head] = nil
		w.head++
	}
}

// End returns the absolute tick one past the newest sample.
func (w *BlockWindow) End() iq.Tick { return w.end }

// Base returns the absolute tick of the oldest retained sample.
func (w *BlockWindow) Base() iq.Tick { return w.end - iq.Tick(w.total) }

// Close releases every retained block. The window is empty but usable
// afterwards (ticks keep counting from End).
func (w *BlockWindow) Close() {
	for i := w.head; i < len(w.blks); i++ {
		w.blks[i].Release()
		w.blks[i] = nil
	}
	w.blks = w.blks[:0]
	w.starts = w.starts[:0]
	w.head = 0
	w.total = 0
}

// clip bounds iv to retained history and locates the block holding the
// first sample. It returns the clipped bounds, the index of that block,
// and the offset of lo within it; ok is false for an empty result. Pure
// read — safe under a shared lock.
func (w *BlockWindow) clip(iv iq.Interval) (lo, hi iq.Tick, idx, off int, ok bool) {
	lo, hi = iv.Start, iv.End
	if base := w.Base(); lo < base {
		lo = base
	}
	if hi > w.end {
		hi = w.end
	}
	if hi <= lo {
		return 0, 0, 0, 0, false
	}
	// Binary search for the newest block starting at or before lo
	// (hand-rolled: sort.Search's closure would allocate per call).
	i, j := w.head, len(w.blks)
	for i < j-1 {
		mid := (i + j) / 2
		if w.starts[mid] <= lo {
			i = mid
		} else {
			j = mid
		}
	}
	return lo, hi, i, int(lo - w.starts[i]), true
}

// Slice implements SampleAccessor, clipping to retained history. See the
// type comment for the validity contract.
func (w *BlockWindow) Slice(iv iq.Interval) iq.Samples {
	lo, hi, i, off, ok := w.clip(iv)
	if !ok {
		return nil
	}
	first := w.blks[i]
	if hi <= w.starts[i]+iq.Tick(first.Len()) {
		// Entirely inside one block: zero-copy view.
		return first.Samples()[off : off+int(hi-lo)]
	}
	n := int(hi - lo)
	if cap(w.scratch) < n {
		w.scratch = make(iq.Samples, n)
	}
	out := w.scratch[:n]
	filled := copy(out, first.Samples()[off:])
	for i++; filled < n; i++ {
		filled += copy(out[filled:], w.blks[i].Samples())
	}
	return out
}

// CopySlice copies the clipped interval into dst (grown when needed)
// and returns the filled slice together with the actual clipped bounds.
// Unlike Slice, the result does not alias window storage, so the caller
// may hold it across appends — the capture-on-detection path reuses one
// buffer per session this way, keeping steady state allocation-free.
func (w *BlockWindow) CopySlice(iv iq.Interval, dst iq.Samples) (iq.Samples, iq.Interval) {
	lo, hi, i, off, ok := w.clip(iv)
	if !ok {
		return dst[:0], iq.Interval{}
	}
	n := int(hi - lo)
	if cap(dst) < n {
		dst = make(iq.Samples, n)
	}
	out := dst[:n]
	filled := copy(out, w.blks[i].Samples()[off:])
	for i++; filled < n; i++ {
		filled += copy(out[filled:], w.blks[i].Samples())
	}
	return out, iq.Interval{Start: lo, End: hi}
}

// sliceCopy returns a freshly allocated copy of the clipped interval
// without touching the shared scratch buffer — a pure read, safe for
// concurrent callers holding a shared lock.
func (w *BlockWindow) sliceCopy(iv iq.Interval) iq.Samples {
	lo, hi, i, off, ok := w.clip(iv)
	if !ok {
		return nil
	}
	out := make(iq.Samples, int(hi-lo))
	filled := copy(out, w.blks[i].Samples()[off:])
	for i++; filled < len(out); i++ {
		filled += copy(out[filled:], w.blks[i].Samples())
	}
	return out
}

// lockedBlockWindow synchronizes a BlockWindow for the parallel
// scheduler. Like lockedWindow it hands out copies from Slice: a block
// goroutine may still be reading while the source appends and evicts, so
// views into blocks or the shared scratch are not safe to share.
type lockedBlockWindow struct {
	mu sync.RWMutex
	w  *BlockWindow
}

func (l *lockedBlockWindow) AppendBlock(b *blocks.Block) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.AppendBlock(b)
}

func (l *lockedBlockWindow) End() iq.Tick {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.w.End()
}

func (l *lockedBlockWindow) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Close()
}

func (l *lockedBlockWindow) Slice(iv iq.Interval) iq.Samples {
	// sliceCopy assembles straight into the returned copy instead of the
	// window's shared scratch, so concurrent readers under RLock do not
	// race on BlockWindow.scratch.
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.w.sliceCopy(iv)
}

func (l *lockedBlockWindow) CopySlice(iv iq.Interval, dst iq.Samples) (iq.Samples, iq.Interval) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.w.CopySlice(iv, dst)
}

// blockStore is what a streaming Session needs from its sample store.
type blockStore interface {
	SampleAccessor
	AppendBlock(b *blocks.Block)
	End() iq.Tick
	Close()
	// CopySlice is Slice into a caller-owned buffer, returning the
	// clipped bounds — the capture path's non-aliasing read.
	CopySlice(iv iq.Interval, dst iq.Samples) (iq.Samples, iq.Interval)
}
