package core

import (
	"math"
	"slices"

	"rfdump/internal/flowgraph"
	"rfdump/internal/iq"
	"rfdump/internal/metrics"
	"rfdump/internal/protocols"
)

// AnalysisRequest asks the analysis stage to process a span of samples
// tentatively classified to a protocol family. Overlapping detections of
// one family are merged before dispatch so demodulators never see the
// same samples twice ("avoid redundant computation", Section 2.1). It is
// an alias of the registry-facing type so protocol modules can ship
// analyzers without importing core.
type AnalysisRequest = protocols.AnalysisRequest

// DispatcherConfig tunes the dispatcher.
type DispatcherConfig struct {
	// SlackSamples joins detections separated by up to this many samples,
	// pads request spans by half of it so demodulators see the burst
	// edges, and is how far the stream must settle past a pending span
	// before it is sent: a request leaves within SlackSamples + one chunk
	// of its burst's end, later only while a peak that began within
	// SlackSamples of that end is still open (its detection would merge:
	// the data/SIFS/ACK pair). Defaults to one chunk, the paper's
	// forwarding granularity ("about 12 us of excess samples along with
	// each packet due to the chunk granularity").
	SlackSamples iq.Tick
	// MaxPending caps that hold: a pending span whose start is more than
	// this many samples behind the stream is cut and sent (the
	// architecture tolerates delay but not unbounded buffering).
	MaxPending iq.Tick
}

func (c DispatcherConfig) withDefaults() DispatcherConfig {
	if c.SlackSamples <= 0 {
		c.SlackSamples = iq.ChunkSamples
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 80_000 // 10 ms at 8 Msps
	}
	return c
}

// pendingSpan is a merge buffer: the hull of slack-joined detections of
// one family, before padding.
type pendingSpan struct {
	span       iq.Interval
	channel    int
	chanMixed  bool
	confidence float64
	detectors  []string // unique; becomes the request's
}

// add folds a detection (clipped to span), or another buffer, into p.
func (p *pendingSpan) add(span iq.Interval, channel int, mixed bool, confidence float64, detectors ...string) {
	p.span = p.span.Union(span)
	p.confidence = max(p.confidence, confidence)
	p.chanMixed = p.chanMixed || mixed || channel >= 0 && p.channel >= 0 && channel != p.channel
	if p.channel < 0 {
		p.channel = channel
	}
	for _, n := range detectors {
		if !slices.Contains(p.detectors, n) {
			p.detectors = append(p.detectors, n)
		}
	}
}

// famSlot is one protocol family's dispatch state, held by value: its
// pending spans (ascending, more than SlackSamples apart), the tick
// through which the family has been forwarded everything (through <=
// pend[0].span.Start: no sample is sent twice, by construction), and its
// metrics (nil without a registry).
type famSlot struct {
	fam     protocols.ID
	pend    []pendingSpan
	through iq.Tick

	detections       *metrics.Counter
	forwardedSpans   *metrics.Counter
	forwardedSamples *metrics.Counter
	holdSamples      *metrics.Histogram
}

// holdBounds buckets dispatch/<label>/hold_samples: the stated bound,
// SlackSamples + one chunk, is the second edge by default.
var holdBounds = []int64{200, 400, 800, 1600, 3200, 6400, 12_800, 25_600, 51_200, 102_400}

// Dispatcher is the protocol-specific detection stage's output side: it
// records every Detection, merges them per family on the fly, and emits
// AnalysisRequests for the analysis stage (Figure 2's arrows from the
// detection stage into per-protocol analysis). Requests leave on stream
// time: every ChunkMeta carries the peak detector's watermark, and a
// pending span is sent once the watermark is SlackSamples past its end.
type Dispatcher struct {
	cfg DispatcherConfig
	// fams holds one slot per family seen (a handful; found by scan).
	fams     []famSlot
	npending int
	// settled is the newest watermark, now the newest chunk end; eos is
	// set by Flush, after which everything is due.
	settled, now iq.Tick
	eos          bool

	// OnDetection, if set, is invoked for every detection as it arrives
	// (live monitoring). Under the parallel scheduler it runs on the
	// dispatcher's goroutine.
	OnDetection func(Detection)
	// Retain controls accumulation into All/Requests; live sessions with
	// callbacks disable it to bound memory.
	Retain bool

	// All accumulates every detection seen (the experiments read this
	// for accuracy metrics).
	All []Detection
	// Requests accumulates every emitted request.
	Requests []AnalysisRequest

	// reg, when non-nil, publishes per-protocol-family metrics. Labels
	// come from the module registry (protocols.LabelFor), so a protocol
	// registered out of tree shows up in /api/metricz under its own
	// label with no dispatcher changes. They are resolved once per
	// family: the steady-state streaming path allocates nothing per chunk.
	reg     *metrics.Registry
	pending *metrics.Gauge
}

// instrument attaches a metrics registry; nil disables (zero cost).
func (d *Dispatcher) instrument(reg *metrics.Registry) {
	d.reg = reg
	d.pending = reg.Gauge("dispatch/pending")
}

// slot returns (creating on first use) a family's dispatch state.
func (d *Dispatcher) slot(fam protocols.ID) *famSlot {
	for i := range d.fams {
		if d.fams[i].fam == fam {
			return &d.fams[i]
		}
	}
	base := "dispatch/" + protocols.LabelFor(fam) + "/"
	d.fams = append(d.fams, famSlot{
		fam: fam, through: math.MinInt64 / 2,
		detections:       d.reg.Counter(base + "detections"),
		forwardedSpans:   d.reg.Counter(base + "forwarded_spans"),
		forwardedSamples: d.reg.Counter(base + "forwarded_samples"),
		holdSamples:      d.reg.Histogram(base+"hold_samples", holdBounds),
	})
	return &d.fams[len(d.fams)-1]
}

// NewDispatcher returns a dispatcher.
func NewDispatcher(cfg DispatcherConfig) *Dispatcher {
	return &Dispatcher{cfg: cfg.withDefaults(), Retain: true}
}

// Name implements flowgraph.Block.
func (d *Dispatcher) Name() string { return "dispatcher" }

// Process implements flowgraph.Block: consumes Detection items and the
// peak detector's ChunkMeta (for its watermark only), emits
// AnalysisRequest items.
func (d *Dispatcher) Process(item flowgraph.Item, emit func(flowgraph.Item)) error {
	switch v := item.(type) {
	case *ChunkMeta:
		d.settled, d.now = max(d.settled, v.Settled), max(d.now, v.Chunk.Span.End)
		d.sweep(emit)
	case Detection:
		d.observe(v, emit)
	}
	return nil
}

func (d *Dispatcher) observe(det Detection, emit func(flowgraph.Item)) {
	if d.Retain {
		d.All = append(d.All, det)
	}
	if d.OnDetection != nil {
		d.OnDetection(det)
	}
	s, slack := d.slot(det.Family.Family()), d.cfg.SlackSamples
	s.detections.Inc()
	// A late or backward detection (802.11 SIFS re-reports the previous
	// peak, the microwave detector its anchor, any detector the watermark
	// overtook under the parallel scheduler) is clipped to what has not
	// been sent; one that adjoins what has starts there.
	span := det.Span
	if span.End <= s.through {
		return
	}
	if span.Start <= s.through+slack {
		span.Start = s.through
	}
	// Only the watermark sends: a detection joins the pending spans within
	// SlackSamples of it (the phase runs inside a peak that 802.11 SIFS
	// then reports whole) or waits beside them.
	i := 0
	for i < len(s.pend) && s.pend[i].span.End+slack < span.Start {
		i++
	}
	switch {
	case i < len(s.pend) && s.pend[i].span.Start <= span.End+slack:
		p := &s.pend[i]
		p.add(span, det.Channel, false, det.Confidence, det.Detector)
		for i+1 < len(s.pend) && s.pend[i+1].span.Start <= p.span.End+slack {
			q := s.pend[i+1]
			p.add(q.span, q.channel, q.chanMixed, q.confidence, q.detectors...)
			s.pend = slices.Delete(s.pend, i+1, i+2)
			d.npending--
		}
	case span.Start == s.through && span.Len() <= slack/2:
		// A sliver the sent request's padding already covered.
		s.through = span.End
	default:
		s.pend = slices.Insert(s.pend, i, pendingSpan{span: span, channel: det.Channel, confidence: det.Confidence,
			detectors: append(make([]string, 0, 4), det.Detector)})
		d.npending++
	}
	d.pending.Set(int64(d.npending))
	if d.eos {
		d.sweep(emit) // a detector flushed after the dispatcher did
	}
}

// sweep sends every pending span that is due — the watermark is
// SlackSamples past its end, or its start is MaxPending behind the
// stream — in (span end, family id) order. A family's spans come due in
// order, so only its first is a candidate.
func (d *Dispatcher) sweep(emit func(flowgraph.Item)) {
	for d.npending > 0 {
		var next *famSlot
		for i := range d.fams {
			s := &d.fams[i]
			if len(s.pend) == 0 {
				continue
			}
			p := s.pend[0].span
			if !(d.eos || p.End+d.cfg.SlackSamples < d.settled || d.now-p.Start > d.cfg.MaxPending) {
				continue
			}
			if next == nil || p.End < next.pend[0].span.End || p.End == next.pend[0].span.End && s.fam < next.fam {
				next = s
			}
		}
		if next == nil {
			return
		}
		d.send(next, emit)
	}
}

// send emits a family's first pending span as a request: two allocations
// per request, its Detectors (made with the span) and its box.
func (d *Dispatcher) send(s *famSlot, emit func(flowgraph.Item)) {
	p := s.pend[0]
	s.pend = slices.Delete(s.pend, 0, 1)
	s.through = p.span.End
	d.npending--
	d.pending.Set(int64(d.npending))
	ch := p.channel
	if p.chanMixed {
		ch = -1
	}
	slices.Sort(p.detectors)
	req := AnalysisRequest{
		Family:     s.fam,
		Span:       p.span.Expand(d.cfg.SlackSamples / 2),
		Channel:    ch,
		Confidence: p.confidence,
		Detectors:  p.detectors,
	}
	if d.Retain {
		d.Requests = append(d.Requests, req)
	}
	s.forwardedSpans.Inc()
	s.forwardedSamples.Add(int64(req.Span.Len()))
	s.holdSamples.Observe(int64(max(0, d.now-p.span.End)))
	emit(req)
}

// Flush implements flowgraph.Block: end of stream is the last watermark.
func (d *Dispatcher) Flush(emit func(flowgraph.Item)) error {
	d.eos = true
	d.sweep(emit)
	return nil
}
