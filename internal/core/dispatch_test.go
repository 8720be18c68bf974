package core

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"testing"

	"rfdump/internal/flowgraph"
	"rfdump/internal/iq"
	"rfdump/internal/metrics"
	"rfdump/internal/protocols"
)

const chunk = iq.Tick(iq.ChunkSamples)

// watermark is the ChunkMeta the peak detector would emit for chunk k
// with the given Settled tick (the dispatcher reads nothing else).
func watermark(k int, settled iq.Tick) *ChunkMeta {
	return &ChunkMeta{
		Chunk:   Chunk{Seq: k, Span: iq.Interval{Start: iq.Tick(k) * chunk, End: iq.Tick(k+1) * chunk}},
		Settled: settled,
	}
}

// TestDispatcherCutsChainAtMaxPending: a chain of detections each within
// SlackSamples of the last never settles, so the cap has to cut it — and
// the pieces must tile the chain without overlap.
func TestDispatcherCutsChainAtMaxPending(t *testing.T) {
	const chunks = 60
	cfg := DispatcherConfig{MaxPending: 10 * chunk}
	d := NewDispatcher(cfg)
	var got []sentSpan
	step := 0
	emit := collectSent(cfg.withDefaults(), &got, &step)
	for k := 0; k < chunks; k++ {
		step = k
		start := iq.Tick(k) * chunk
		if k == 0 {
			continue // keep the first request's padding clear of tick 0
		}
		if err := d.Process(det(protocols.WiFi80211b1M, start+10, start+chunk-10, "a", -1), emit); err != nil {
			t.Fatal(err)
		}
		if err := d.Process(watermark(k, start+chunk), emit); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) < chunks/12 {
		t.Fatalf("a %d-chunk chain left in %d spans before end of stream; MaxPending is %d chunks", chunks, len(got), cfg.MaxPending/chunk)
	}
	step = chunks
	if err := d.Flush(emit); err != nil {
		t.Fatal(err)
	}
	at := chunk + 10
	for _, s := range got {
		if s.span.Start != at {
			t.Errorf("span %v starts at %d, want %d (gap or overlap)", s.span, s.span.Start, at)
		}
		if s.span.Len() > cfg.MaxPending+chunk {
			t.Errorf("span %v is %d samples, cap is MaxPending + one chunk = %d", s.span, s.span.Len(), cfg.MaxPending+chunk)
		}
		if now := iq.Tick(s.step+1) * chunk; s.step < chunks && now-s.span.Start > cfg.MaxPending+chunk {
			t.Errorf("span %v left at %d, more than MaxPending + one chunk after its start", s.span, now)
		}
		at = s.span.End
	}
	if want := iq.Tick(chunks)*chunk - 10; at != want {
		t.Errorf("chain forwarded through %d, want %d", at, want)
	}
}

// TestDispatcherHoldsForAdjoiningOpenPeak: a span is not sent while a
// peak that began within SlackSamples of its end is still open — that
// peak's detection merges (the data/SIFS/ACK pair) — but a peak that
// opened farther away holds nothing.
func TestDispatcherHoldsForAdjoiningOpenPeak(t *testing.T) {
	for _, ackStart := range []iq.Tick{5080, 5000 + chunk + 1} {
		d := NewDispatcher(DispatcherConfig{})
		var got []sentSpan
		step := 0
		emit := collectSent(d.cfg, &got, &step)
		feed := func(items ...flowgraph.Item) {
			t.Helper()
			for _, it := range items {
				if err := d.Process(it, emit); err != nil {
					t.Fatal(err)
				}
			}
		}
		feed(det(protocols.WiFi80211b1M, 1000, 5000, "802.11-difs", -1), watermark(25, 26*chunk))
		for k := 26; k < 38; k++ { // the ACK is on the air
			feed(watermark(k, ackStart))
		}
		adjoins := ackStart <= 5000+chunk
		if sent := len(got) == 1; sent == adjoins {
			t.Fatalf("ACK open at %d: data span sent = %v", ackStart, sent)
		}
		feed(det(protocols.WiFi80211b1M, ackStart, 7500, "802.11-sifs", -1), watermark(38, 39*chunk))
		want := []iq.Interval{{Start: 1000, End: 7500}}
		if !adjoins {
			want = []iq.Interval{{Start: 1000, End: 5000}, {Start: ackStart, End: 7500}}
		}
		if spans := spansOf(got, protocols.WiFi80211b1M); fmt.Sprint(spans) != fmt.Sprint(want) {
			t.Errorf("ACK open at %d: sent %v, want %v", ackStart, spans, want)
		}
	}
}

// TestDispatcherJoinsRunsBridgedWithinAChunk: a newer detection that does
// not join what is pending sends nothing — only the watermark does — so
// two phase runs inside a peak and the whole-peak report that follows
// them in the same chunk leave as one request, and a straggler behind
// them leaves first.
func TestDispatcherJoinsRunsBridgedWithinAChunk(t *testing.T) {
	d := NewDispatcher(DispatcherConfig{})
	var got []sentSpan
	step := 0
	emit := collectSent(d.cfg, &got, &step)
	for _, it := range []flowgraph.Item{
		det(protocols.WiFi80211b1M, 10_000, 14_000, "802.11-dbpsk", 1),
		det(protocols.WiFi80211b1M, 16_000, 19_000, "802.11-dbpsk", 1),
		det(protocols.WiFi80211b1M, 1000, 3000, "802.11-difs", -1),
		det(protocols.WiFi80211b1M, 22_000, 23_000, "802.11-dbpsk", 6),
		det(protocols.WiFi80211b1M, 10_000, 20_000, "802.11-sifs", -1),
	} {
		if err := d.Process(it, emit); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 0 {
		t.Fatalf("sent %v before any watermark", got)
	}
	if err := d.Process(watermark(120, 121*chunk), emit); err != nil {
		t.Fatal(err)
	}
	want := []iq.Interval{{Start: 1000, End: 3000}, {Start: 10_000, End: 20_000}, {Start: 22_000, End: 23_000}}
	if len(got) != len(want) {
		t.Fatalf("sent %v, want %v", got, want)
	}
	for i, w := range want {
		if got[i].span != w {
			t.Errorf("sent[%d] = %v, want %v (span-end order)", i, got[i].span, w)
		}
	}
	if r := d.Requests[1]; r.Channel != 1 || fmt.Sprint(r.Detectors) != "[802.11-dbpsk 802.11-sifs]" {
		t.Errorf("merged request %+v: want channel 1, detectors [802.11-dbpsk 802.11-sifs]", r)
	}
}

// TestDispatcherEmitsInSpanEndOrder: what one watermark makes due leaves
// by span end, then family id, whatever order it arrived in.
func TestDispatcherEmitsInSpanEndOrder(t *testing.T) {
	d := NewDispatcher(DispatcherConfig{})
	var got []sentSpan
	step := 0
	emit := collectSent(d.cfg, &got, &step)
	for _, dt := range []Detection{
		det(protocols.ZigBee, 100, 900, "z", -1),
		det(protocols.Bluetooth, 100, 900, "b", -1),
		det(protocols.WiFi80211b1M, 100, 700, "w", -1),
		det(protocols.Microwave, 100, 2000, "m", -1), // not due yet
	} {
		if err := d.Process(dt, emit); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Process(watermark(5, 6*chunk), emit); err != nil {
		t.Fatal(err)
	}
	want := []protocols.ID{protocols.WiFi80211b1M, protocols.Bluetooth, protocols.ZigBee}
	if len(got) != len(want) {
		t.Fatalf("sent %v, want families %v", got, want)
	}
	for i, s := range got {
		if s.fam != want[i] {
			t.Errorf("sent[%d] = %v %v, want %v", i, s.fam, s.span, want[i])
		}
	}
}

// TestDispatcherSendsWhatArrivesAfterFlush: the serial scheduler flushes
// the dispatcher right after the first detector, so a later detector's
// Flush (bt-freq closing an open run) delivers a detection to a
// dispatcher that has already seen end of stream. It must still go out.
func TestDispatcherSendsWhatArrivesAfterFlush(t *testing.T) {
	d := NewDispatcher(DispatcherConfig{})
	var got []sentSpan
	step := 0
	emit := collectSent(d.cfg, &got, &step)
	if err := d.Flush(emit); err != nil {
		t.Fatal(err)
	}
	if err := d.Process(det(protocols.Bluetooth, 1000, 4000, "bt-freq", 3), emit); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].span != (iq.Interval{Start: 1000, End: 4000}) {
		t.Errorf("sent %v, want the one late span", got)
	}
}

// sentSpan is one forwarded request, unpadded, and the chunk during
// which it left.
type sentSpan struct {
	fam  protocols.ID
	span iq.Interval
	step int
}

func collectSent(cfg DispatcherConfig, out *[]sentSpan, step *int) func(flowgraph.Item) {
	pad := cfg.SlackSamples / 2
	return func(it flowgraph.Item) {
		r := it.(AnalysisRequest)
		*out = append(*out, sentSpan{r.Family, iq.Interval{Start: r.Span.Start + pad, End: r.Span.End - pad}, *step})
	}
}

// dispatchScript is a random dispatcher input that keeps the serial
// scheduler's contract: peaks are disjoint and ordered; a peak's
// detections arrive during the chunk it completes in (plus the reporting
// detector's lag, for the parallel scheduler), before that chunk's
// watermark; the watermark is the chunk end or the start of the peak
// still open.
type dispatchScript struct {
	steps   [][]Detection
	settled []iq.Tick
}

var scriptFamilies = []protocols.ID{protocols.WiFi80211b1M, protocols.Bluetooth, protocols.ZigBee}

func genDispatchScript(rng *rand.Rand, slack iq.Tick, maxLag int) dispatchScript {
	const nchunks = 400
	end := iq.Tick(nchunks) * chunk
	var peaks []iq.Interval
	for t := iq.Tick(1000); ; {
		pk := iq.Interval{Start: t, End: t + slack/2 + 20 + iq.Tick(rng.Intn(3000))}
		if pk.End >= end-20*chunk {
			break
		}
		peaks = append(peaks, pk)
		switch rng.Intn(3) {
		case 0: // SIFS-like: joins
			t = pk.End + 1 + iq.Tick(rng.Intn(int(slack)))
		case 1: // the join boundary, either side
			t = pk.End + slack + iq.Tick(rng.Intn(3)) - 1
		default:
			t = pk.End + slack + 1 + iq.Tick(rng.Intn(4000))
		}
	}
	sc := dispatchScript{steps: make([][]Detection, nchunks), settled: make([]iq.Tick, nchunks)}
	for k := range sc.settled {
		sc.settled[k] = iq.Tick(k+1) * chunk
		for _, pk := range peaks {
			if pk.Start < sc.settled[k] && pk.End > sc.settled[k] {
				sc.settled[k] = pk.Start
			}
		}
	}
	lag := make([]int, 4)
	for i := range lag {
		if maxLag > 0 {
			lag[i] = rng.Intn(maxLag + 1)
		}
	}
	reported := make([][]Detection, len(scriptFamilies)) // previous peak's, per family
	for _, pk := range peaks {
		done := int((pk.End - 1) / chunk)
		for fi, fam := range scriptFamilies {
			var dets []Detection
			if rng.Intn(2) == 0 {
				// Reports come in stream order (the phase detectors walk a
				// peak front to back) and none is shorter than the request
				// padding, so a clipped one is never absorbed as a sliver
				// and the oracle comparison is exact.
				minLen := int(slack/2) + 20
				for n := 1 + rng.Intn(3); n > 0; n-- {
					span := pk
					if rng.Intn(2) == 0 { // a run inside the peak
						span.Start += iq.Tick(rng.Intn(int(pk.Len()) - minLen + 1))
						span.End = span.Start + iq.Tick(minLen+rng.Intn(int(pk.End-span.Start)-minLen+1))
					}
					dets = append(dets, det(fam, span.Start, span.End, fmt.Sprint("d", rng.Intn(len(lag))), rng.Intn(3)-1))
				}
				sort.SliceStable(dets, func(i, j int) bool { return dets[i].Span.Start < dets[j].Span.Start })
			}
			// Backward reports, before or after this peak's own: a
			// duplicate of the previous peak's (802.11 SIFS), or the
			// previous peak whole when it went unreported (the microwave
			// anchor).
			if prev := reported[fi]; rng.Intn(3) == 0 && len(dets) > 0 && len(prev) > 0 {
				back := prev[rng.Intn(len(prev))]
				back.Detector = dets[0].Detector
				if rng.Intn(2) == 0 {
					dets = append([]Detection{back}, dets...)
				} else {
					dets = append(dets, back)
				}
			}
			reported[fi] = reported[fi][:0]
			for _, dt := range dets {
				if dt.Span.End > pk.Start {
					reported[fi] = append(reported[fi], dt)
				}
				at := done + lag[int(dt.Detector[1]-'0')]
				sc.steps[at] = append(sc.steps[at], dt)
			}
			if len(reported[fi]) == 0 && rng.Intn(4) == 0 {
				reported[fi] = append(reported[fi], det(fam, pk.Start, pk.End, "d0", -1))
			}
		}
	}
	return sc
}

// run feeds the script to a fresh dispatcher, with the watermark after
// every chunk or only at end of stream, and returns what left and when,
// with for each span the step its last constituent detection arrived.
func (sc dispatchScript) run(t *testing.T, cfg DispatcherConfig, watermarks bool) (sent []sentSpan, arrived []int) {
	t.Helper()
	cfg = cfg.withDefaults()
	d := NewDispatcher(cfg)
	step := 0
	var fed []sentSpan
	collect := collectSent(cfg, &sent, &step)
	emit := func(it flowgraph.Item) {
		collect(it)
		s, last := sent[len(sent)-1], 0
		for _, f := range fed {
			if f.fam == s.fam && f.span.Overlaps(s.span) {
				last = max(last, f.step)
			}
		}
		arrived = append(arrived, last)
	}
	for k, dets := range sc.steps {
		step = k
		for _, dt := range dets {
			fed = append(fed, sentSpan{dt.Family, dt.Span, k})
			if err := d.Process(dt, emit); err != nil {
				t.Fatal(err)
			}
		}
		if watermarks {
			if err := d.Process(watermark(k, sc.settled[k]), emit); err != nil {
				t.Fatal(err)
			}
		}
	}
	step = len(sc.steps)
	if err := d.Flush(emit); err != nil {
		t.Fatal(err)
	}
	return sent, arrived
}

// oracle is the offline answer: each family's detections, joined where
// they are within slack of each other.
func (sc dispatchScript) oracle(fam protocols.ID, slack iq.Tick) []iq.Interval {
	var set []iq.Interval
	for _, dets := range sc.steps {
		for _, dt := range dets {
			if dt.Family == fam {
				set = append(set, iq.Interval{Start: dt.Span.Start, End: dt.Span.End + slack})
			}
		}
	}
	merged := iq.Merge(set)
	for i := range merged {
		merged[i].End -= slack
	}
	return merged
}

func spansOf(sent []sentSpan, fam protocols.ID) []iq.Interval {
	var out []iq.Interval
	for _, s := range sent {
		if s.fam == fam {
			out = append(out, s.span)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// checkSent asserts what holds under both schedulers: a family's spans
// are pairwise disjoint and inside the oracle's union, and every span
// left by the first step whose watermark made it due (or the cap did)
// after its last detection arrived (arrived is nil for a run without
// watermarks).
func (sc dispatchScript) checkSent(t *testing.T, cfg DispatcherConfig, sent []sentSpan, arrived []int) {
	t.Helper()
	cfg = cfg.withDefaults()
	for _, fam := range scriptFamilies {
		spans := spansOf(sent, fam)
		for i := 1; i < len(spans); i++ {
			if spans[i].Start < spans[i-1].End {
				t.Errorf("%v: %v and %v overlap: samples forwarded twice", fam, spans[i-1], spans[i])
			}
		}
		want := sc.oracle(fam, cfg.SlackSamples)
		for _, s := range spans {
			if iq.CoverageOf(s, want) != s.Len() {
				t.Errorf("%v: forwarded %v is not inside the detections' union %v", fam, s, want)
			}
		}
	}
	for i, last := range arrived {
		s, due := sent[i], len(sc.steps)
		for k := last; k < len(sc.steps); k++ {
			if s.span.End+cfg.SlackSamples < sc.settled[k] || iq.Tick(k+1)*chunk-s.span.Start > cfg.MaxPending {
				due = k
				break
			}
		}
		if s.step > due {
			t.Errorf("%v %v left during chunk %d, was due by chunk %d", s.fam, s.span, s.step, due)
		}
	}
}

// TestDispatcherAgainstOracle is the dispatcher's property test. The
// reference is not a golden: it is iq.Merge over the same detections,
// which knows nothing about arrival order, watermarks or pending state.
func TestDispatcherAgainstOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		slack := []iq.Tick{chunk, 25, 800}[seed%3]
		sc := genDispatchScript(rng, slack, 0)

		// Serial contract: each family is forwarded exactly the oracle's
		// union whether the watermark arrives every chunk, only at end of
		// stream (Flush is the same path), or with the cap cutting chains.
		// What a watermark changes is when spans leave and where a chain
		// is cut, never which samples are sent.
		cfg := DispatcherConfig{SlackSamples: slack, MaxPending: 20 * chunk}
		for _, watermarks := range []bool{true, false} {
			sent, arrived := sc.run(t, cfg, watermarks)
			if !watermarks {
				arrived = nil
			}
			sc.checkSent(t, cfg, sent, arrived)
			for _, fam := range scriptFamilies {
				if got, want := iq.Merge(spansOf(sent, fam)), sc.oracle(fam, slack); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("seed %d %v (watermarks %v): forwarded union\n  %v\nwant the slack-joined detections\n  %v", seed, fam, watermarks, got, want)
				}
			}
		}

		// Parallel scheduler: detectors lag the watermark by up to six
		// chunks. Merges are missed; nothing is forwarded twice or late.
		lagged := genDispatchScript(rng, slack, 6)
		sent, arrived := lagged.run(t, cfg, true)
		lagged.checkSent(t, cfg, sent, arrived)
		if t.Failed() {
			t.Fatalf("seed %d failed", seed)
		}
	}
}

// barrierReader serves a stream in chunks and then, instead of EOF,
// reports that it is about to block and waits to be released.
type barrierReader struct {
	sliceReader
	blocked chan struct{}
	release chan struct{}
}

func (r *barrierReader) ReadBlock(dst iq.Samples) (int, error) {
	if r.pos >= len(r.s) {
		close(r.blocked)
		<-r.release
		return 0, io.EOF
	}
	n := copy(dst, r.s[r.pos:])
	r.pos += n
	return n, nil
}

// TestRequestLeavesWithinBoundOfBurstEnd holds DESIGN §11.10's record
// delay in stream time: one isolated exchange, then exactly SlackSamples
// + 2 chunks of noise (one chunk is the bound's, one is the peak
// detector's edge refinement), then a reader that blocks. The request
// and the analyzer's product must already be out — not waiting for the
// next burst, or for end of stream.
func TestRequestLeavesWithinBoundOfBurstEnd(t *testing.T) {
	const ackEnd = 62_500
	slack := DispatcherConfig{}.withDefaults().SlackSamples
	stream := burstStream(ackEnd+int(slack+2*chunk), 20, 51,
		iq.Interval{Start: 20_000, End: 60_000},
		iq.Interval{Start: 60_080, End: ackEnd},
	)
	cfg := TimingOnly()
	cfg.Peak.NoiseFloor = 1
	cfg.Metrics = metrics.NewRegistry()
	src := &barrierReader{sliceReader: sliceReader{s: stream}, blocked: make(chan struct{}), release: make(chan struct{})}
	var outputs []flowgraph.Item
	done := make(chan error, 1)
	var res *Result
	go func() {
		var err error
		res, err = NewPipeline(testClock, cfg, &emitAnalyzer{}).RunStream(src, StreamConfig{
			OnOutput: func(it flowgraph.Item) { outputs = append(outputs, it) },
		})
		done <- err
	}()
	<-src.blocked
	// The serial scheduler runs on the reader's goroutine, so everything
	// the delivered samples caused has happened.
	delivered := len(outputs)
	close(src.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(res.Requests) != 1 {
		t.Fatalf("requests %v, want the one merged data/ACK exchange", res.Requests)
	}
	if delivered != 1 {
		t.Errorf("%d analyzer outputs before the reader blocked %d samples after the burst, want 1", delivered, slack+2*chunk)
	}
	// The same bound from the inside: the hold histogram's largest
	// observation is within SlackSamples + one chunk.
	h := cfg.Metrics.Snapshot().Histograms["dispatch/"+protocols.LabelFor(protocols.WiFi80211b1M)+"/hold_samples"]
	if h.Count != 1 || h.Counts[len(h.Counts)-1] != 0 || h.Quantile(1) > int64(slack+chunk) {
		t.Errorf("hold_samples %+v: want one observation of at most %d", h, slack+chunk)
	}
	if g := cfg.Metrics.Snapshot().Gauges["dispatch/pending"]; g != 0 {
		t.Errorf("dispatch/pending = %d after the run", g)
	}
}
