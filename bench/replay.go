package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rfdump/internal/cluster"
	"rfdump/internal/core"
	"rfdump/internal/demod"
	"rfdump/internal/flowgraph"
	"rfdump/internal/frontend"
	"rfdump/internal/history"
	"rfdump/internal/iq"
	"rfdump/internal/server"
	"rfdump/internal/serving"
	"rfdump/internal/wire"
)

// span is one timed call from the bench into a layer: the spans.json
// record. Start and End are nanoseconds since the replay began; Parent
// is the enclosing span's id (0 for the root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer records spans in memory; they are written when the run ends.
// A nil tracer records nothing (the spans-off pass of the overhead
// measurement).
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
}

// end closes the innermost open span. An error return abandons the
// replay with spans still open; they are never read.
func (t *tracer) end() {
	if t == nil {
		return
	}
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int]int64)
	for _, s := range t.spans {
		children[s.Parent] += s.End - s.Start
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - children[s.ID])
	}
	return out
}

// replayCounts are the counts taken at the same boundaries as the spans.
type replayCounts struct {
	samples, frames, peaks    int
	detections, forwarded     int
	packets, crcOK            int
	wifiFwd, btFwd            int
	hubRecords, appends       int
	snippets, pages, events   int
	sseEvents                 int
	sightings, merged, ledger int
}

// records per stage: a stage that handles single records is repeated
// until it has handled about this many, so its span is long enough to
// time.
const stageRecords = 20_000

// pageStride: the query stages fetch every pageStride-th page.
const pageStride = 5

// replay pushes one loop of the base trace through each layer in turn
// on this goroutine — the single-threaded baseline — timing every call
// into a layer's public functions from here. No code inside the program
// is touched.
func replay(base iq.Samples, scratch string, t *tracer) (replayCounts, error) {
	var c replayCounts
	c.samples = len(base)
	clock := iq.NewClock(airRate)
	t.begin("replay")
	defer t.end()

	// wire: encode the loop into frames, decode it back out.
	var buf bytes.Buffer
	buf.Grow(len(base)*8 + (len(base)/frameSamples+2)*wire.HeaderSize)
	client := wire.NewClient(&buf, wire.StreamMeta{StreamID: 1, Rate: airRate})
	t.begin("wire.tx")
	err := client.SendSamples(base)
	t.end()
	if err == nil {
		err = client.End()
	}
	if err != nil {
		return c, err
	}
	c.frames = int(client.FramesSent())
	dec := wire.NewDecoder(&buf)
	block := make(iq.Samples, iq.ChunkSamples)
	decoded := 0
	t.begin("wire.rx")
	for {
		n, err := dec.ReadBlock(block)
		decoded += n
		if err != nil {
			if !errors.Is(err, io.EOF) {
				return c, err
			}
			break
		}
	}
	t.end()
	if decoded != len(base) {
		return c, fmt.Errorf("wire round trip delivered %d of %d samples", decoded, len(base))
	}

	// core: the peak detector alone, then detector-only sessions, then
	// the whole session with analyzers.
	pd := core.NewPeakDetector(core.PeakConfig{})
	count := func(item flowgraph.Item) {
		m := item.(*core.ChunkMeta)
		c.peaks += len(m.Completed)
		m.Dispose()
	}
	t.begin("core.peak")
	for s := 0; s < len(base) && err == nil; s += iq.ChunkSamples {
		e := min(s+iq.ChunkSamples, len(base))
		err = pd.Process(core.Chunk{
			Seq: s / iq.ChunkSamples, Span: iq.Interval{Start: iq.Tick(s), End: iq.Tick(e)}, Samples: base[s:e],
		}, count)
	}
	if err == nil {
		err = pd.Flush(count)
	}
	t.end()
	if err != nil {
		return c, err
	}
	session := func(name, detectors string, factories []core.AnalyzerFactory) (*core.Result, error) {
		cfg, err := core.ParseDetectors(detectors)
		if err != nil {
			return nil, err
		}
		sess, err := core.NewEngine(clock, cfg, factories...).NewSession(core.StreamConfig{WindowSamples: 1_600_000})
		if err != nil {
			return nil, err
		}
		t.begin(name)
		defer t.end()
		return sess.Run(frontend.NewMemorySource(base))
	}
	if _, err := session("core.detect.timing", "timing", nil); err != nil {
		return c, err
	}
	if _, err := session("core.detect.timing+phase", "timing,phase", nil); err != nil {
		return c, err
	}
	res, err := session("core.session", "timing,phase", core.RegistryAnalyzerFactories(analyzerOptions))
	if err != nil {
		return c, err
	}
	c.detections = len(res.Detections)
	var packets []demod.Packet
	for _, o := range res.Outputs {
		if p, ok := o.(demod.Packet); ok {
			packets = append(packets, p)
		}
	}

	// demod: each analyzer over the spans the session forwarded.
	acc := &core.StreamAccessor{Stream: base}
	emit := func(item flowgraph.Item) {
		if p, ok := item.(demod.Packet); ok {
			c.packets++
			if p.Valid {
				c.crcOK++
			}
		}
	}
	analyzers := core.RegistryAnalyzers(analyzerOptions)
	t.begin("demod")
	for _, req := range res.Requests {
		c.forwarded += int(req.Span.Len())
		for _, a := range analyzers {
			if !a.Accepts(req.Family) {
				continue
			}
			name := "demod.bt"
			if strings.HasPrefix(a.Name(), "802.11") {
				name = "demod.wifi"
				c.wifiFwd += int(req.Span.Len())
			} else {
				c.btFwd += int(req.Span.Len())
			}
			t.begin(name)
			err := a.Analyze(acc, req, emit)
			t.end()
			if err != nil {
				return c, err
			}
		}
	}
	t.end()
	if c.packets != len(packets) {
		return c, fmt.Errorf("staged demod decoded %d packets, the session %d", c.packets, len(packets))
	}

	// The reference: the batch pipeline over the same trace must agree
	// with the staged replay on what is in it.
	cfg, err := core.ParseDetectors("timing,phase")
	if err != nil {
		return c, err
	}
	ref, err := core.NewPipeline(clock, cfg, core.RegistryAnalyzers(analyzerOptions)...).Run(base)
	if err != nil {
		return c, err
	}
	if len(ref.Detections) != c.detections || len(ref.Outputs) != len(res.Outputs) {
		return c, fmt.Errorf("staged replay saw %d detections and %d packets, core.Pipeline.Run %d and %d",
			c.detections, len(res.Outputs), len(ref.Detections), len(ref.Outputs))
	}
	if c.detections == 0 || len(packets) == 0 {
		return c, fmt.Errorf("base trace yields %d detections and %d packets: nothing to replay downstream", c.detections, len(packets))
	}

	if err := replayServing(res.Detections, packets, base, scratch, t, &c); err != nil {
		return c, err
	}
	return c, replayCluster(res.Detections, int64(len(base)), t, &c)
}

// replayServing times the layers behind the pipeline's callbacks: hub,
// history stores, broker, query route and SSE writer.
func replayServing(dets []core.Detection, packets []demod.Packet, base iq.Samples, scratch string, t *tracer, c *replayCounts) error {
	rounds := stageRecords/len(dets) + 1

	// server.hub: memory store, one draining subscriber.
	eng, err := newEngine(nil)
	if err != nil {
		return err
	}
	memD, err := server.NewDaemon(server.Options{Engine: eng, SubscriberQueue: 4096, EvictAfter: -1})
	if err != nil {
		return err
	}
	defer memD.Close()
	hub := memD.Hub()
	sub := hub.Broker().Subscribe()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range sub.Events() {
		}
	}()
	st, _ := hub.Attach(server.AttachSpec{Remote: "replay", Meta: wire.StreamMeta{StreamID: 1, Rate: airRate}})
	t.begin("server.hub")
	for r := 0; r < rounds; r++ {
		for _, d := range dets {
			hub.Detection(st, d)
		}
		for _, p := range packets {
			hub.Packet(st, p)
		}
		c.hubRecords += len(dets) + len(packets)
	}
	t.end()

	// serving.publish: the broker alone, same subscriber. recs is what
	// the memory store retained of the hub stage (its ring's worth).
	recs := hub.Detections(0, 0)
	recRounds := stageRecords/len(recs) + 1
	t.begin("serving.publish")
	for r := 0; r < recRounds; r++ {
		for i := range recs {
			hub.Broker().Publish(serving.Event{Seq: recs[i].Seq, Type: "detection", Stream: 1, Detection: &recs[i]})
		}
		c.events += len(recs)
	}
	t.end()
	hub.Broker().Unsubscribe(sub)
	<-drained

	// serving.sse: events published through the hub until a real SSE
	// client on a loopback socket has read them all.
	ts := httptest.NewServer(memD.APIHandler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/live?types=detection")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		return err
	}
	c.sseEvents = min(rounds*len(dets), 4000) // inside the subscriber queue: none may drop
	t.begin("serving.sse")
	for i := 0; i < c.sseEvents; i++ {
		hub.Detection(st, dets[i%len(dets)])
	}
	for got := 0; got < c.sseEvents; {
		line, err := br.ReadString('\n')
		if err != nil {
			return fmt.Errorf("sse replay: %w after %d of %d events", err, got, c.sseEvents)
		}
		if strings.HasPrefix(line, "data: ") {
			got++
		}
	}
	t.end()

	// history: the two stores directly.
	mem, err := history.NewMemory(history.MemoryConfig{})
	if err != nil {
		return err
	}
	defer mem.Close()
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratch, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := history.OpenDisk(history.DiskConfig{Dir: filepath.Join(dir, "store")})
	if err != nil {
		return err
	}
	defer disk.Close()
	appendAll := func(name string, store history.Store) error {
		t.begin(name)
		defer t.end()
		for r := 0; r < recRounds; r++ {
			for i := range recs {
				rec := recs[i]
				rec.Seq = 0 // the store stamps its own
				if err := store.AppendDetection(&rec); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := appendAll("history.mem_append", mem); err != nil {
		return err
	}
	if err := appendAll("history.disk_append", disk); err != nil {
		return err
	}
	c.appends = recRounds * len(recs)
	// A page costs more the further into the store it starts (the segment
	// is scanned up to the cursor), and the end-to-end pager visits every
	// position equally: every pageStride-th page gives the same average in
	// a fifth of the time.
	t.begin("history.disk_query_page")
	var cursor uint64
	for more := true; more; c.pages++ {
		_, next, m, err := disk.QueryDetections(history.Query{Stream: 1, Limit: queryPage, Cursor: cursor})
		if err != nil {
			return err
		}
		cursor, more = next+(pageStride-1)*queryPage, m
	}
	t.end()
	t.begin("history.disk_snippet_append")
	for i, d := range dets {
		if i == 64 {
			break // ≤ 32 MB of IQ: enough appends to time, not a disk test
		}
		span := d.Span
		if span.Len() > 65536 {
			span.End = span.Start + 65536
		}
		snip := history.Snippet{
			Stream: 1, Detection: uint64(i + 1), Rate: airRate,
			Start: int64(span.Start), End: int64(span.End), IQ: base[span.Start:span.End],
		}
		if err := disk.AppendSnippet(&snip); err != nil {
			return err
		}
		c.snippets++
	}
	t.end()

	// serving.query_handler: the page route over a disk-backed daemon,
	// JSON included, quota off (the end-to-end run keeps it on).
	diskEng, err := newEngine(nil)
	if err != nil {
		return err
	}
	diskD, err := server.NewDaemon(server.Options{
		Engine: diskEng, StoreDir: filepath.Join(dir, "daemon"), QueryRPS: -1, TileSamples: -1,
	})
	if err != nil {
		return err
	}
	defer diskD.Close()
	dst, _ := diskD.Hub().Attach(server.AttachSpec{Remote: "replay", Meta: wire.StreamMeta{StreamID: 1, Rate: airRate}})
	for i := 0; i < c.appends; i++ { // as many records as the bare store holds
		diskD.Hub().Detection(dst, dets[i%len(dets)])
	}
	handler := diskD.APIHandler()
	t.begin("serving.query_handler")
	cursor = 0
	pages := 0
	for more := true; more; pages++ {
		rw := httptest.NewRecorder()
		handler.ServeHTTP(rw, httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/api/streams/1/detections?limit=%d&cursor=%d", queryPage, cursor), nil))
		var body struct {
			Next uint64 `json:"next_cursor"`
			More bool   `json:"more"`
		}
		if rw.Code != http.StatusOK {
			return fmt.Errorf("query handler: status %d", rw.Code)
		}
		if err := json.Unmarshal(rw.Body.Bytes(), &body); err != nil {
			return err
		}
		cursor, more = body.Next+(pageStride-1)*queryPage, body.More
	}
	t.end()
	if pages != c.pages {
		return fmt.Errorf("query handler served %d pages, the store %d", pages, c.pages)
	}
	return nil
}

// replayCluster times the aggregation tier on the loop's detections
// offered as two sensors' interleaved feeds, the far one 24 ticks askew
// and a shade weaker.
func replayCluster(dets []core.Detection, loop int64, t *tracer, c *replayCounts) error {
	type sighting struct {
		node string
		rec  history.DetectionRecord
	}
	var feed []sighting
	for i, d := range dets {
		a := history.DetectionRecord{
			Seq: uint64(i + 1), Stream: 1,
			TimeS:  float64(d.Span.Start) / airRate,
			Family: d.Family.FamilyName(), Detector: d.Detector,
			AbsStart: int64(d.Span.Start), AbsEnd: int64(d.Span.End),
			Confidence: d.Confidence, Channel: d.Channel,
		}
		b := a
		b.AbsStart += 24
		b.AbsEnd += 24
		b.Confidence *= 0.97
		feed = append(feed, sighting{"s0", a}, sighting{"s1", b})
	}
	// A continuous sample counter, as in the end-to-end run: each round
	// is the next loop of the trace, so nothing is a duplicate.
	rounds := stageRecords/len(feed) + 1
	shift := func(rec *history.DetectionRecord, by int64) {
		rec.AbsStart += by
		rec.AbsEnd += by
	}

	fuser := cluster.NewFuser(cluster.MatchConfig{}, nil)
	t.begin("cluster.fuse")
	for r := 0; r < rounds; r++ {
		for i := range feed {
			rec := feed[i].rec
			shift(&rec, int64(r)*loop)
			if _, res := fuser.Ingest(feed[i].node, 1, &rec); res == cluster.Merged {
				c.merged++
			}
			c.sightings++
		}
	}
	t.end()

	ledger, err := cluster.NewFusedLedger(cluster.LedgerConfig{})
	if err != nil {
		return err
	}
	defer ledger.Close()
	t.begin("cluster.ledger")
	for r := 0; r < rounds; r++ {
		for i := range feed {
			rec := feed[i].rec
			shift(&rec, int64(r)*loop)
			ledger.Ingest(feed[i].node, 1, &rec)
			c.ledger++
		}
	}
	t.end()
	if got := ledger.Fuser().Len(); got != fuser.Len() {
		return fmt.Errorf("ledger fused %d detections, the bare fuser %d", got, fuser.Len())
	}
	return nil
}

// replayMetrics derives the per-layer metrics from the traced pass's
// spans and counts. onWall/offWall are the two passes' wall times.
func replayMetrics(t *tracer, c replayCounts, onWall, offWall time.Duration, v map[string]float64) {
	self := t.selfTimes()
	total := make(map[string]time.Duration)
	for _, s := range t.spans {
		total[s.Name] += time.Duration(s.End - s.Start)
	}
	per := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n)
	}
	share := func(a, b int) float64 { return per(time.Duration(a), b) }
	n := c.samples
	v["wire.tx_ns_per_sample"] = per(total["wire.tx"], n)
	v["wire.rx_ns_per_sample"] = per(total["wire.rx"], n)
	v["wire.frames"] = float64(c.frames)
	v["core.peak_ns_per_sample"] = per(total["core.peak"], n)
	v["core.peaks"] = float64(c.peaks)
	// Each detector stage is its session minus the stage before; what is
	// left of the full session after the demod self times is flowgraph,
	// dispatch and window. The five add up to the session by
	// construction.
	v["core.timing_ns_per_sample"] = per(total["core.detect.timing"]-total["core.peak"], n)
	v["core.phase_ns_per_sample"] = per(total["core.detect.timing+phase"]-total["core.detect.timing"], n)
	v["core.detections"] = float64(c.detections)
	v["core.session_ns_per_sample"] = per(total["core.session"], n)
	demodSelf := self["demod.wifi"] + self["demod.bt"]
	v["core.unattributed_ns_per_sample"] = per(total["core.session"]-total["core.detect.timing+phase"]-demodSelf, n)
	v["core.forwarded_share"] = float64(c.forwarded) / float64(n)
	v["demod.wifi_ns_per_fwd_sample"] = per(self["demod.wifi"], c.wifiFwd)
	v["demod.bt_ns_per_fwd_sample"] = per(self["demod.bt"], c.btFwd)
	v["demod.packets"] = float64(c.packets)
	v["demod.crc_ok_share"] = share(c.crcOK, c.packets)
	v["server.hub_ns_per_record"] = per(total["server.hub"], c.hubRecords)
	v["history.mem_append_ns"] = per(total["history.mem_append"], c.appends)
	v["history.disk_append_ns"] = per(total["history.disk_append"], c.appends)
	v["history.disk_snippet_append_ns"] = per(total["history.disk_snippet_append"], c.snippets)
	v["history.disk_query_page_ms"] = per(total["history.disk_query_page"], c.pages) / 1e6
	v["serving.publish_ns_per_event"] = per(total["serving.publish"], c.events)
	v["serving.query_handler_ms"] = per(total["serving.query_handler"], c.pages) / 1e6
	v["serving.sse_ns_per_event"] = per(total["serving.sse"], c.sseEvents)
	v["cluster.fuse_ns_per_sighting"] = per(total["cluster.fuse"], c.sightings)
	v["cluster.ledger_ns_per_sighting"] = per(total["cluster.ledger"], c.ledger)
	v["cluster.merge_share"] = share(c.merged, c.sightings)
	v["trace.overhead_share"] = float64(onWall) / float64(offWall)
}

// stagedReplay runs the replay three times — a warm-up pass that fills
// caches, plans and pools, then spans off, then spans on — writes the
// spans, and fills the per-layer metrics from the traced pass.
func stagedReplay(base iq.Samples, scratch, spansPath string, r *report) error {
	if _, err := replay(base, scratch, nil); err != nil {
		return err
	}
	begin := time.Now()
	if _, err := replay(base, scratch, nil); err != nil {
		return err
	}
	offWall := time.Since(begin)
	t := newTracer()
	c, err := replay(base, scratch, t)
	if err != nil {
		return err
	}
	onWall := time.Duration(t.spans[0].End - t.spans[0].Start)
	replayMetrics(t, c, onWall, offWall, r.values)
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(spansPath, data, 0o644)
}
