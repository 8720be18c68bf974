package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rfdump/internal/core"
	"rfdump/internal/demod"
	"rfdump/internal/ether"
	"rfdump/internal/history"
	"rfdump/internal/iq"
	"rfdump/internal/mac"
	"rfdump/internal/metrics"
	"rfdump/internal/phy/wifi"
	"rfdump/internal/protocols"
	_ "rfdump/internal/protocols/builtin"
	"rfdump/internal/serving"
	"rfdump/internal/trace"
	"rfdump/internal/wire"
)

func wifiAddr(b byte) (a wifi.Addr) {
	for i := range a {
		a[i] = b
	}
	return
}

// testTrace emulates a short WiFi ping exchange — enough bursts for
// detections and decodable packets, small enough to stream in a test.
func testTrace(t *testing.T) *ether.Result {
	t.Helper()
	res, err := ether.Run(ether.Config{
		SNRdB: 20,
		Seed:  3,
		Sources: []mac.Source{&mac.WiFiUnicast{
			Rate: protocols.WiFi80211b1M, Pings: 4, PayloadBytes: 200,
			InterPing: 8000, Requester: wifiAddr(0x11), Responder: wifiAddr(0x22),
			BSSID: wifiAddr(0x33), CFOHz: 2500,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sliceSrc is the offline reference BlockReader.
type sliceSrc struct {
	s   iq.Samples
	pos int
}

func (r *sliceSrc) ReadBlock(dst iq.Samples) (int, error) {
	if r.pos >= len(r.s) {
		return 0, io.EOF
	}
	n := copy(dst, r.s[r.pos:])
	r.pos += n
	if r.pos >= len(r.s) {
		return n, io.EOF
	}
	return n, nil
}

// newTestDaemon builds an engine + daemon around the test trace's clock.
func newTestDaemon(t *testing.T, clock iq.Clock, reg *metrics.Registry, opt Options) (*Daemon, net.Listener, *httptest.Server) {
	t.Helper()
	cfg, err := core.ParseDetectors("timing,phase")
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(clock, cfg, func() core.Analyzer { return demod.NewWiFiDemod() })
	opt.Engine = eng
	opt.Registry = reg
	d, err := NewDaemon(opt)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = d.Serve(ln) }()
	ts := httptest.NewServer(d.APIHandler())
	t.Cleanup(func() {
		ts.Close()
		d.Close()
	})
	return d, ln, ts
}

// getJSON fetches url and decodes the body into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}

// waitStreamsDone polls /api/streams until want streams exist and all
// are done — which happens-after their last record is queryable.
func waitStreamsDone(t *testing.T, baseURL string, want int) []StreamInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var body struct {
			Streams []StreamInfo `json:"streams"`
		}
		getJSON(t, baseURL+"/api/streams", &body)
		if len(body.Streams) >= want {
			done := true
			for _, st := range body.Streams {
				if !st.Done {
					done = false
				}
			}
			if done {
				return body.Streams
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("streams never finished: %+v", body.Streams)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonLoopbackMatchesOffline is the end-to-end acceptance test:
// the same trace streamed over the wire protocol into the daemon must
// produce detections and packets identical to the offline streaming
// run, and the live SSE feed must carry every one of them.
func TestDaemonLoopbackMatchesOffline(t *testing.T) {
	res := testTrace(t)

	// Offline reference: same detectors, same analyzer, same chunking.
	cfg, err := core.ParseDetectors("timing,phase")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewPipeline(res.Clock, cfg, demod.NewWiFiDemod()).
		RunStream(&sliceSrc{s: res.Samples}, core.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var refPackets []demod.Packet
	for _, item := range ref.Outputs {
		if p, ok := item.(demod.Packet); ok {
			refPackets = append(refPackets, p)
		}
	}
	if len(ref.Detections) == 0 || len(refPackets) == 0 {
		t.Fatalf("weak reference run: %d detections, %d packets", len(ref.Detections), len(refPackets))
	}

	reg := metrics.NewRegistry()
	_, ln, ts := newTestDaemon(t, res.Clock, reg, Options{})

	// Live feed first, so stream-open is observed: read events until
	// stream-close.
	type liveResult struct {
		events []serving.Event
		err    error
	}
	liveCh := make(chan liveResult, 1)
	liveResp, err := http.Get(ts.URL + "/api/live")
	if err != nil {
		t.Fatal(err)
	}
	defer liveResp.Body.Close()
	sc := bufio.NewScanner(liveResp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), ":") {
		t.Fatalf("no SSE preamble (got %q)", sc.Text())
	}
	go func() {
		var out liveResult
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev serving.Event
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				out.err = err
				break
			}
			out.events = append(out.events, ev)
			if ev.Type == "stream-close" {
				break
			}
		}
		liveCh <- out
	}()

	// Stream the trace over the wire protocol.
	client, err := wire.Dial(ln.Addr().String(), wire.StreamMeta{
		StreamID: 7, Rate: res.Clock.Rate, CenterHz: 2_437_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.SendSamples(res.Samples); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}

	var live liveResult
	select {
	case live = <-liveCh:
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for stream-close on /api/live")
	}
	if live.err != nil {
		t.Fatalf("live feed: %v", live.err)
	}

	streams := waitStreamsDone(t, ts.URL, 1)
	if len(streams) != 1 {
		t.Fatalf("streams: %+v", streams)
	}
	st := streams[0]
	if st.Error != "" || !st.Wire.CleanEnd || st.Meta.StreamID != 7 {
		t.Errorf("stream state: %+v", st)
	}
	if st.Wire.Samples != int64(len(res.Samples)) {
		t.Errorf("wire samples %d, want %d", st.Wire.Samples, len(res.Samples))
	}

	// Detections identical to the offline run.
	var dets struct {
		Detections []history.DetectionRecord `json:"detections"`
	}
	getJSON(t, ts.URL+"/api/detections", &dets)
	if len(dets.Detections) != len(ref.Detections) {
		t.Fatalf("daemon %d detections, offline %d", len(dets.Detections), len(ref.Detections))
	}
	for i, got := range dets.Detections {
		want := ref.Detections[i]
		if got.Start != int64(want.Span.Start) || got.End != int64(want.Span.End) ||
			got.Detector != want.Detector || got.Family != want.Family.FamilyName() ||
			got.Confidence != want.Confidence {
			t.Errorf("detection %d: got %+v, want %v", i, got, want)
		}
	}

	// Packets identical, in the shared trace.PacketRecord schema.
	var pkts struct {
		Packets []history.PacketEvent `json:"packets"`
	}
	getJSON(t, ts.URL+"/api/packets", &pkts)
	if len(pkts.Packets) != len(refPackets) {
		t.Fatalf("daemon %d packets, offline %d", len(pkts.Packets), len(refPackets))
	}
	for i, got := range pkts.Packets {
		want := trace.NewPacketRecord(res.Clock, refPackets[i])
		if got.PacketRecord != want {
			t.Errorf("packet %d: got %+v, want %+v", i, got.PacketRecord, want)
		}
	}

	// The live feed carried every detection and packet, framed by
	// stream-open/stream-close.
	var liveDet, livePkt, open, closed int
	for _, ev := range live.events {
		switch ev.Type {
		case "detection":
			liveDet++
		case "packet":
			livePkt++
		case "stream-open":
			open++
		case "stream-close":
			closed++
		}
	}
	if open != 1 || closed != 1 {
		t.Errorf("live open/close = %d/%d, want 1/1", open, closed)
	}
	if liveDet != len(ref.Detections) || livePkt != len(refPackets) {
		t.Errorf("live feed %d detections / %d packets, want %d / %d",
			liveDet, livePkt, len(ref.Detections), len(refPackets))
	}

	// Waterfall renders from the stream's sample ring.
	var wf waterfallResponse
	getJSON(t, ts.URL+"/api/waterfall", &wf)
	if wf.Stream != st.ID || wf.Waterfall.Rows == 0 || wf.TotalSamples != int64(len(res.Samples)) {
		t.Errorf("waterfall: %+v", wf)
	}

	// Metrics surface the daemon counters.
	var snap metrics.Snapshot
	getJSON(t, ts.URL+"/api/metricz?format=json", &snap)
	if snap.Counters["server/detections"] != int64(len(ref.Detections)) {
		t.Errorf("metricz server/detections = %d, want %d",
			snap.Counters["server/detections"], len(ref.Detections))
	}
	if snap.Counters["server/packets"] != int64(len(refPackets)) {
		t.Errorf("metricz server/packets = %d, want %d",
			snap.Counters["server/packets"], len(refPackets))
	}
	if _, ok := snap.Gauges["blocks/pool/live"]; !ok {
		t.Error("metricz missing blocks/pool gauges")
	}
}

// TestSlowSubscriberDoesNotBlockIngest pins the backpressure contract:
// a live-feed subscriber that never reads must not stall the sample
// path — ingest completes, events are dropped for that subscriber, and
// the drops are visible in /api/metricz.
func TestSlowSubscriberDoesNotBlockIngest(t *testing.T) {
	res := testTrace(t)
	reg := metrics.NewRegistry()
	d, ln, ts := newTestDaemon(t, res.Clock, reg, Options{SubscriberQueue: 2})

	// A subscriber that never drains its queue (the broker half of a
	// stalled SSE client; handleLive's writer is just such a drain).
	stuck := d.Hub().Broker().Subscribe()
	defer d.Hub().Broker().Unsubscribe(stuck)

	client, err := wire.Dial(ln.Addr().String(), wire.StreamMeta{StreamID: 1, Rate: res.Clock.Rate})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		if err := client.SendSamples(res.Samples); err != nil {
			done <- err
			return
		}
		done <- client.Close()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ingest blocked by a slow subscriber")
	}
	streams := waitStreamsDone(t, ts.URL, 1)
	if streams[0].Error != "" {
		t.Fatalf("session failed: %+v", streams[0])
	}
	if streams[0].Detections == 0 {
		t.Fatal("no detections — trace too quiet to exercise the feed")
	}
	if got := stuck.Dropped(); got == 0 {
		t.Error("stuck subscriber dropped nothing; queue bound not enforced")
	}

	var snap metrics.Snapshot
	getJSON(t, ts.URL+"/api/metricz?format=json", &snap)
	if snap.Counters["server/sse/dropped_events"] == 0 {
		t.Error("metricz dropped_events is zero")
	}
	// And the text rendering carries the same counter for operators.
	resp, err := http.Get(ts.URL + "/api/metricz")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "server/sse/dropped_events") {
		t.Errorf("text metricz missing dropped_events:\n%s", text)
	}
}

// TestDaemonRejectsRateMismatch: a transmitter at the wrong sample rate
// is refused (detector math is clock-specific) and counted.
func TestDaemonRejectsRateMismatch(t *testing.T) {
	reg := metrics.NewRegistry()
	clock := iq.NewClock(0)
	_, ln, ts := newTestDaemon(t, clock, reg, Options{})

	client, err := wire.Dial(ln.Addr().String(), wire.StreamMeta{StreamID: 9, Rate: clock.Rate / 2})
	if err != nil {
		t.Fatal(err)
	}
	_ = client.SendSamples(make(iq.Samples, 1024))
	_ = client.Close()

	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter("server/ingest/rejected").Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("rejection never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var body struct {
		Streams []StreamInfo `json:"streams"`
	}
	getJSON(t, ts.URL+"/api/streams", &body)
	if len(body.Streams) != 0 {
		t.Errorf("rejected stream registered: %+v", body.Streams)
	}
}

// TestDaemonDrain: Drain with a live, idle ingest connection must nudge
// the blocked read, end the session cleanly, and keep results
// queryable.
func TestDaemonDrain(t *testing.T) {
	res := testTrace(t)
	reg := metrics.NewRegistry()
	d, ln, ts := newTestDaemon(t, res.Clock, reg, Options{})

	client, err := wire.Dial(ln.Addr().String(), wire.StreamMeta{StreamID: 2, Rate: res.Clock.Rate})
	if err != nil {
		t.Fatal(err)
	}
	// Send the trace but no End frame: the connection stays open, the
	// daemon blocks in a frame read.
	if err := client.SendSamples(res.Samples); err != nil {
		t.Fatal(err)
	}
	// Wait until the daemon has consumed the samples.
	deadline := time.Now().Add(20 * time.Second)
	for {
		var body struct {
			Streams []StreamInfo `json:"streams"`
		}
		getJSON(t, ts.URL+"/api/streams", &body)
		if len(body.Streams) == 1 && body.Streams[0].Wire.Samples == int64(len(res.Samples)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never consumed the trace: %+v", body.Streams)
		}
		time.Sleep(10 * time.Millisecond)
	}

	drained := make(chan struct{})
	go func() { d.Drain(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(20 * time.Second):
		t.Fatal("Drain hung on an idle ingest connection")
	}
	streams := waitStreamsDone(t, ts.URL, 1)
	if streams[0].Error != "" {
		t.Errorf("drained session reported failure: %+v", streams[0])
	}
	if streams[0].Detections == 0 {
		t.Error("drained session lost its detections")
	}
}
