package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"rfdump/internal/chaos"
	"rfdump/internal/core"
	"rfdump/internal/demod"
	"rfdump/internal/ether"
	"rfdump/internal/history"
	"rfdump/internal/mac"
	"rfdump/internal/metrics"
	"rfdump/internal/protocols"
	"rfdump/internal/serving"
	"rfdump/internal/wire"
)

// httpStatus fetches url and returns the status code plus decoded body
// (tolerating non-200, unlike getJSON).
func httpStatus(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

// waitStatus polls url until it returns the wanted status code.
func waitStatus(t *testing.T, url string, want int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if code := httpStatus(t, url, nil); code == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s never returned %d within %v", url, want, within)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHealthEndpoints drives the liveness and readiness probes through
// their full cycle: ok → stalled (ingest silent past the threshold) →
// recovered (a heartbeat, no data needed) → draining.
func TestHealthEndpoints(t *testing.T) {
	res := testTrace(t)
	reg := metrics.NewRegistry()
	d, ln, ts := newTestDaemon(t, res.Clock, reg, Options{StallAfter: 150 * time.Millisecond})

	var h healthResponse
	if code := httpStatus(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz with no streams = %d, want 200", code)
	}
	if code := httpStatus(t, ts.URL+"/readyz", &h); code != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", code)
	}

	client, err := wire.Dial(ln.Addr().String(), wire.StreamMeta{
		StreamID: 4, Rate: res.Clock.Rate,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Abort()
	if err := client.SendFrame(res.Samples[:4096]); err != nil {
		t.Fatal(err)
	}

	// The stream is live and fed: healthy. Then it goes silent; within
	// the stall threshold (plus polling slack) the probe must flip 503.
	if code := httpStatus(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz with fresh frames = %d, want 200", code)
	}
	waitStatus(t, ts.URL+"/healthz", http.StatusServiceUnavailable, 2*time.Second)
	var stalled healthResponse
	httpStatus(t, ts.URL+"/healthz", &stalled)
	if stalled.Status != "stalled" || len(stalled.Stalled) != 1 {
		t.Fatalf("stalled body = %+v, want status=stalled with one entry", stalled)
	}
	if stalled.Stalled[0].SilentS <= 0.1 {
		t.Errorf("stalled silent_s = %v, want > stall threshold", stalled.Stalled[0].SilentS)
	}

	// A heartbeat alone (no samples) proves life and restores 200.
	if err := client.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, ts.URL+"/healthz", http.StatusOK, 2*time.Second)

	// Draining flips readiness, not liveness.
	go d.Drain()
	waitStatus(t, ts.URL+"/readyz", http.StatusServiceUnavailable, 5*time.Second)
	var ready healthResponse
	httpStatus(t, ts.URL+"/readyz", &ready)
	if ready.Status != "draining" || !ready.Draining {
		t.Fatalf("readyz body = %+v, want draining", ready)
	}
}

// TestSlowSubscriberEvicted pins the bounded-lag rule: a subscriber
// that keeps dropping is unsubscribed by the broker (channel closed,
// eviction counted) instead of holding its queue forever, while a
// subscriber that keeps consuming stays.
func TestSlowSubscriberEvicted(t *testing.T) {
	reg := metrics.NewRegistry()
	b := serving.NewBroker(2, 4, reg)
	slow := b.Subscribe()
	for i := 0; i < 10; i++ {
		b.Publish(serving.Event{Seq: uint64(i), Type: "detection"})
	}
	if !slow.Evicted() {
		t.Fatal("subscriber with 8 consecutive drops not evicted")
	}
	// Queue still holds the oldest 2 events, then closes.
	var got int
	for range slow.Events() {
		got++
	}
	if got != 2 {
		t.Errorf("drained %d events from evicted queue, want 2", got)
	}
	if n := reg.Counter("server/conns_evicted").Load(); n != 1 {
		t.Errorf("server/conns_evicted = %d, want 1", n)
	}

	// A consuming subscriber never accumulates enough consecutive drops.
	ok := b.Subscribe()
	for i := 0; i < 50; i++ {
		b.Publish(serving.Event{Seq: uint64(i), Type: "detection"})
		select {
		case <-ok.Events():
		default:
		}
	}
	if ok.Evicted() {
		t.Error("consuming subscriber was evicted")
	}
	b.Unsubscribe(ok)
}

// TestReconnectStitchingAccounting reconnects by hand with a resume
// ledger that declares a known 1000-sample outage and checks the hub
// stitches one stream, prices exactly that gap, and reports it through
// every surface: /api/streams, /api/metricz, and absolute detection
// spans.
func TestReconnectStitchingAccounting(t *testing.T) {
	res := testTrace(t)
	reg := metrics.NewRegistry()
	_, ln, ts := newTestDaemon(t, res.Clock, reg, Options{})

	meta := wire.StreamMeta{StreamID: 7, Rate: res.Clock.Rate, CenterHz: 2_437_000_000}
	half := (len(res.Samples) / 2 / 4096) * 4096

	c1, err := wire.Dial(ln.Addr().String(), meta)
	if err != nil {
		t.Fatal(err)
	}
	c1.SetFrameSamples(4096)
	if err := c1.SendSamples(res.Samples[:half]); err != nil {
		t.Fatal(err)
	}
	sent1, frames1 := c1.SamplesSent(), c1.FramesSent()
	if err := c1.Abort(); err != nil { // crash, no End frame
		t.Fatal(err)
	}

	// Wait for the first session to finish draining.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var body struct {
			Streams []StreamInfo `json:"streams"`
		}
		getJSON(t, ts.URL+"/api/streams", &body)
		if len(body.Streams) == 1 && body.Streams[0].Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first epoch never drained: %+v", body.Streams)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Reconnect claiming 1000 samples more than were delivered: the
	// outage the daemon must price.
	const lost = 1000
	c2, err := wire.Dial(ln.Addr().String(), meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.SendResume(wire.ResumeInfo{
		Epoch:       1,
		SentFrames:  uint64(frames1),
		SentSamples: uint64(sent1) + lost,
	}); err != nil {
		t.Fatal(err)
	}
	c2.SetFrameSamples(4096)
	if err := c2.SendSamples(res.Samples[half:]); err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	// The daemon processes c2's resume asynchronously: the stream can
	// look idle after the first epoch drains but before the stitch
	// lands, so wait for the stitched epoch itself, not mere idleness.
	var st StreamInfo
	deadline = time.Now().Add(30 * time.Second)
	for {
		streams := waitStreamsDone(t, ts.URL, 1)
		if len(streams) != 1 {
			t.Fatalf("got %d streams, want 1 (reconnect must stitch, not fork)", len(streams))
		}
		st = streams[0]
		if st.Epoch == 1 && st.Reconnects == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resume never stitched: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.GapSamples != lost {
		t.Errorf("GapSamples = %d, want %d", st.GapSamples, lost)
	}
	if len(st.Gaps) != 1 {
		t.Fatalf("gaps = %+v, want exactly one record", st.Gaps)
	}
	g := st.Gaps[0]
	if g.Epoch != 1 || g.Samples != lost || g.AtSample != sent1 {
		t.Errorf("gap = %+v, want epoch=1 samples=%d at=%d", g, lost, sent1)
	}
	if st.Wire.Samples != sent1+int64(len(res.Samples))-int64(half) {
		t.Errorf("Wire.Samples = %d, want %d delivered", st.Wire.Samples, sent1+int64(len(res.Samples))-int64(half))
	}
	if !st.Wire.CleanEnd {
		t.Error("stitched stream did not end cleanly")
	}
	if len(st.Epochs) != 2 {
		t.Fatalf("epochs = %+v, want 2", st.Epochs)
	}
	if st.Epochs[1].StartOffset != sent1+lost {
		t.Errorf("epoch 1 start offset = %d, want %d", st.Epochs[1].StartOffset, sent1+lost)
	}

	// Absolute spans: epoch-1 detections sit on the transmit timeline,
	// offset by everything epoch 0 carried plus the gap.
	var dets struct {
		Detections []history.DetectionRecord `json:"detections"`
	}
	getJSON(t, fmt.Sprintf("%s/api/detections?stream=%d", ts.URL, st.ID), &dets)
	if len(dets.Detections) == 0 {
		t.Fatal("no detections recorded")
	}
	base := sent1 + lost
	var sawEpoch1 bool
	for _, rec := range dets.Detections {
		if rec.Epoch != 1 {
			continue
		}
		sawEpoch1 = true
		if rec.AbsStart != rec.Start+base || rec.AbsEnd != rec.End+base {
			t.Errorf("epoch-1 detection abs span (%d,%d), want (%d,%d)",
				rec.AbsStart, rec.AbsEnd, rec.Start+base, rec.End+base)
		}
	}
	if !sawEpoch1 {
		t.Error("no epoch-1 detections; second half produced nothing")
	}

	var snap metrics.Snapshot
	getJSON(t, ts.URL+"/api/metricz?format=json", &snap)
	if snap.Counters["wire/reconnects"] != 1 {
		t.Errorf("metricz wire/reconnects = %d, want 1", snap.Counters["wire/reconnects"])
	}
	if snap.Counters["wire/gap_samples"] != lost {
		t.Errorf("metricz wire/gap_samples = %d, want %d", snap.Counters["wire/gap_samples"], lost)
	}
}

// soakTrace is a longer exchange than testTrace — enough bursts that
// forced disconnects land between (and inside) packets.
func soakTrace(t *testing.T) *ether.Result {
	t.Helper()
	res, err := ether.Run(ether.Config{
		SNRdB: 20,
		Seed:  3,
		Sources: []mac.Source{&mac.WiFiUnicast{
			Rate: protocols.WiFi80211b1M, Pings: 8, PayloadBytes: 300,
			InterPing: 8000, Requester: wifiAddr(0x11), Responder: wifiAddr(0x22),
			BSSID: wifiAddr(0x33), CFOHz: 2500,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestChaosSoakLedger is the acceptance test for the resilience layer:
// a ReconnectClient streams a trace through a chaos proxy that injects
// latency, at least three forced mid-stream disconnects, and one full
// partition. The client must reconnect on its own, and afterwards the
// end-to-end ledger must balance exactly — samples delivered plus gaps
// accounted equals samples transmitted, zero silent loss — and every
// offline detection must be either reproduced or attributable to an
// accounted gap or an epoch boundary.
func TestChaosSoakLedger(t *testing.T) {
	res := soakTrace(t)

	// Offline reference: what a lossless run detects.
	cfg, err := core.ParseDetectors("timing,phase")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewPipeline(res.Clock, cfg, demod.NewWiFiDemod()).
		RunStream(&sliceSrc{s: res.Samples}, core.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Detections) < 4 {
		t.Fatalf("weak reference run: %d detections", len(ref.Detections))
	}

	reg := metrics.NewRegistry()
	_, ln, ts := newTestDaemon(t, res.Clock, reg, Options{
		IdleTimeout: 2 * time.Second,
		StallAfter:  500 * time.Millisecond,
	})

	proxy := chaos.New(ln.Addr().String(), chaos.Config{
		Latency: 50 * time.Microsecond,
		Jitter:  25 * time.Microsecond,
		Seed:    5,
	})
	addr, err := proxy.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	rc := wire.NewReconnectClient(addr, wire.StreamMeta{
		StreamID: 21, Rate: res.Clock.Rate, CenterHz: 2_437_000_000,
	}, wire.ReconnectConfig{
		DialTimeout:  time.Second,
		WriteTimeout: 300 * time.Millisecond,
		MinBackoff:   2 * time.Millisecond,
		MaxBackoff:   30 * time.Millisecond,
		Heartbeat:    50 * time.Millisecond,
		FrameSamples: 1024,
		Seed:         9,
		Metrics:      reg,
	})

	const frameSamples = 1024
	nFrames := (len(res.Samples) + frameSamples - 1) / frameSamples
	// Three forced disconnects spread through the stream, one partition
	// at 70%. A scheduled drop that finds no live link (the proxy has
	// not re-accepted yet, or the client is still down) retries on the
	// next frame.
	dropsWanted := 3
	dropsDone := 0
	nextDrop := nFrames / 5
	partitionAt := nFrames * 7 / 10
	partitionHealed := make(chan struct{})
	partitioned := false

	for i := 0; i < nFrames; i++ {
		// Pace near the trace's real-time rate: an unpaced loop outruns
		// the proxy by orders of magnitude, and every fault just lands
		// in kernel buffers instead of a live link.
		time.Sleep(150 * time.Microsecond)
		if dropsDone < dropsWanted && i >= nextDrop {
			if proxy.DropActive() > 0 {
				dropsDone++
				nextDrop = i + nFrames/5
			}
		}
		if !partitioned && i >= partitionAt {
			partitioned = true
			proxy.Partition(true)
			go func() {
				time.Sleep(250 * time.Millisecond)
				proxy.Partition(false)
				close(partitionHealed)
			}()
		}
		lo := i * frameSamples
		hi := lo + frameSamples
		if hi > len(res.Samples) {
			hi = len(res.Samples)
		}
		if err := rc.SendFrame(res.Samples[lo:hi]); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if partitioned {
		<-partitionHealed
	}
	if err := rc.End(); err != nil {
		t.Logf("End: %v (dirty end is acceptable; ledger must still balance)", err)
	}
	stats := rc.Stats()
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	stats = rc.Stats()

	if dropsDone < dropsWanted {
		t.Fatalf("only %d forced disconnects landed, want %d", dropsDone, dropsWanted)
	}
	if stats.Reconnects < int64(dropsWanted) {
		t.Fatalf("client reconnected %d times, want >= %d", stats.Reconnects, dropsWanted)
	}

	streams := waitStreamsDone(t, ts.URL, 1)
	if len(streams) != 1 {
		t.Fatalf("got %d streams, want 1: reconnects must stitch into one stream", len(streams))
	}
	st := streams[0]

	// The resilience claim, exactly: delivered + accounted gaps =
	// transmitted. Nothing silently lost, nothing double-counted.
	transmitted := int64(stats.SentSamples + stats.DroppedSamples)
	accounted := st.Wire.Samples + st.GapSamples
	if accounted != transmitted {
		t.Errorf("delivered %d + gaps %d = %d, want exactly %d transmitted (%+v)",
			st.Wire.Samples, st.GapSamples, accounted, transmitted, st.Gaps)
	}
	if int64(st.Reconnects) != stats.Reconnects {
		t.Errorf("hub saw %d reconnects, client made %d", st.Reconnects, stats.Reconnects)
	}

	// Every offline detection of the trace's actual traffic (802.11b) is
	// delivered or attributable: matched by family and absolute
	// position, or overlapping an accounted gap, or cut by an epoch
	// boundary (a reconnect splits the session even when it loses
	// nothing). Cross-family verdicts (the phase detector sometimes
	// reads a WiFi burst as Bluetooth) are detector-state-sensitive and
	// not part of the delivery claim.
	const matchTol = 4096
	const cutMargin = 65536
	var dets struct {
		Detections []history.DetectionRecord `json:"detections"`
	}
	getJSON(t, fmt.Sprintf("%s/api/detections?stream=%d", ts.URL, st.ID), &dets)
	matched, checked := 0, 0
	for _, want := range ref.Detections {
		if want.Family.FamilyName() != "802.11b" {
			continue
		}
		checked++
		refStart := int64(want.Span.Start)
		refEnd := int64(want.Span.End)
		ok := false
		for _, got := range dets.Detections {
			if got.Family == want.Family.FamilyName() &&
				got.AbsStart >= refStart-matchTol && got.AbsStart <= refStart+matchTol {
				ok = true
				break
			}
		}
		if ok {
			matched++
			continue
		}
		excused := false
		for _, g := range st.Gaps {
			if refEnd >= g.AtSample-cutMargin && refStart <= g.AtSample+g.Samples+cutMargin {
				excused = true
				break
			}
		}
		for _, ep := range st.Epochs {
			if ep.StartOffset > 0 &&
				refEnd >= ep.StartOffset-cutMargin && refStart <= ep.StartOffset+cutMargin {
				excused = true
				break
			}
		}
		if !excused {
			t.Errorf("detection %s@%d lost outside any accounted gap or epoch cut (gaps %+v, epochs %+v)",
				want.Family.FamilyName(), refStart, st.Gaps, st.Epochs)
		}
	}
	if matched == 0 || checked == 0 {
		t.Errorf("no offline detection survived the chaos run at all (%d checked)", checked)
	}
	t.Logf("soak: %d/%d 802.11b detections matched, %d reconnects, %d gap samples over %d transmitted, %d heartbeats",
		matched, checked, st.Reconnects, st.GapSamples, transmitted, stats.HeartbeatsSent)

	// With the stream over, liveness must have recovered.
	if code := httpStatus(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz after soak = %d, want 200", code)
	}
}

// TestRetryComposedWithChaos runs signal-path fault injection
// (faults.Retry over a transient-error injector) and network-path chaos
// (proxy resets + reconnecting client) at the same time: the two
// resilience layers must compose without masking each other.
func TestRetryComposedWithChaos(t *testing.T) {
	res := testTrace(t)
	reg := metrics.NewRegistry()
	_, ln, ts := newTestDaemon(t, res.Clock, reg, Options{
		Faults:  "transient=0.02,seed=7",
		Retries: 4,
	})

	proxy := chaos.New(ln.Addr().String(), chaos.Config{
		Latency: 100 * time.Microsecond,
		Seed:    11,
	})
	addr, err := proxy.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	rc := wire.NewReconnectClient(addr, wire.StreamMeta{
		StreamID: 13, Rate: res.Clock.Rate,
	}, wire.ReconnectConfig{
		DialTimeout:  time.Second,
		WriteTimeout: 300 * time.Millisecond,
		MinBackoff:   2 * time.Millisecond,
		MaxBackoff:   20 * time.Millisecond,
		FrameSamples: 1024,
		Seed:         3,
		Metrics:      reg,
	})

	const frameSamples = 1024
	nFrames := (len(res.Samples) + frameSamples - 1) / frameSamples
	drops := 0
	nextDrop := nFrames / 3
	for i := 0; i < nFrames; i++ {
		time.Sleep(150 * time.Microsecond) // keep the proxy on a live link
		if drops < 2 && i >= nextDrop {
			if proxy.DropActive() > 0 {
				drops++
				nextDrop = i + nFrames/3
			}
		}
		lo := i * frameSamples
		hi := lo + frameSamples
		if hi > len(res.Samples) {
			hi = len(res.Samples)
		}
		if err := rc.SendFrame(res.Samples[lo:hi]); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	_ = rc.End()
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	stats := rc.Stats()
	if drops < 2 || stats.Reconnects < 2 {
		t.Fatalf("drops=%d reconnects=%d, want >= 2 each", drops, stats.Reconnects)
	}

	streams := waitStreamsDone(t, ts.URL, 1)
	st := streams[0]
	transmitted := int64(stats.SentSamples + stats.DroppedSamples)
	if st.Wire.Samples+st.GapSamples != transmitted {
		t.Errorf("delivered %d + gaps %d != transmitted %d",
			st.Wire.Samples, st.GapSamples, transmitted)
	}
	if st.Detections == 0 {
		t.Error("no detections under composed faults")
	}

	var snap metrics.Snapshot
	getJSON(t, ts.URL+"/api/metricz?format=json", &snap)
	if snap.Counters["faults/injected/transient_errors"] == 0 {
		t.Error("no transient errors injected; spec not applied")
	}
	if snap.Counters["faults/recovered"] == 0 {
		t.Error("faults/recovered is zero: Retry never recovered a transient")
	}
	if snap.Counters["faults/exhausted"] != 0 {
		t.Errorf("faults/exhausted = %d, want 0 (retries must absorb transients)",
			snap.Counters["faults/exhausted"])
	}
	if snap.Counters["wire/reconnects"] < 2 {
		t.Errorf("metricz wire/reconnects = %d, want >= 2", snap.Counters["wire/reconnects"])
	}
}
