package cluster

import (
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rfdump/internal/core"
	"rfdump/internal/demod"
	"rfdump/internal/ether"
	"rfdump/internal/iq"
	"rfdump/internal/mac"
	"rfdump/internal/metrics"
	"rfdump/internal/protocols"
	_ "rfdump/internal/protocols/builtin"
	"rfdump/internal/server"
	"rfdump/internal/wire"
)

func e2eAddr(b byte) (a [6]byte) {
	for i := range a {
		a[i] = b
	}
	return
}

// clusterDaemon spins an in-process rfdumpd: engine with the standard
// timing+phase detectors and the WiFi analyzer, ingest listener, API
// server.
func clusterDaemon(t *testing.T, clock iq.Clock) (net.Listener, *httptest.Server) {
	t.Helper()
	cfg, err := core.ParseDetectors("timing,phase")
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(clock, cfg, func() core.Analyzer { return demod.NewWiFiDemod() })
	d, err := server.NewDaemon(server.Options{Engine: eng, Registry: metrics.NewRegistry()})
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
	return ln, ts
}

// TestClusterEndToEnd is the acceptance path for the aggregation tier:
// one over-the-air reality rendered at two sensor positions with
// overlapping coverage (the far sensor hears everything 3 dB weaker,
// on a clock 24 ticks askew), streamed into two real rfdumpd daemons,
// fused by one aggregator — and the fused ledger verified against the
// master ground truth: every visible packet reported exactly once,
// with cross-sensor evidence.
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon e2e in -short")
	}
	multi, err := ether.RunSensors(ether.Config{
		SNRdB: 20,
		Seed:  3,
		Sources: []mac.Source{&mac.WiFiUnicast{
			Rate: protocols.WiFi80211b1M, Pings: 4, PayloadBytes: 200,
			InterPing: 8000, Requester: e2eAddr(0x11), Responder: e2eAddr(0x22),
			BSSID: e2eAddr(0x33), CFOHz: 2500,
		}},
	}, []ether.Sensor{
		{Name: "near"},
		{Name: "far", PathLossdB: 3, ClockSkew: 24},
	})
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	agg, err := NewAggregator(AggregatorConfig{
		SSEQueue: 256, EvictAfter: -1,
		MinBackoff: time.Millisecond,
		MaxBackoff: 20 * time.Millisecond,
		Seed:       1,
		Registry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	// Two daemons, one per sensor; subscribe before streaming so the
	// live path (not history replay) carries the detections.
	var wg sync.WaitGroup
	for i, sen := range multi.Sensors {
		ln, ts := clusterDaemon(t, multi.Clock)
		agg.Add(sen.Sensor.Name, strings.TrimPrefix(ts.URL, "http://"))
		wg.Add(1)
		go func(id uint32, samples iq.Samples, addr string) {
			defer wg.Done()
			client, err := wire.Dial(addr, wire.StreamMeta{
				StreamID: id, Rate: multi.Clock.Rate, CenterHz: 2_437_000_000,
			})
			if err != nil {
				t.Error(err)
				return
			}
			if err := client.SendSamples(samples); err != nil {
				t.Error(err)
				return
			}
			if err := client.Close(); err != nil {
				t.Error(err)
			}
		}(uint32(i+1), sen.Samples, ln.Addr().String())
	}
	wg.Wait()

	// Both single-sensor analyses are done once the daemons drain;
	// fusion is done when the ledger stops moving.
	waitFor(t, "fused ledger to settle", func() bool {
		n := agg.Fuser().Len()
		if n == 0 {
			return false
		}
		time.Sleep(150 * time.Millisecond)
		return agg.Fuser().Len() == n
	})

	fused := agg.Fuser().Recent(0)
	family := protocols.WiFi80211b1M.FamilyName()

	// Exactly-once: each visible master-truth packet is covered by
	// exactly one fused detection. Truth spans are in the reference
	// clock; sensor skew (24 ticks) is far below packet scale, so plain
	// overlap attribution is unambiguous.
	twoSensor := 0
	for _, rec := range multi.Truth.Records {
		if !rec.Visible {
			continue
		}
		matches := 0
		for _, fd := range fused {
			if fd.Family != family {
				continue
			}
			if fd.AbsStart < int64(rec.Span.End) && int64(rec.Span.Start) < fd.AbsEnd {
				matches++
				if fd.Sensors == 2 {
					twoSensor++
				}
			}
		}
		if matches != 1 {
			t.Errorf("truth packet %v reported %d times, want exactly 1", rec.Span, matches)
		}
	}
	if t.Failed() {
		t.Fatalf("fused ledger: %d detections for %d truth packets",
			len(fused), multi.Truth.VisibleCount(protocols.WiFi80211b1M))
	}

	// Overlapping coverage must show: the packets both radios heard
	// carry evidence from both (the far sensor at 17 dB still detects).
	if twoSensor == 0 {
		t.Fatalf("no fused detection carries two-sensor evidence: %+v", fused)
	}

	// No phantom detections: every fused record maps back onto some
	// truth packet.
	for _, fd := range fused {
		onAir := false
		for _, rec := range multi.Truth.Records {
			if rec.Visible && fd.AbsStart < int64(rec.Span.End) && int64(rec.Span.Start) < fd.AbsEnd {
				onAir = true
				break
			}
		}
		if !onAir {
			t.Errorf("fused detection %+v matches no truth packet", fd)
		}
	}

	// The cross-sensor dedup actually happened — the fuser merged
	// evidence rather than double-reporting.
	if reg.Counter("cluster/evidence_merged").Load() == 0 {
		t.Fatal("no cross-sensor merges recorded")
	}
	if got := int(reg.Counter("cluster/detections_fused").Load()); got != len(fused) {
		t.Fatalf("fused counter %d != ledger %d", got, len(fused))
	}
}

// TestTwoStreamsOneNodeFuseExactlyOnce holds exactly-once fusion for a
// node with more than one ingest stream: two goroutines write
// detections through one hub concurrently, a real Manager consumes the
// node's feed, and the fused ledger must match a naive oracle — plain
// overlap clustering over everything that was written, blind to
// arrival order — with no event discarded by the manager's seq guard.
func TestTwoStreamsOneNodeFuseExactlyOnce(t *testing.T) {
	const bursts = 1000
	clock := iq.Clock{Rate: 20_000_000}
	cfg, err := core.ParseDetectors("timing")
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(clock, cfg, func() core.Analyzer { return demod.NewWiFiDemod() })
	// The manager's subscription must never be why an event is missing.
	d, err := server.NewDaemon(server.Options{Engine: eng, SubscriberQueue: 4 * bursts, EvictAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.APIHandler())
	defer func() {
		ts.Close()
		d.Close()
	}()

	reg := metrics.NewRegistry()
	agg, err := NewAggregator(AggregatorConfig{
		// Match across the whole run, however far one stream runs ahead
		// of the other: the oracle knows no reorder horizon.
		Match:      MatchConfig{Lookback: 4 * bursts},
		MinBackoff: time.Millisecond,
		MaxBackoff: 20 * time.Millisecond,
		Seed:       1,
		Registry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	agg.Add("n1", strings.TrimPrefix(ts.URL, "http://"))
	waitFor(t, "subscription", func() bool { return agg.Manager().Connected() == 1 })

	// Stream 1 hears every burst on its timing detector; stream 2 hears
	// two in three of them, 24 ticks askew, on phase.
	type span struct{ start, end int64 }
	var (
		written []span
		wmu     sync.Mutex
		wg      sync.WaitGroup
	)
	hub := d.Hub()
	feed := func(id uint32, detector string, skew int64, hears func(int) bool) {
		defer wg.Done()
		st, _ := hub.Attach(server.AttachSpec{Remote: detector, Meta: wire.StreamMeta{StreamID: id, Rate: clock.Rate}})
		for k := 0; k < bursts; k++ {
			if !hears(k) {
				continue
			}
			start := int64(k)*100_000 + skew
			hub.Detection(st, core.Detection{
				Family: protocols.WiFi80211b1M, Detector: detector, Confidence: 0.9, Channel: 6,
				Span: iq.Interval{Start: iq.Tick(start), End: iq.Tick(start + 20_000)},
			})
			wmu.Lock()
			written = append(written, span{start, start + 20_000})
			wmu.Unlock()
		}
	}
	wg.Add(2)
	go feed(1, "timing", 0, func(int) bool { return true })
	go feed(2, "phase", 24, func(k int) bool { return k%3 != 0 })
	wg.Wait()

	// The manager advances LastSeq before the ledger ingests the event,
	// so wait on the sightings the fused records carry, which is what
	// the oracle check reads.
	evidence := func() int {
		n := 0
		for _, fd := range agg.Fuser().Recent(0) {
			n += len(fd.Evidence)
		}
		return n
	}
	waitFor(t, "the node's feed fused", func() bool { return evidence() >= len(written) })

	// The oracle: sightings belong together when their spans overlap by
	// half the shorter one; count the clusters.
	cluster := make([]int, len(written))
	for i := range cluster {
		cluster[i] = i
	}
	find := func(i int) int {
		for cluster[i] != i {
			i = cluster[i]
		}
		return i
	}
	for i, a := range written {
		for j, b := range written[:i] {
			ov := min(a.end, b.end) - max(a.start, b.start)
			if 2*ov >= min(a.end-a.start, b.end-b.start) {
				cluster[find(i)] = find(j)
			}
		}
	}
	want := 0
	for i := range cluster {
		if find(i) == i {
			want++
		}
	}

	if dup := reg.Counter("cluster/events_duplicate").Load(); dup != 0 {
		t.Errorf("manager discarded %d events as seq duplicates", dup)
	}
	fused := agg.Fuser().Recent(0)
	if got := evidence(); len(fused) != want || got != len(written) {
		t.Fatalf("fused %d detections carrying %d sightings, oracle says %d carrying %d",
			len(fused), got, want, len(written))
	}
}
