package core

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rfdump/internal/iq"
	"rfdump/internal/metrics"
)

// sessionStream is the reference burst pattern (WiFi-shaped data+ACK
// timing) every session in the multi-session tests monitors.
func sessionStream() iq.Samples {
	return burstStream(200_000, 20, 51,
		iq.Interval{Start: 20_000, End: 60_000},
		iq.Interval{Start: 60_080, End: 62_500},
		iq.Interval{Start: 100_000, End: 140_000},
		iq.Interval{Start: 140_080, End: 142_500},
	)
}

// TestEngineMultiSession drives several concurrent sessions through one
// Engine (run under -race in CI). Each session must produce exactly the
// single-session result: sessions share the block pool and configuration
// but nothing per-run.
func TestEngineMultiSession(t *testing.T) {
	stream := sessionStream()
	ref, err := NewPipeline(testClock, TimingOnly()).
		RunStream(&sliceReader{s: stream}, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Detections) == 0 {
		t.Fatal("reference run found nothing; test stream is broken")
	}

	e := NewEngine(testClock, TimingOnly())
	const sessions = 6
	results := make([]*Result, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		s, err := e.NewSession(StreamConfig{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			results[i], errs[i] = s.Run(&sliceReader{s: stream})
		}(i, s)
	}
	wg.Wait()

	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		res := results[i]
		if !reflect.DeepEqual(res.Detections, ref.Detections) {
			t.Errorf("session %d: %d detections, want %d (or spans differ)",
				i, len(res.Detections), len(ref.Detections))
		}
		if len(res.Requests) != len(ref.Requests) {
			t.Errorf("session %d: %d requests, want %d", i, len(res.Requests), len(ref.Requests))
		}
		if res.StreamLen != iq.Tick(len(stream)) {
			t.Errorf("session %d: stream len %d", i, res.StreamLen)
		}
	}
	// Every block reference must have been returned: window eviction,
	// chunk disposal and meta disposal all balance out.
	if live := e.Pool().Stats().Live; live != 0 {
		t.Errorf("%d blocks still live after all sessions finished", live)
	}
}

// TestEngineMultiSessionDistinctStreams: concurrent sessions over
// different streams stay independent — each reports its own stream's
// detections, not a neighbor's.
func TestEngineMultiSessionDistinctStreams(t *testing.T) {
	busy := sessionStream()
	quiet := burstStream(200_000, 20, 99) // noise only
	e := NewEngine(testClock, TimingOnly())

	type out struct {
		res *Result
		err error
	}
	run := func(s iq.Samples) out {
		sess, err := e.NewSession(StreamConfig{})
		if err != nil {
			return out{nil, err}
		}
		res, err := sess.Run(&sliceReader{s: s})
		return out{res, err}
	}
	var busyOut, quietOut out
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); busyOut = run(busy) }()
	go func() { defer wg.Done(); quietOut = run(quiet) }()
	wg.Wait()

	if busyOut.err != nil || quietOut.err != nil {
		t.Fatalf("errors: %v / %v", busyOut.err, quietOut.err)
	}
	if len(busyOut.res.Detections) == 0 {
		t.Error("busy session found nothing")
	}
	if len(quietOut.res.Detections) != 0 {
		t.Errorf("quiet session found %d detections from its neighbor?", len(quietOut.res.Detections))
	}
}

func TestSessionSingleUse(t *testing.T) {
	e := NewEngine(testClock, TimingOnly())
	s, err := e.NewSession(StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(&sliceReader{s: make(iq.Samples, 4*iq.ChunkSamples)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(&sliceReader{s: make(iq.Samples, 4*iq.ChunkSamples)}); err == nil {
		t.Fatal("second Run on one session should fail")
	}
}

// TestStreamSteadyStateAllocs is the acceptance gate for the zero-copy
// refactor: steady-state block processing must not allocate per chunk.
// A first session warms the pools; a second session over the same engine
// is then measured with the runtime's allocation counter. The budget of
// 0.1 allocations per chunk tolerates one-off growth (deque, scratch,
// sink buffers) and sync.Pool slack while failing loudly if anything on
// the per-chunk path boxes, copies or appends per chunk (which costs
// >= 1 alloc/chunk).
func TestStreamSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; alloc gate runs in the non-race job")
	}
	const n = 4000 * iq.ChunkSamples // 4000 chunks
	stream := burstStream(n, 20, 7)  // noise: the steady, quiet ether
	cfg := TimingOnly()
	cfg.Peak.NoiseFloor = 1
	e := NewEngine(testClock, cfg)

	allocs := steadyStateAllocs(t, e, stream)
	perChunk := allocs / float64(n/iq.ChunkSamples)
	t.Logf("%.0f allocations over %d chunks = %.4f allocs/chunk", allocs, n/iq.ChunkSamples, perChunk)
	if perChunk > 0.1 {
		t.Errorf("steady-state streaming allocates %.3f objects per chunk, want ~0 (<= 0.1)", perChunk)
	}
	if live := e.Pool().Stats().Live; live != 0 {
		t.Errorf("%d blocks still live after runs", live)
	}
}

// steadyStateAllocs runs one session over the stream to warm the pools
// and grow scratch to steady state, then returns the runtime's
// allocation count for a second one.
func steadyStateAllocs(t *testing.T, e *Engine, stream iq.Samples) float64 {
	t.Helper()
	runOnce := func() {
		s, err := e.NewSession(StreamConfig{NoRetain: true, OnDetection: func(Detection) {}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(&sliceReader{s: stream}); err != nil {
			t.Fatal(err)
		}
	}
	runOnce()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	runOnce()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// TestStreamSteadyStateAllocsBursty is the gate the noise run cannot be:
// on pure noise the dispatcher never holds a span. Here 200 data/ACK
// exchanges cross detectors and dispatcher (no analyzers), and what the
// run allocates beyond the same length of noise is budgeted per item:
// one box per detection (the detectors' emit) and two per forwarded
// request (its box and its Detectors slice) — nothing per chunk while a
// span is pending, per merge, or per watermark.
func TestStreamSteadyStateAllocsBursty(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; alloc gate runs in the non-race job")
	}
	const nchunks, period = 4000, 20
	var spans []iq.Interval
	for k := iq.Tick(0); k < nchunks/period; k++ {
		at := k*period*chunk + 300
		spans = append(spans, iq.Interval{Start: at, End: at + 1500}, iq.Interval{Start: at + 1580, End: at + 2100})
	}
	cfg := TimingOnly()
	cfg.Peak.NoiseFloor = 1
	cfg.Metrics = metrics.NewRegistry()
	e := NewEngine(testClock, cfg)

	quiet := steadyStateAllocs(t, e, burstStream(nchunks*iq.ChunkSamples, 20, 7))
	cfg.Metrics.Reset()
	busy := steadyStateAllocs(t, e, burstStream(nchunks*iq.ChunkSamples, 20, 7, spans...))
	var dets, reqs int64
	for name, v := range cfg.Metrics.Snapshot().Counters {
		switch {
		case !strings.HasPrefix(name, "dispatch/"):
		case strings.HasSuffix(name, "/detections"):
			dets += v / 2 // two runs
		case strings.HasSuffix(name, "/forwarded_spans"):
			reqs += v / 2
		}
	}
	t.Logf("%.0f allocations with %d detections and %d requests, %.0f over noise alone", busy, dets, reqs, quiet)
	if reqs < nchunks/period {
		t.Fatalf("%d requests from %d exchanges", reqs, nchunks/period)
	}
	// 0.01 per chunk is sync.Pool slack between two otherwise equal runs.
	if budget := float64(dets+2*reqs) + 0.01*nchunks; busy-quiet > budget {
		t.Errorf("%.0f allocations beyond the quiet run, budget %.0f (1 per detection, 2 per request)", busy-quiet, budget)
	}
}

// BenchmarkStreamPerChunk measures the full streaming path per chunk;
// run with -benchmem to see the allocs/op acceptance number (expected 0
// in steady state; rfbench -json records it in the v2 schema).
func BenchmarkStreamPerChunk(b *testing.B) {
	const n = 1000 * iq.ChunkSamples
	stream := burstStream(n, 20, 7)
	cfg := TimingOnly()
	cfg.Peak.NoiseFloor = 1
	e := NewEngine(testClock, cfg)
	// Warm-up session.
	if s, err := e.NewSession(StreamConfig{}); err != nil {
		b.Fatal(err)
	} else if _, err := s.Run(&sliceReader{s: stream}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(iq.ChunkSamples * 8))
	b.ResetTimer()
	chunks := 0
	for chunks < b.N {
		b.StopTimer()
		s, err := e.NewSession(StreamConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := s.Run(&sliceReader{s: stream}); err != nil {
			b.Fatal(err)
		}
		chunks += n / iq.ChunkSamples
	}
}
