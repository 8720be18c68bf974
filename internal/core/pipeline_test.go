package core

import (
	"math"
	"math/cmplx"
	"testing"

	"rfdump/internal/dsp"
	"rfdump/internal/flowgraph"
	"rfdump/internal/iq"
	"rfdump/internal/protocols"
)

func det(fam protocols.ID, start, end iq.Tick, name string, ch int) Detection {
	return Detection{Family: fam, Span: iq.Interval{Start: start, End: end},
		Detector: name, Confidence: 0.8, Channel: ch}
}

func runDispatcher(t *testing.T, cfg DispatcherConfig, dets ...Detection) (*Dispatcher, []AnalysisRequest) {
	t.Helper()
	d := NewDispatcher(cfg)
	var reqs []AnalysisRequest
	emit := func(it flowgraph.Item) { reqs = append(reqs, it.(AnalysisRequest)) }
	for _, dt := range dets {
		if err := d.Process(dt, emit); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(emit); err != nil {
		t.Fatal(err)
	}
	return d, reqs
}

func TestDispatcherMergesOverlapping(t *testing.T) {
	_, reqs := runDispatcher(t, DispatcherConfig{},
		det(protocols.WiFi80211b1M, 1000, 2000, "802.11-sifs", -1),
		det(protocols.WiFi80211b1M, 1500, 2500, "802.11-dbpsk", -1),
	)
	if len(reqs) != 1 {
		t.Fatalf("requests = %v", reqs)
	}
	r := reqs[0]
	// Merged span (padded by slack/2).
	if r.Span.Start > 1000 || r.Span.End < 2500 {
		t.Errorf("merged span %v", r.Span)
	}
	if len(r.Detectors) != 2 {
		t.Errorf("detectors %v", r.Detectors)
	}
}

func TestDispatcherSeparatesDistant(t *testing.T) {
	_, reqs := runDispatcher(t, DispatcherConfig{},
		det(protocols.WiFi80211b1M, 0, 1000, "a", -1),
		det(protocols.WiFi80211b1M, 50_000, 51_000, "a", -1),
	)
	if len(reqs) != 2 {
		t.Fatalf("requests = %v", reqs)
	}
}

func TestDispatcherKeepsFamiliesApart(t *testing.T) {
	_, reqs := runDispatcher(t, DispatcherConfig{},
		det(protocols.WiFi80211b1M, 0, 1000, "a", -1),
		det(protocols.Bluetooth, 500, 1500, "b", 3),
	)
	if len(reqs) != 2 {
		t.Fatalf("requests = %v", reqs)
	}
	fams := map[protocols.ID]bool{}
	for _, r := range reqs {
		fams[r.Family] = true
	}
	if !fams[protocols.WiFi80211b1M] || !fams[protocols.Bluetooth] {
		t.Error("families merged")
	}
}

func TestDispatcherChannelAgreement(t *testing.T) {
	// Agreeing channels survive; disagreeing collapse to -1.
	_, reqs := runDispatcher(t, DispatcherConfig{},
		det(protocols.Bluetooth, 0, 1000, "bt-gfsk", 5),
		det(protocols.Bluetooth, 100, 900, "bt-freq", 5),
	)
	if len(reqs) != 1 || reqs[0].Channel != 5 {
		t.Errorf("agreeing channels: %v", reqs)
	}
	_, reqs = runDispatcher(t, DispatcherConfig{},
		det(protocols.Bluetooth, 0, 1000, "bt-gfsk", 5),
		det(protocols.Bluetooth, 100, 900, "bt-freq", 2),
	)
	if len(reqs) != 1 || reqs[0].Channel != -1 {
		t.Errorf("disagreeing channels: %v", reqs)
	}
	// Timing (-1) plus a channel detector keeps the channel.
	_, reqs = runDispatcher(t, DispatcherConfig{},
		det(protocols.Bluetooth, 0, 1000, "bt-timing", -1),
		det(protocols.Bluetooth, 100, 900, "bt-gfsk", 6),
	)
	if len(reqs) != 1 || reqs[0].Channel != 6 {
		t.Errorf("mixed -1/channel: %v", reqs)
	}
}

func TestDispatcherRecordsEverything(t *testing.T) {
	d, reqs := runDispatcher(t, DispatcherConfig{},
		det(protocols.WiFi80211b1M, 0, 1000, "a", -1),
		det(protocols.WiFi80211b1M, 100, 500, "b", -1),
	)
	if len(d.All) != 2 {
		t.Error("detections lost")
	}
	if len(d.Requests) != len(reqs) {
		t.Error("requests not recorded")
	}
	spans := (&Result{Requests: d.Requests}).ForwardedSpans(protocols.WiFi80211b1M)
	if len(spans) != 1 {
		t.Errorf("forwarded %v", spans)
	}
}

// toneChunks makes ChunkMeta items with a tone in the given BT channel.
func toneChunks(t *testing.T, channel int, nchunks int, power float64) []*ChunkMeta {
	t.Helper()
	freq := (float64(channel) - 3.5) * 1e6
	r := dsp.NewRand(9)
	var metas []*ChunkMeta
	phase := 0.0
	for c := 0; c < nchunks; c++ {
		samples := make(iq.Samples, iq.ChunkSamples)
		for i := range samples {
			phase += 2 * math.Pi * freq / 8e6
			v := cmplx.Rect(math.Sqrt(power), phase)
			samples[i] = complex64(v)
		}
		dsp.AWGN(r, samples, 1)
		metas = append(metas, &ChunkMeta{
			Chunk: Chunk{
				Seq:     c,
				Span:    iq.Interval{Start: iq.Tick(c * iq.ChunkSamples), End: iq.Tick((c + 1) * iq.ChunkSamples)},
				Samples: samples,
			},
			Busy:       power > 0,
			NoiseFloor: 1,
		})
	}
	return metas
}

func TestBTFreqDetectsChannel(t *testing.T) {
	det := NewBTFreq(BTFreqConfig{})
	var dets []Detection
	emit := func(it flowgraph.Item) { dets = append(dets, it.(Detection)) }
	metas := toneChunks(t, 2, 10, 100)
	// And idle chunks to close the run.
	metas = append(metas, &ChunkMeta{Chunk: Chunk{Seq: 10,
		Span: iq.Interval{Start: 2000, End: 2200}}, Busy: false, NoiseFloor: 1})
	for _, m := range metas {
		if err := det.Process(m, emit); err != nil {
			t.Fatal(err)
		}
	}
	if err := det.Flush(emit); err != nil {
		t.Fatal(err)
	}
	if len(dets) != 1 {
		t.Fatalf("detections = %v", dets)
	}
	if dets[0].Channel != 2 || dets[0].Family != protocols.Bluetooth {
		t.Errorf("detection %v", dets[0])
	}
	if dets[0].Span.Len() < 9*iq.ChunkSamples {
		t.Errorf("run span %v", dets[0].Span)
	}
}

func TestBTFreqIgnoresWideband(t *testing.T) {
	// White noise spreads across all bins: no detection.
	det := NewBTFreq(BTFreqConfig{})
	var dets []Detection
	emit := func(it flowgraph.Item) { dets = append(dets, it.(Detection)) }
	r := dsp.NewRand(10)
	for c := 0; c < 10; c++ {
		samples := dsp.NoiseBlock(r, iq.ChunkSamples, 100)
		m := &ChunkMeta{Chunk: Chunk{Seq: c,
			Span:    iq.Interval{Start: iq.Tick(c * iq.ChunkSamples), End: iq.Tick((c + 1) * iq.ChunkSamples)},
			Samples: samples}, Busy: true, NoiseFloor: 1}
		if err := det.Process(m, emit); err != nil {
			t.Fatal(err)
		}
	}
	det.Flush(emit)
	if len(dets) != 0 {
		t.Errorf("wideband classified: %v", dets)
	}
}

func TestBTFreqFlushClosesRun(t *testing.T) {
	det := NewBTFreq(BTFreqConfig{})
	var dets []Detection
	emit := func(it flowgraph.Item) { dets = append(dets, it.(Detection)) }
	for _, m := range toneChunks(t, 6, 8, 100) {
		det.Process(m, emit)
	}
	det.Flush(emit)
	if len(dets) != 1 || dets[0].Channel != 6 {
		t.Errorf("flush detections = %v", dets)
	}
}

func TestEstimateConstellationBPSK(t *testing.T) {
	// Differential BPSK at 8 sps with a small carrier offset.
	r := dsp.NewRand(11)
	const sps = 8
	samples := make(iq.Samples, 0, 8000)
	phase := 0.0
	for k := 0; k < 1000; k++ {
		if r.Bool() {
			phase += math.Pi
		}
		for i := 0; i < sps; i++ {
			phase += 0.01 // carrier drift
			samples = append(samples, complex64(cmplx.Rect(1, phase)))
		}
	}
	dsp.AWGN(r, samples, 0.01)
	est := EstimateConstellation(samples, sps, 16)
	if est.Points != 2 {
		t.Errorf("BPSK estimated as %d-ary (occupancy %.2f)", est.Points, est.Occupancy)
	}
	if math.Abs(est.DriftRadPerSym-0.08) > 0.03 {
		t.Errorf("drift %v, want ~0.08", est.DriftRadPerSym)
	}
}

func TestEstimateConstellationQPSK(t *testing.T) {
	r := dsp.NewRand(12)
	const sps = 8
	samples := make(iq.Samples, 0, 8000)
	phase := 0.0
	for k := 0; k < 1000; k++ {
		phase += float64(r.Intn(4)) * math.Pi / 2
		for i := 0; i < sps; i++ {
			samples = append(samples, complex64(cmplx.Rect(1, phase)))
		}
	}
	dsp.AWGN(r, samples, 0.01)
	est := EstimateConstellation(samples, sps, 16)
	if est.Points != 4 {
		t.Errorf("QPSK estimated as %d-ary (occupancy %.2f)", est.Points, est.Occupancy)
	}
}

func TestEstimateConstellationNoise(t *testing.T) {
	samples := dsp.NoiseBlock(dsp.NewRand(13), 4000, 1)
	est := EstimateConstellation(samples, 8, 16)
	if est.Points != 0 {
		t.Errorf("noise estimated as %d-PSK", est.Points)
	}
	if e := EstimateConstellation(samples[:10], 8, 16); e.Points != 0 {
		t.Error("short input")
	}
}

func TestIsGFSK(t *testing.T) {
	// Smooth FM: yes. Noise: no.
	smooth := make(iq.Samples, 1000)
	ph := 0.0
	for i := range smooth {
		ph += 0.1 * math.Sin(float64(i)/50)
		smooth[i] = complex64(cmplx.Rect(1, ph))
	}
	if !IsGFSK(smooth, 0.3) {
		t.Error("smooth FM rejected")
	}
	if IsGFSK(dsp.NoiseBlock(dsp.NewRand(14), 1000, 1), 0.3) {
		t.Error("noise accepted")
	}
	if IsGFSK(smooth[:2], 0.3) {
		t.Error("too-short accepted")
	}
}

func TestPipelineRequiresDetectors(t *testing.T) {
	p := NewPipeline(testClock, Config{})
	if _, err := p.Run(make(iq.Samples, 1000)); err == nil {
		t.Error("empty pipeline accepted")
	}
}

func TestPipelineEmptyStream(t *testing.T) {
	p := NewPipeline(testClock, TimingOnly())
	res, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Detections) != 0 || res.StreamLen != 0 {
		t.Error("empty stream produced detections")
	}
}

func TestPipelineNoiseStream(t *testing.T) {
	p := NewPipeline(testClock, TimingAndPhase())
	res, err := p.Run(dsp.NoiseBlock(dsp.NewRand(15), 200_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Requests) > 2 {
		t.Errorf("noise produced %d analysis requests", len(res.Requests))
	}
	if res.Busy <= 0 {
		t.Error("no CPU accounted")
	}
	if res.CPUPerRealTime() <= 0 {
		t.Error("CPU/RT")
	}
}

func TestPipelineParallelMatchesSequential(t *testing.T) {
	stream := burstStream(100_000, 20, 16,
		iq.Interval{Start: 10_000, End: 20_000}, iq.Interval{Start: 20_080, End: 22_000})
	seq := NewPipeline(testClock, TimingOnly())
	resSeq, err := seq.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	parCfg := TimingOnly()
	parCfg.Parallel = true
	par := NewPipeline(testClock, parCfg)
	resPar, err := par.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(resSeq.Detections) != len(resPar.Detections) {
		t.Errorf("parallel detections %d != sequential %d",
			len(resPar.Detections), len(resSeq.Detections))
	}
}

func TestStreamAccessorClipping(t *testing.T) {
	acc := &StreamAccessor{Stream: make(iq.Samples, 100)}
	if got := acc.Slice(iq.Interval{Start: -10, End: 50}); len(got) != 50 {
		t.Errorf("negative clip: %d", len(got))
	}
	if got := acc.Slice(iq.Interval{Start: 90, End: 200}); len(got) != 10 {
		t.Errorf("end clip: %d", len(got))
	}
	if got := acc.Slice(iq.Interval{Start: 200, End: 300}); got != nil {
		t.Error("out of range should be nil")
	}
}
