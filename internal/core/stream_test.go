package core

import (
	"io"
	"testing"

	"rfdump/internal/iq"
	"rfdump/internal/protocols"
)

// sliceReader implements BlockReader over a slice.
type sliceReader struct {
	s   iq.Samples
	pos int
}

func (r *sliceReader) ReadBlock(dst iq.Samples) (int, error) {
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

func TestRunStreamMatchesRun(t *testing.T) {
	stream := burstStream(200_000, 20, 51,
		iq.Interval{Start: 20_000, End: 60_000},
		iq.Interval{Start: 60_080, End: 62_500},
		iq.Interval{Start: 100_000, End: 140_000},
		iq.Interval{Start: 140_080, End: 142_500},
	)
	batch := NewPipeline(testClock, TimingOnly())
	resBatch, err := batch.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	live := NewPipeline(testClock, TimingOnly())
	resLive, err := live.RunStream(&sliceReader{s: stream}, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resLive.Detections) != len(resBatch.Detections) {
		t.Fatalf("live %d detections, batch %d", len(resLive.Detections), len(resBatch.Detections))
	}
	for i := range resLive.Detections {
		if resLive.Detections[i].Span != resBatch.Detections[i].Span {
			t.Errorf("detection %d span: %v vs %v", i,
				resLive.Detections[i].Span, resBatch.Detections[i].Span)
		}
	}
	if resLive.StreamLen != iq.Tick(len(stream)) {
		t.Errorf("stream len %d", resLive.StreamLen)
	}
}

func TestRunStreamBoundedMemoryPhaseDetection(t *testing.T) {
	// Phase detectors probe samples through the sliding window; with a
	// window larger than a burst, live detection still works.
	stream, span := wifiBurstStream(t, protocols.WiFi80211b1M, 200, 20, 2000)
	p := NewPipeline(testClock, Detect(WiFiPhaseSpec(WiFiPhaseConfig{})))
	res, err := p.RunStream(&sliceReader{s: stream}, StreamConfig{WindowSamples: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range res.Detections {
		if d.Span.Overlaps(span) {
			found = true
		}
	}
	if !found {
		t.Error("live phase detection missed the burst")
	}
}

func TestRunStreamCallbacks(t *testing.T) {
	stream := burstStream(100_000, 20, 52,
		iq.Interval{Start: 10_000, End: 40_000},
		iq.Interval{Start: 40_080, End: 42_000},
	)
	p := NewPipeline(testClock, TimingOnly())
	var dets int
	_, err := p.RunStream(&sliceReader{s: stream}, StreamConfig{
		OnDetection: func(Detection) { dets++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if dets == 0 {
		t.Error("no detection callbacks")
	}
}
