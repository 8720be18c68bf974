package core

import (
	"testing"

	"rfdump/internal/flowgraph"
	"rfdump/internal/iq"
	"rfdump/internal/protocols"
)

// Micro-benchmarks for the hot inner loops of the detection stage —
// useful when tuning the per-sample budget that keeps the architecture
// real-time (the whole premise of Table 1).

func BenchmarkPeakDetectorPerChunk(b *testing.B) {
	stream := burstStreamB(200_000, 20, 1)
	pd := NewPeakDetector(PeakConfig{NoiseFloor: 1})
	drain := func(flowgraph.Item) {}
	chunks := make([]Chunk, 0, len(stream)/iq.ChunkSamples)
	for s := 0; s+iq.ChunkSamples <= len(stream); s += iq.ChunkSamples {
		chunks = append(chunks, Chunk{
			Seq:     s / iq.ChunkSamples,
			Span:    iq.Interval{Start: iq.Tick(s), End: iq.Tick(s + iq.ChunkSamples)},
			Samples: stream[s : s+iq.ChunkSamples],
		})
	}
	b.SetBytes(int64(len(stream) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range chunks {
			_ = pd.Process(c, drain)
		}
	}
}

// BenchmarkWiFiPhaseWindow scores one default-size window inside a
// 1 Mbps DSSS burst: the matched path every window of an 802.11b peak
// takes.
func BenchmarkWiFiPhaseWindow(b *testing.B) {
	stream, span := wifiBurstStream(b, protocols.WiFi80211b1M, 200, 20, 400)
	det := NewWiFiPhase(&memAccessorB{s: stream}, WiFiPhaseConfig{})
	w := stream[span.Start+1000 : span.Start+1000+iq.ChunkSamples]
	if s := det.windowScore(w); s < det.cfg.Threshold {
		b.Fatalf("window scores %.3f, below threshold %.2f: not the matched path", s, det.cfg.Threshold)
	}
	b.SetBytes(int64(len(w) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.windowScore(w)
	}
}

// BenchmarkBTPhaseProbe classifies one GFSK packet: the accepted path,
// which reads the whole probe, its derivatives and the channel drift.
func BenchmarkBTPhaseProbe(b *testing.B) {
	stream, span := btBurstStream(b, 3, 20)
	det := NewBTPhase(&memAccessorB{s: stream}, iq.NewClock(0), BTPhaseConfig{})
	pk := Peak{Span: span, MeanPower: 100}
	hits := 0
	count := func(flowgraph.Item) { hits++ }
	det.analyzePeak(pk, count)
	if hits != 1 {
		b.Fatalf("probe emitted %d detections, want 1: not the accepted path", hits)
	}
	b.SetBytes(int64(det.cfg.ProbeSamples * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.analyzePeak(pk, count)
	}
}

func BenchmarkOFDMScore(b *testing.B) {
	stream := burstStreamB(4000, 20, 4)
	det := NewOFDMDetector(&memAccessorB{s: stream}, OFDMConfig{})
	b.SetBytes(int64(1600 * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.score(stream[500:2100])
	}
}

// test-local helpers (separate names to avoid colliding with _test.go
// helpers in other files).
func burstStreamB(n int, snrDB float64, seed uint64) iq.Samples {
	return burstStream(n, snrDB, seed, iq.Interval{Start: 0, End: iq.Tick(n)})
}

type memAccessorB struct{ s iq.Samples }

func (m *memAccessorB) Slice(iv iq.Interval) iq.Samples {
	lo, hi := int(iv.Start), int(iv.End)
	if lo < 0 {
		lo = 0
	}
	if hi > len(m.s) {
		hi = len(m.s)
	}
	if hi <= lo {
		return nil
	}
	return m.s[lo:hi]
}
