package core

import (
	"rfdump/internal/dsp"
	"rfdump/internal/flowgraph"
	"rfdump/internal/iq"
)

// Peak detector defaults (paper Section 4.3).
const (
	// DefaultAvgWindow is the energy averaging window: 2.5 us = 20
	// samples, chosen well below the smallest timing of interest
	// (802.11 SIFS = 80 samples).
	DefaultAvgWindow = 20
	// DefaultThresholdDB is how far above the noise floor the windowed
	// average must rise to open a peak (4 dB per the paper).
	DefaultThresholdDB = 4.0
	// DefaultHistory is the shared peak-history capacity. It must span a
	// Bluetooth search horizon of several slots plus 802.11 bursts; 256
	// recent peaks is ample.
	DefaultHistory = 256
)

// PeakConfig tunes the detector; zero values take the defaults above.
type PeakConfig struct {
	// AvgWindow is the averaging window in samples.
	AvgWindow int
	// ThresholdDB above the noise floor opens/closes peaks.
	ThresholdDB float64
	// NoiseFloor fixes the noise floor power estimate; when 0 the
	// detector calibrates from the quietest chunk averages seen so far.
	NoiseFloor float64
	// HistoryCap sizes the shared peak history ring.
	HistoryCap int
	// SampleStride, when > 1, makes the in-peak scan look at every n-th
	// sample — the optional sampling optimization of Section 3.1 ("when
	// analyzing a burst of samples with consistent signal strength, it
	// may be sufficient ... to only look at a subset of the samples").
	SampleStride int
}

func (c PeakConfig) withDefaults() PeakConfig {
	if c.AvgWindow <= 0 {
		c.AvgWindow = DefaultAvgWindow
	}
	if c.ThresholdDB == 0 {
		c.ThresholdDB = DefaultThresholdDB
	}
	if c.HistoryCap <= 0 {
		c.HistoryCap = DefaultHistory
	}
	if c.SampleStride <= 0 {
		c.SampleStride = 1
	}
	return c
}

// PeakDetector is the protocol-agnostic detection stage with the energy
// filter integrated (Section 4.2: integrating filtering into the peak
// detector keeps timestamps attached to the metadata). It consumes Chunk
// items and emits *ChunkMeta.
type PeakDetector struct {
	cfg     PeakConfig
	history *PeakHistory
	metas   metaPool

	avg        *dsp.MovingAverage
	inPeak     bool
	cur        Peak
	curEnergy  float64
	curCount   int
	lastStrong iq.Tick // last sample with instantaneous power above threshold

	// Noise floor calibration state (when cfg.NoiseFloor == 0).
	noise       float64
	noiseInit   bool
	lastAvg     float64
	totalChunks int
}

// NewPeakDetector returns the detector.
func NewPeakDetector(cfg PeakConfig) *PeakDetector {
	cfg = cfg.withDefaults()
	return &PeakDetector{
		cfg:     cfg,
		history: NewPeakHistory(cfg.HistoryCap),
		avg:     dsp.NewMovingAverage(cfg.AvgWindow),
		noise:   cfg.NoiseFloor,
	}
}

// Name implements flowgraph.Block.
func (p *PeakDetector) Name() string { return "peak-detector" }

// History exposes the shared peak history ring.
func (p *PeakDetector) History() *PeakHistory { return p.history }

// NoiseFloor returns the current noise floor estimate.
func (p *PeakDetector) NoiseFloor() float64 {
	if p.noise > 0 {
		return p.noise
	}
	return 1.0
}

func (p *PeakDetector) threshold() float64 {
	return p.NoiseFloor() * iq.FromDB(p.cfg.ThresholdDB)
}

// calibrate updates the noise floor estimate from an idle-looking chunk
// average. The estimate tracks the minimum chunk average with a slow
// upward drift so a burst at trace start cannot poison it forever.
func (p *PeakDetector) calibrate(chunkAvg float64) {
	if p.cfg.NoiseFloor > 0 {
		return
	}
	if !p.noiseInit || chunkAvg < p.noise {
		p.noise = chunkAvg
		p.noiseInit = true
		return
	}
	// Slow exponential drift toward observations, bounded at 2x current.
	target := chunkAvg
	if target > 2*p.noise {
		target = 2 * p.noise
	}
	p.noise += (target - p.noise) / 1024
}

// Process implements flowgraph.Block. Each input must be a Chunk (the
// batch path) or a pooled *chunkItem (the streaming path); the output is
// one pooled *ChunkMeta per chunk.
func (p *PeakDetector) Process(item flowgraph.Item, emit func(flowgraph.Item)) error {
	var chunk Chunk
	switch v := item.(type) {
	case *chunkItem:
		chunk = v.Chunk
	default:
		chunk = item.(Chunk)
	}
	meta := p.metas.get()
	meta.Chunk = chunk
	meta.History = p.history
	if chunk.Block != nil {
		// The meta outlives the chunk item (detectors read the samples
		// downstream, and under the parallel scheduler the producer may
		// already be filling the next block): it holds its own reference,
		// released by the meta's last Dispose.
		chunk.Block.Retain()
	}

	// First pass: the cheap energy filter. "The energy-based filter first
	// computes the average energy of the last window of samples within
	// the chunk to see if there is a chance of having signal information
	// in the chunk" (Section 4.3).
	chunkAvg := chunk.Samples.MeanPower()
	meta.AvgPower = chunkAvg
	p.calibrate(chunkAvg)
	meta.NoiseFloor = p.NoiseFloor()
	thr := p.threshold()

	tail := chunk.Samples
	if w := p.cfg.AvgWindow; len(tail) > w {
		tail = tail[len(tail)-w:]
	}
	tailAvg := tail.MeanPower()
	meta.Busy = chunkAvg > thr || tailAvg > thr || p.inPeak

	meta.Settled = chunk.Span.End
	if !meta.Busy {
		p.lastAvg = chunkAvg
		p.totalChunks++
		emit(meta)
		return nil
	}

	// Second pass, only for interesting chunks: sample-by-sample scan
	// with the moving average to refine peak boundaries. The
	// instantaneous magnitude threshold sharpens the start edge
	// (Section 4.3).
	stride := p.cfg.SampleStride
	instThr := thr // instantaneous power threshold for edge refinement
	for i := 0; i < len(chunk.Samples); i += stride {
		s := chunk.Samples[i]
		pw := iq.Power(s)
		avg := p.avg.Push(pw)
		t := chunk.Span.Start + iq.Tick(i)
		if !p.inPeak {
			if avg > thr {
				// Open a peak; refine the start by walking backwards
				// through the contiguous run of strong instantaneous
				// samples (the average crosses the threshold up to one
				// averaging window after the true start).
				start := t
				back := i - 2*p.cfg.AvgWindow*stride
				if back < 0 {
					back = 0
				}
				for j := i - stride; j >= back; j -= stride {
					if iq.Power(chunk.Samples[j]) <= instThr {
						break
					}
					start = chunk.Span.Start + iq.Tick(j)
				}
				p.inPeak = true
				p.cur = Peak{
					Span: iq.Interval{Start: start, End: t + 1},
				}
				p.curEnergy = 0
				p.curCount = 0
				p.lastStrong = t
			}
		} else {
			// Track the windowed min/max only once the averaging window
			// lies fully inside the peak, so edge warm-up (which still
			// contains pre-peak noise) cannot fake a huge dynamic range.
			// Requiring a strong current sample excludes the decay tail,
			// where the window straddles the transmission's end.
			if p.curCount >= 2*p.cfg.AvgWindow && pw > instThr {
				if p.cur.MaxPower == 0 || avg > p.cur.MaxPower {
					p.cur.MaxPower = avg
				}
				if p.cur.MinPower == 0 || avg < p.cur.MinPower {
					p.cur.MinPower = avg
				}
			}
			if avg < thr {
				// Close the peak. The moving average crosses below the
				// threshold an averaging-window after the transmission
				// ends; the last strong instantaneous sample marks the
				// true end edge (Section 4.3's precision refinement).
				p.closePeak(p.lastStrong+1, meta)
			}
		}
		if p.inPeak {
			if pw > instThr {
				p.lastStrong = t
			}
			p.curEnergy += pw
			p.curCount++
		}
	}
	if p.inPeak {
		// Peak continues into the next chunk.
		p.cur.Span.End = chunk.Span.End
		meta.Settled = p.cur.Span.Start
	}
	p.lastAvg = chunkAvg
	p.totalChunks++
	emit(meta)
	return nil
}

func (p *PeakDetector) closePeak(end iq.Tick, meta *ChunkMeta) {
	p.cur.Span.End = end
	if p.curCount > 0 {
		p.cur.MeanPower = p.curEnergy / float64(p.curCount)
	}
	if p.cur.MaxPower == 0 {
		// Peak shorter than the averaging window: no interior windows.
		p.cur.MaxPower = p.cur.MeanPower
		p.cur.MinPower = p.cur.MeanPower
	}
	p.inPeak = false
	// Discard degenerate blips shorter than the averaging window: noise
	// spikes, not transmissions.
	if p.cur.Span.Len() < iq.Tick(p.cfg.AvgWindow) {
		return
	}
	p.history.Append(p.cur)
	if meta != nil {
		meta.Completed = append(meta.Completed, p.cur)
	}
}

// Flush implements flowgraph.Block: a peak still open at end of stream is
// closed and reported in a final empty ChunkMeta.
func (p *PeakDetector) Flush(emit func(flowgraph.Item)) error {
	if !p.inPeak {
		return nil
	}
	meta := p.metas.get()
	meta.History = p.history
	meta.NoiseFloor = p.NoiseFloor()
	meta.Busy = true
	meta.Chunk.Span = iq.Interval{Start: p.cur.Span.End, End: p.cur.Span.End}
	meta.Settled = p.cur.Span.End
	p.closePeak(p.cur.Span.End, meta)
	emit(meta)
	return nil
}
