package core

import (
	"math"

	"rfdump/internal/dsp"
	"rfdump/internal/flowgraph"
	"rfdump/internal/iq"
	"rfdump/internal/protocols"
)

// BTPhaseConfig tunes the GFSK detector.
type BTPhaseConfig struct {
	// ProbeSamples bounds how much of each peak the detector reads
	// (GFSK-ness is apparent in the first few hundred samples; reading
	// the whole DH5 would waste the cost advantage).
	ProbeSamples int
	// MaxSecondDeriv is the mean |second derivative of phase| bound for
	// a continuous-phase (GFSK) classification, in radians.
	MaxSecondDeriv float64
	// MinExcessVariance rejects unmodulated carriers (microwave ovens):
	// the first-derivative variance must exceed the noise-predicted
	// level (1/SNR per sample pair) by at least this much — frequency
	// modulation by data is what provides the excess.
	MinExcessVariance float64
	// Channels is the number of Bluetooth channels the monitored band
	// holds (8 for the 8 MHz capture).
	Channels int
}

func (c BTPhaseConfig) withDefaults() BTPhaseConfig {
	if c.ProbeSamples <= 0 {
		c.ProbeSamples = 3 * iq.ChunkSamples
	}
	if c.MaxSecondDeriv == 0 {
		c.MaxSecondDeriv = 0.85
	}
	if c.MinExcessVariance == 0 {
		c.MinExcessVariance = 2e-3
	}
	if c.Channels <= 0 {
		c.Channels = 8
	}
	return c
}

// BTPhase is the Bluetooth phase detector of Section 4.5: "Bluetooth uses
// a continuous-phase modulation technique called GMSK. Thus, if the second
// derivative of the phase is equal to zero, the packet is classified as
// Bluetooth. The first derivative identifies the channel." The detection
// cost is one complex conjugate multiply plus one table-anchored arctan
// (dsp.FastPhaseDiff) per probed sample, plus subtractions; a probe that
// passes the smoothness test pays one more pass for the drift, whose
// circular mean comes from the unit conjugate products rather than a
// cos and sin per difference.
type BTPhase struct {
	cfg BTPhaseConfig
	src SampleAccessor

	maxSpan iq.Tick

	diffs  []float64
	diffs2 []float64
}

// NewBTPhase returns the detector.
func NewBTPhase(src SampleAccessor, clock iq.Clock, cfg BTPhaseConfig) *BTPhase {
	cfg = cfg.withDefaults()
	return &BTPhase{
		cfg:     cfg,
		src:     src,
		maxSpan: clock.Ticks(protocols.BTSlot) * 5,
		diffs:   make([]float64, cfg.ProbeSamples),
		diffs2:  make([]float64, cfg.ProbeSamples),
	}
}

// Name implements flowgraph.Block.
func (b *BTPhase) Name() string { return "bt-phase" }

// Process implements flowgraph.Block.
func (b *BTPhase) Process(item flowgraph.Item, emit func(flowgraph.Item)) error {
	meta := item.(*ChunkMeta)
	for _, pk := range meta.Completed {
		b.analyzePeakNF(pk, meta.NoiseFloor, emit)
	}
	return nil
}

func (b *BTPhase) analyzePeak(pk Peak, emit func(flowgraph.Item)) {
	b.analyzePeakNF(pk, 1.0, emit)
}

func (b *BTPhase) analyzePeakNF(pk Peak, noiseFloor float64, emit func(flowgraph.Item)) {
	if pk.Span.Len() > b.maxSpan {
		return // longer than any Bluetooth packet
	}
	probe := pk.Span
	if probe.Len() > iq.Tick(b.cfg.ProbeSamples) {
		probe.End = probe.Start + iq.Tick(b.cfg.ProbeSamples)
	}
	samples := b.src.Slice(probe)
	if len(samples) < 3 {
		return
	}
	d := dsp.FastPhaseDiff(samples, b.diffs[:0])
	dd := dsp.SecondDiff(d, b.diffs2[:0])

	smooth := dsp.MeanAbs(dd)
	if smooth > b.cfg.MaxSecondDeriv {
		return // phase jumps: PSK/DSSS or noise, not GFSK
	}
	drift := dsp.CircularMeanPhaseDiff(samples)
	variance := dsp.Variance(d)
	// Frequency modulation must contribute variance beyond what receiver
	// noise alone predicts (var ≈ 1/SNR per adjacent-sample pair);
	// otherwise this is an unmodulated carrier (microwave magnetron).
	if noiseFloor <= 0 {
		noiseFloor = 1
	}
	snr := samples.MeanPower() / noiseFloor
	noiseVar := 0.0
	if snr > 1 {
		noiseVar = 1 / snr
	}
	if variance-noiseVar < b.cfg.MinExcessVariance {
		return
	}

	// The first derivative identifies the channel: mean drift maps to a
	// frequency offset within the band.
	offsetHz := drift * float64(iq.DefaultSampleRate) / (2 * math.Pi)
	channel := int(math.Round(offsetHz/float64(protocols.BTChannelWidthHz) + (float64(b.cfg.Channels)-1)/2))
	if channel < 0 || channel >= b.cfg.Channels {
		return // outside the monitored band: not one of our channels
	}

	conf := 1 - smooth/b.cfg.MaxSecondDeriv
	if conf < 0.1 {
		conf = 0.1
	}
	emit(Detection{
		Family:     protocols.Bluetooth,
		Span:       pk.Span,
		Detector:   "bt-gfsk",
		Confidence: conf,
		Channel:    channel,
	})
}

// Flush implements flowgraph.Block.
func (b *BTPhase) Flush(func(flowgraph.Item)) error { return nil }
