package core

import (
	"rfdump/internal/dsp"
	"rfdump/internal/flowgraph"
	"rfdump/internal/iq"
	"rfdump/internal/phy/wifi"
	"rfdump/internal/protocols"
)

// SampleAccessor gives detectors that analyze the signal (phase,
// frequency) bounded access to the sample stream. "After the detection
// stage, the stream of signal is only accessed as needed" (Section 2.2) —
// the accessor is how that selective access is expressed. It is an alias
// of the registry-facing interface so out-of-tree protocol modules can
// implement detectors and analyzers against the same accessor.
type SampleAccessor = protocols.SampleSource

// WiFiPhaseConfig tunes the DBPSK detector.
type WiFiPhaseConfig struct {
	// WindowSamples is the analysis window (defaults to one chunk).
	WindowSamples int
	// Threshold is the minimum normalized signature correlation for a
	// window to count as Barker/DBPSK.
	Threshold float64
	// MinRunWindows is how many consecutive matching windows make a
	// detection (1 keeps even lone PLCP headers).
	MinRunWindows int
}

func (c WiFiPhaseConfig) withDefaults() WiFiPhaseConfig {
	if c.WindowSamples <= 0 {
		c.WindowSamples = iq.ChunkSamples
	}
	if c.Threshold == 0 {
		c.Threshold = 0.68
	}
	if c.MinRunWindows <= 0 {
		c.MinRunWindows = 1
	}
	return c
}

// WiFiPhase is the 802.11b phase detector of Section 4.5: it correlates
// the first derivative of phase against the precomputed sequence of phase
// changes that Barker chipping produces across the 8 samples of each
// 1 us symbol (the "somewhat inelegant solution" forced by the 8 MHz
// capture of a 22 MHz signal — which we model identically).
//
// It scans each peak window by window, so a high-rate packet matches only
// during its DBPSK PLCP preamble+header while a 1 Mbps packet matches
// throughout — exactly the selectivity Table 4 measures.
type WiFiPhase struct {
	cfg WiFiPhaseConfig
	src SampleAccessor

	// sig[m] is +1 when the Barker template keeps sign from sample m to
	// m+1 and -1 when it flips; boundary positions are skipped.
	sig [wifi.SymbolSPS - 1]float64
}

// NewWiFiPhase returns the detector reading samples through src.
func NewWiFiPhase(src SampleAccessor, cfg WiFiPhaseConfig) *WiFiPhase {
	cfg = cfg.withDefaults()
	w := &WiFiPhase{cfg: cfg, src: src}
	sig := wifi.PhaseSignature()
	for m := range w.sig {
		if sig[m] == 0 {
			w.sig[m] = 1
		} else {
			w.sig[m] = -1
		}
	}
	return w
}

// Name implements flowgraph.Block.
func (w *WiFiPhase) Name() string { return "802.11-phase" }

// Process implements flowgraph.Block.
func (w *WiFiPhase) Process(item flowgraph.Item, emit func(flowgraph.Item)) error {
	meta := item.(*ChunkMeta)
	for _, pk := range meta.Completed {
		w.analyzePeak(pk, emit)
	}
	return nil
}

// windowScore computes the best Barker-signature correlation over the 8
// possible symbol alignments for one window of samples. Score 1.0 means
// every phase transition matches the chip pattern exactly.
//
// Signature entries in {0, pi} make each alignment's correlation a
// signed average of cos(Δφ) over its transitions, and alignment a gives
// transition i the sign sig[(i+a)%8] — which depends on i only through
// its residue r = i%8. So one pass sums the cosines into eight residue
// bins, and each alignment is an 8-term dot product over the bins:
// the same sum regrouped, with no transcendental call per sample
// (cos(Δφ) = re/|z| of the conjugate product, dsp.CosPhaseStep).
func (w *WiFiPhase) windowScore(samples iq.Samples) float64 {
	const sps = wifi.SymbolSPS
	if len(samples) < 2*sps {
		return 0
	}
	n := len(samples) - 1 // transitions
	var bins [sps]float64
	i := 0
	for ; i+sps <= n; i += sps {
		s := samples[i : i+sps+1]
		for r := range bins {
			bins[r] += dsp.CosPhaseStep(s[r], s[r+1])
		}
	}
	for r := 0; i+r < n; r++ {
		bins[r] += dsp.CosPhaseStep(samples[i+r], samples[i+r+1])
	}

	best := 0.0
	for a := 0; a < sps; a++ {
		var acc float64
		for r, c := range bins {
			if m := (r + a) % sps; m != sps-1 { // inter-symbol boundary: data-dependent
				acc += w.sig[m] * c
			}
		}
		// The skipped residue holds n/sps transitions, one more when it
		// falls in the partial last symbol.
		skipped := n / sps
		if (2*sps-1-a)%sps < n%sps {
			skipped++
		}
		if s := acc / float64(n-skipped); s > best {
			best = s
		}
	}
	return best
}

func (w *WiFiPhase) analyzePeak(pk Peak, emit func(flowgraph.Item)) {
	win := iq.Tick(w.cfg.WindowSamples)
	runStart := iq.Tick(-1)
	runWindows := 0
	runScore := 0.0

	flush := func(end iq.Tick) {
		if runStart >= 0 && runWindows >= w.cfg.MinRunWindows {
			conf := runScore / float64(runWindows)
			if conf > 1 {
				conf = 1
			}
			emit(Detection{
				Family:     protocols.WiFi80211b1M,
				Span:       iq.Interval{Start: runStart, End: end},
				Detector:   "802.11-dbpsk",
				Confidence: conf,
				Channel:    -1,
			})
		}
		runStart = -1
		runWindows = 0
		runScore = 0
	}

	for t := pk.Span.Start; t < pk.Span.End; t += win {
		end := t + win
		if end > pk.Span.End {
			end = pk.Span.End
		}
		samples := w.src.Slice(iq.Interval{Start: t, End: end})
		score := w.windowScore(samples)
		if score >= w.cfg.Threshold {
			if runStart < 0 {
				runStart = t
			}
			runWindows++
			runScore += score
		} else {
			flush(t)
		}
	}
	flush(pk.Span.End)
}

// Flush implements flowgraph.Block.
func (w *WiFiPhase) Flush(func(flowgraph.Item)) error { return nil }
