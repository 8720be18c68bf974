package core

import (
	"math"
	"os"
	"strconv"
	"testing"
	"time"

	"rfdump/internal/dsp"
	"rfdump/internal/flowgraph"
	"rfdump/internal/iq"
	"rfdump/internal/phy"
	"rfdump/internal/phy/bluetooth"
	"rfdump/internal/phy/microwave"
	"rfdump/internal/phy/wifi"
	"rfdump/internal/protocols"
)

// The phase detectors' transcendental-free kernels must be drop-in
// equivalents of the direct formulas they replaced: the 802.11 residue-bin
// correlator against an atan2 + cos + one-pass-per-alignment scorer, and
// the Bluetooth probe's table-anchored discriminator and unit-phasor
// circular mean against math.Atan2 + cos/sin. Each run draws a fresh seed
// (logged; replay with CORE_PROP_SEED=<n>), like the dsp property suite.

func corePropSeed(t *testing.T) uint64 {
	if s := os.Getenv("CORE_PROP_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CORE_PROP_SEED %q: %v", s, err)
		}
		t.Logf("property seed %d (pinned by CORE_PROP_SEED)", v)
		return v
	}
	v := uint64(time.Now().UnixNano())
	t.Logf("property seed %d (replay with CORE_PROP_SEED=%d)", v, v)
	return v
}

// referenceWindowScore is the direct 802.11 signature correlator: the
// phase derivative through math.Atan2, math.Cos per transition, then one
// pass per symbol alignment.
func referenceWindowScore(sig [wifi.SymbolSPS - 1]float64, samples iq.Samples) float64 {
	if len(samples) < 2*wifi.SymbolSPS {
		return 0
	}
	d := dsp.PhaseDiff(samples, nil)
	c := make([]float64, len(d))
	for i, v := range d {
		c[i] = math.Cos(v)
	}
	best := 0.0
	for a := 0; a < wifi.SymbolSPS; a++ {
		var acc float64
		var n int
		for i := range c {
			m := (i + a) % wifi.SymbolSPS
			if m == wifi.SymbolSPS-1 {
				continue
			}
			acc += sig[m] * c[i]
			n++
		}
		if n > 0 {
			if s := acc / float64(n); s > best {
				best = s
			}
		}
	}
	return best
}

// dsssStream is one 802.11b burst at a random CFO and carrier phase,
// padded with noise on both sides.
func dsssStream(t *testing.T, rng *dsp.Rand, rate protocols.ID, payload int, snrDB float64, pad int) (iq.Samples, iq.Interval) {
	t.Helper()
	mod, err := wifi.NewModulator(rate)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, payload)
	rng.Bytes(body)
	burst, err := mod.Modulate(wifi.BuildDataFrame(wifi.Broadcast, wifi.Addr{1}, wifi.Addr{2}, 0, body))
	if err != nil {
		t.Fatal(err)
	}
	ch := phy.Channel{SNRdB: snrDB, CFOHz: 10_000 * (rng.Float64() - 0.5), PhaseRad: 2 * math.Pi * rng.Float64()}
	ch.Apply(burst, 1, phy.SampleRate)
	stream := make(iq.Samples, pad+len(burst.Samples)+pad)
	span := iq.Interval{Start: iq.Tick(pad), End: iq.Tick(pad + len(burst.Samples))}
	stream.Add(span.Start, burst.Samples)
	dsp.AWGN(rng, stream, 1)
	return stream, span
}

// TestPropWiFiPhaseScoreMatchesReference sweeps SNR, DSSS rate and window
// length (the 200-sample default, the 17-sample minimum past the length
// guard, and lengths ending mid-symbol) over windows that start inside
// the burst, straddle its edges or hold only noise.
func TestPropWiFiPhaseScoreMatchesReference(t *testing.T) {
	rng := dsp.NewRand(corePropSeed(t))
	cfg := WiFiPhaseConfig{}.withDefaults()
	const windowsPerLen = 30
	var windows, matched int
	worst := 0.0
	for burst := 0; burst < 3; burst++ { // three bursts per (SNR, rate), each from the run's seed
		for _, snr := range []float64{0, 3, 6, 10, 20, 30} {
			for _, rate := range []protocols.ID{protocols.WiFi80211b1M, protocols.WiFi80211b11M} {
				stream, span := dsssStream(t, rng, rate, 20+rng.Intn(100), snr, 300)
				det := NewWiFiPhase(&memAccessor{s: stream}, cfg)
				for _, n := range []int{17, 63, 150, 199, 200} {
					for k := 0; k < windowsPerLen; k++ {
						// Two thirds of the windows start inside the burst.
						lo := int(span.Start) + rng.Intn(int(span.Len())-n)
						if k%3 == 0 {
							lo = rng.Intn(len(stream) - n)
						}
						w := stream[lo : lo+n]
						got, want := det.windowScore(w), referenceWindowScore(det.sig, w)
						if e := math.Abs(got - want); e > worst {
							worst = e
						}
						if math.Abs(got-want) > 1e-12 {
							t.Fatalf("%v snr=%v len=%d at %d: score %v, reference %v", rate, snr, n, lo, got, want)
						}
						if (got >= cfg.Threshold) != (want >= cfg.Threshold) {
							t.Fatalf("%v snr=%v len=%d at %d: score %v and reference %v straddle threshold %v",
								rate, snr, n, lo, got, want, cfg.Threshold)
						}
						windows++
						if want >= cfg.Threshold {
							matched++
						}
					}
				}
			}
		}
	}
	t.Logf("%d windows, %d at or above threshold, worst |Δscore| %.3g", windows, matched, worst)
	if matched == 0 || matched == windows {
		t.Fatalf("sweep never crossed the threshold (%d of %d matched): the comparison is vacuous", matched, windows)
	}
}

// referenceBTDetection is the Bluetooth probe on the direct formulas:
// math.Atan2 phase differences and a cos/sin circular mean.
func referenceBTDetection(b *BTPhase, pk Peak, noiseFloor float64) []Detection {
	if pk.Span.Len() > b.maxSpan {
		return nil
	}
	probe := pk.Span
	if probe.Len() > iq.Tick(b.cfg.ProbeSamples) {
		probe.End = probe.Start + iq.Tick(b.cfg.ProbeSamples)
	}
	samples := b.src.Slice(probe)
	if len(samples) < 3 {
		return nil
	}
	d := dsp.PhaseDiff(samples, nil)
	smooth := dsp.MeanAbs(dsp.SecondDiff(d, nil))
	if smooth > b.cfg.MaxSecondDeriv {
		return nil
	}
	snr := samples.MeanPower() / noiseFloor
	noiseVar := 0.0
	if snr > 1 {
		noiseVar = 1 / snr
	}
	if dsp.Variance(d)-noiseVar < b.cfg.MinExcessVariance {
		return nil
	}
	offsetHz := dsp.CircularMean(d) * float64(iq.DefaultSampleRate) / (2 * math.Pi)
	channel := int(math.Round(offsetHz/float64(protocols.BTChannelWidthHz) + (float64(b.cfg.Channels)-1)/2))
	if channel < 0 || channel >= b.cfg.Channels {
		return nil
	}
	return []Detection{{Family: protocols.Bluetooth, Span: pk.Span, Channel: channel,
		Confidence: math.Max(0.1, 1-smooth/b.cfg.MaxSecondDeriv)}}
}

// TestPropBTPhaseMatchesReference runs the detector and the reference over
// random GFSK packets (every channel), DSSS bursts and microwave carrier
// bursts, probing peaks at random offsets and lengths, and requires the
// same accept/reject decision and the same channel every time.
func TestPropBTPhaseMatchesReference(t *testing.T) {
	rng := dsp.NewRand(corePropSeed(t))
	snrs := []float64{0, 3, 6, 10, 20, 30}
	types := []bluetooth.PacketType{bluetooth.TypeDH1, bluetooth.TypeDH3, bluetooth.TypeDH5}
	oven := microwave.DefaultOven(testClock)

	var streams []iq.Samples
	var spans []iq.Interval
	for i := 0; i < 24; i++ {
		snr := snrs[rng.Intn(len(snrs))]
		switch i % 3 {
		case 0: // GFSK
			channel, typ := rng.Intn(8), types[rng.Intn(len(types))]
			payload := make([]byte, 1+rng.Intn(typ.MaxPayload()))
			rng.Bytes(payload)
			burst := bluetooth.NewModulator().ModulatePacket(
				bluetooth.Device{LAP: 0x9E8B33, UAP: 0x47},
				bluetooth.Header{LTAddr: 1, Type: typ},
				payload, uint32(rng.Intn(1<<20)), (float64(channel)-3.5)*1e6, channel)
			phy.Channel{SNRdB: snr, CFOHz: 20_000 * (rng.Float64() - 0.5)}.Apply(burst, 1, phy.SampleRate)
			stream := make(iq.Samples, 500+len(burst.Samples)+500)
			stream.Add(500, burst.Samples)
			dsp.AWGN(rng, stream, 1)
			streams = append(streams, stream)
			spans = append(spans, iq.Interval{Start: 500, End: iq.Tick(500 + len(burst.Samples))})
		case 1: // DSSS
			stream, span := dsssStream(t, rng, protocols.WiFi80211b1M, 20+rng.Intn(100), snr, 500)
			streams = append(streams, stream)
			spans = append(spans, span)
		case 2: // unmodulated-ish carrier
			burst := oven.Burst(rng)
			phy.Channel{SNRdB: snr}.Apply(burst, 1, phy.SampleRate)
			burst.Samples = burst.Samples[:20_000]
			stream := make(iq.Samples, 500+len(burst.Samples)+500)
			stream.Add(500, burst.Samples)
			dsp.AWGN(rng, stream, 1)
			streams = append(streams, stream)
			spans = append(spans, iq.Interval{Start: 500, End: iq.Tick(500 + len(burst.Samples))})
		}
	}

	var probes, accepted int
	for i, stream := range streams {
		det := NewBTPhase(&memAccessor{s: stream}, testClock, BTPhaseConfig{})
		for k := 0; k < 20; k++ {
			pk := Peak{Span: spans[i]}
			if k > 0 { // random sub-peaks, some starting in the noise
				pk.Span.Start += iq.Tick(rng.Intn(int(spans[i].Len())/2)) - 300
				pk.Span.End = pk.Span.Start + iq.Tick(3+rng.Intn(int(spans[i].Len())))
			}
			noiseFloor := 0.5 + rng.Float64()
			var got []Detection
			det.analyzePeakNF(pk, noiseFloor, func(it flowgraph.Item) { got = append(got, it.(Detection)) })
			want := referenceBTDetection(det, pk, noiseFloor)
			if len(got) != len(want) {
				t.Fatalf("stream %d peak %v: detector %v, reference %v", i, pk.Span, got, want)
			}
			probes++
			if len(want) == 0 {
				continue
			}
			accepted++
			if got[0].Channel != want[0].Channel {
				t.Fatalf("stream %d peak %v: channel %d, reference %d", i, pk.Span, got[0].Channel, want[0].Channel)
			}
			if e := math.Abs(got[0].Confidence - want[0].Confidence); e > 1e-9 {
				t.Fatalf("stream %d peak %v: confidence %v, reference %v", i, pk.Span, got[0].Confidence, want[0].Confidence)
			}
		}
	}
	t.Logf("%d probes, %d accepted", probes, accepted)
	if accepted == 0 || accepted == probes {
		t.Fatalf("every probe decided the same way (%d of %d accepted): the comparison is vacuous", accepted, probes)
	}
}
