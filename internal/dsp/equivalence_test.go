package dsp

import (
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"
)

// The property suite proves the FFT kernels are drop-in equivalents of
// the direct per-sample kernels the demodulators originally ran on:
// same lengths, same edge behavior, agreement within float32 tolerance.
// Each run draws a fresh seed (logged, so a failing draw is replayable
// with DSP_PROP_SEED=<n>) and sweeps randomized tap sets, block sizes
// and input lengths — including the awkward ones: empty, single-sample,
// non-power-of-two, and short-tail lengths that end mid-hop.

// propSeed returns this run's randomization seed.
func propSeed(t *testing.T) int64 {
	if s := os.Getenv("DSP_PROP_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad DSP_PROP_SEED %q: %v", s, err)
		}
		t.Logf("property seed %d (pinned by DSP_PROP_SEED)", v)
		return v
	}
	v := time.Now().UnixNano()
	t.Logf("property seed %d (replay with DSP_PROP_SEED=%d)", v, v)
	return v
}

func randSamples(rng *rand.Rand, n int) []complex64 {
	out := make([]complex64, n)
	for i := range out {
		out[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	return out
}

func randTaps(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()*2 - 1
	}
	return out
}

// propLengths mixes the structurally interesting lengths for a convolver
// hopping by step with random fillers: hop-boundary straddles, a bare
// single sample, empty input, and non-power-of-two tails.
func propLengths(rng *rand.Rand, step int) []int {
	ls := []int{0, 1, 2, 3, step - 1, step, step + 1, 2*step + 3}
	for i := 0; i < 4; i++ {
		ls = append(ls, 1+rng.Intn(4096))
	}
	out := ls[:0]
	for _, n := range ls {
		if n >= 0 {
			out = append(out, n)
		}
	}
	return out
}

func cdiff(a, b complex64) float64 {
	return math.Hypot(float64(real(a)-real(b)), float64(imag(a)-imag(b)))
}

// tapsTol returns the comparison tolerance for a tap set: float32 FFT
// round-trip error scales with the filter's L1 norm times the signal
// amplitude (unit-variance noise here).
func tapsTol(taps []float64) float64 {
	l1 := 0.0
	for _, v := range taps {
		l1 += math.Abs(v)
	}
	return 1e-4 * (1 + l1)
}

// TestPropFFTConvolverMatchesFIR: overlap-save convolution with real
// taps must match the direct FIR (zero state, truncated to the input
// length) for every tap count, block length and input length.
func TestPropFFTConvolverMatchesFIR(t *testing.T) {
	rng := rand.New(rand.NewSource(propSeed(t)))
	for trial := 0; trial < 25; trial++ {
		ntaps := 1 + rng.Intn(40)
		taps := randTaps(rng, ntaps)
		blockLen := 0
		if rng.Intn(2) == 1 {
			blockLen = NextPow2(ntaps) << uint(rng.Intn(3))
		}
		conv := NewFFTConvolver(taps, blockLen)
		fir := NewFIR(taps)
		tol := tapsTol(taps)
		for _, n := range propLengths(rng, conv.step) {
			in := randSamples(rng, n)
			got := conv.Apply(nil, in)
			want := fir.ApplyInto(nil, in)
			if len(got) != len(want) {
				t.Fatalf("trial %d ntaps=%d block=%d n=%d: len %d want %d",
					trial, ntaps, conv.BlockLen(), n, len(got), len(want))
			}
			for i := range got {
				if e := cdiff(got[i], want[i]); e > tol {
					t.Fatalf("trial %d ntaps=%d block=%d n=%d idx=%d: got %v want %v (err %g > %g)",
						trial, ntaps, conv.BlockLen(), n, i, got[i], want[i], e, tol)
				}
			}
		}
	}
}

// TestPropComplexFFTConvolverMatchesDirect: complex-tap convolution
// (matched filters) against a float64 direct convolution.
func TestPropComplexFFTConvolverMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(propSeed(t)))
	for trial := 0; trial < 15; trial++ {
		ntaps := 1 + rng.Intn(32)
		taps := randSamples(rng, ntaps)
		conv := NewComplexFFTConvolver(taps, 0)
		tol := 0.0
		for _, v := range taps {
			tol += math.Hypot(float64(real(v)), float64(imag(v)))
		}
		tol = 1e-4 * (1 + tol)
		for _, n := range propLengths(rng, conv.step) {
			in := randSamples(rng, n)
			got := conv.Apply(nil, in)
			if len(got) != n {
				t.Fatalf("trial %d n=%d: output len %d", trial, n, len(got))
			}
			for i := 0; i < n; i++ {
				var accR, accI float64
				for k := 0; k < ntaps && k <= i; k++ {
					sr, si := float64(real(in[i-k])), float64(imag(in[i-k]))
					tr, ti := float64(real(taps[k])), float64(imag(taps[k]))
					accR += sr*tr - si*ti
					accI += sr*ti + si*tr
				}
				want := complex64(complex(accR, accI))
				if e := cdiff(got[i], want); e > tol {
					t.Fatalf("trial %d n=%d idx=%d: got %v want %v (err %g)", trial, n, i, got[i], want, e)
				}
			}
		}
	}
}

// TestPropApplyRealMatchesDirect: the float32 real-axis path used by the
// 802.11b signature correlator.
func TestPropApplyRealMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(propSeed(t)))
	for trial := 0; trial < 15; trial++ {
		ntaps := 1 + rng.Intn(24)
		taps := randTaps(rng, ntaps)
		conv := NewFFTConvolver(taps, 0)
		tol := tapsTol(taps)
		for _, n := range propLengths(rng, conv.step) {
			in := make([]float32, n)
			for i := range in {
				in[i] = float32(rng.NormFloat64())
			}
			got := conv.ApplyReal(nil, in)
			if len(got) != n {
				t.Fatalf("trial %d n=%d: output len %d", trial, n, len(got))
			}
			for i := 0; i < n; i++ {
				var acc float64
				for k := 0; k < ntaps && k <= i; k++ {
					acc += float64(in[i-k]) * taps[k]
				}
				if e := math.Abs(float64(got[i]) - acc); e > tol {
					t.Fatalf("trial %d n=%d idx=%d: got %v want %v (err %g)", trial, n, i, got[i], acc, e)
				}
			}
		}
	}
}

// TestPropConvolverCrossCorrelate: the WiFi demod's corr-via-convolution
// mapping — reversed-pattern taps turn overlap-save convolution into a
// sliding dot product, which normalized per lag must reproduce
// CrossCorrelate at every lag.
func TestPropConvolverCrossCorrelate(t *testing.T) {
	rng := rand.New(rand.NewSource(propSeed(t)))
	for trial := 0; trial < 10; trial++ {
		m := 4 + rng.Intn(29)
		pat := make([]float64, m)
		sig := make([]float64, m+rng.Intn(2000))
		sig32 := make([]float32, len(sig))
		for i := range pat {
			pat[i] = float64(float32(rng.NormFloat64())) // float32-exact values
		}
		for i := range sig {
			v := float32(rng.NormFloat64())
			sig[i] = float64(v)
			sig32[i] = v
		}
		taps := make([]float64, m)
		for k := range taps {
			taps[k] = pat[m-1-k]
		}
		conv := NewFFTConvolver(taps, 0)
		raw := conv.ApplyReal(nil, sig32)
		want := CrossCorrelate(sig, pat)
		var pNorm float64
		for _, v := range pat {
			pNorm += v * v
		}
		pNorm = math.Sqrt(pNorm)
		for lag := range want {
			var sNorm float64
			for k := 0; k < m; k++ {
				sNorm += sig[lag+k] * sig[lag+k]
			}
			got := 0.0
			if sNorm != 0 && pNorm != 0 {
				got = float64(raw[lag+m-1]) / (math.Sqrt(sNorm) * pNorm)
			}
			if e := math.Abs(got - want[lag]); e > 1e-3 {
				t.Fatalf("trial %d m=%d lag=%d: conv-corr %v want %v (err %g)", trial, m, lag, got, want[lag], e)
			}
		}
	}
}

// TestPropConvolverComplexCorrelate: same mapping for the complex
// matched filter (access-code hunting): conjugate-reversed taps, then
// magnitude over norms reproduces ComplexCorrelate.
func TestPropConvolverComplexCorrelate(t *testing.T) {
	rng := rand.New(rand.NewSource(propSeed(t)))
	for trial := 0; trial < 10; trial++ {
		m := 4 + rng.Intn(29)
		pat := randSamples(rng, m)
		sig := randSamples(rng, m+rng.Intn(2000))
		taps := make([]complex64, m)
		for k := range taps {
			p := pat[m-1-k]
			taps[k] = complex(real(p), -imag(p))
		}
		conv := NewComplexFFTConvolver(taps, 0)
		raw := conv.Apply(nil, sig)
		want := ComplexCorrelate(sig, pat)
		var pNorm float64
		for _, v := range pat {
			pNorm += float64(real(v))*float64(real(v)) + float64(imag(v))*float64(imag(v))
		}
		pNorm = math.Sqrt(pNorm)
		for lag := range want {
			var sNorm float64
			for k := 0; k < m; k++ {
				sv := sig[lag+k]
				sNorm += float64(real(sv))*float64(real(sv)) + float64(imag(sv))*float64(imag(sv))
			}
			got := 0.0
			if sNorm != 0 && pNorm != 0 {
				v := raw[lag+m-1]
				got = math.Hypot(float64(real(v)), float64(imag(v))) / (math.Sqrt(sNorm) * pNorm)
			}
			if e := math.Abs(got - want[lag]); e > 1e-3 {
				t.Fatalf("trial %d m=%d lag=%d: conv-corr %v want %v (err %g)", trial, m, lag, got, want[lag], e)
			}
		}
	}
}

// chanRef computes the direct reference chain for one channel:
// mix by -offsetHz (exact per-sample phase) -> zero-state FIR ->
// keep every decim-th sample.
func chanRef(in []complex64, offsetHz, rateHz float64, taps []float64, decim int) []complex64 {
	mixed := make([]complex64, len(in))
	w := -2 * math.Pi * offsetHz / rateHz
	for i, v := range in {
		ph := math.Mod(w*float64(i), 2*math.Pi)
		rot := complex(float32(math.Cos(ph)), float32(math.Sin(ph)))
		mixed[i] = v * rot
	}
	filtered := NewFIR(taps).ApplyInto(nil, mixed)
	out := make([]complex64, 0, (len(filtered)+decim-1)/decim)
	for i := 0; i < len(filtered); i += decim {
		out = append(out, filtered[i])
	}
	return out
}

// TestPropChannelizerMatchesDirect: every channel of the polyphase bank
// must match the per-channel mix+filter+decimate reference, for
// decimations 1, 2 and 4, odd and even channel counts, and awkward
// input lengths — via both Extract and the shared-forward ExtractAll.
func TestPropChannelizerMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(propSeed(t)))
	const rate = 8e6
	const spacing = 1e6
	lp := LowPass(700_000, rate, 21).Taps()
	configs := []struct {
		channels, decim, block int
		taps                   []float64
	}{
		{8, 1, 512, lp},
		{8, 2, 512, lp},
		{4, 4, 256, lp},
		{5, 2, 512, lp},
		{1, 1, 256, randTaps(rng, 9)},
	}
	for _, cfg := range configs {
		cz, err := NewChannelizer(ChannelizerConfig{
			Taps: cfg.taps, Channels: cfg.channels,
			SpacingHz: spacing, RateHz: rate,
			BlockLen: cfg.block, Decim: cfg.decim,
		})
		if err != nil {
			t.Fatalf("C=%d D=%d: %v", cfg.channels, cfg.decim, err)
		}
		tol := tapsTol(cfg.taps)
		for _, n := range propLengths(rng, cz.step) {
			in := randSamples(rng, n)
			want := make([][]complex64, cfg.channels)
			for ch := 0; ch < cfg.channels; ch++ {
				offset := (float64(ch) - float64(cfg.channels-1)/2) * spacing
				want[ch] = chanRef(in, offset, rate, cfg.taps, cfg.decim)
				got := cz.Extract(nil, in, ch)
				checkChannel(t, "Extract", cfg.channels, cfg.decim, n, ch, got, want[ch], tol)
			}
			visited := 0
			cz.ExtractAll(in, func(ch int, out []complex64) {
				checkChannel(t, "ExtractAll", cfg.channels, cfg.decim, n, ch, out, want[ch], tol)
				visited++
			})
			if visited != cfg.channels {
				t.Fatalf("C=%d D=%d n=%d: ExtractAll visited %d channels", cfg.channels, cfg.decim, n, visited)
			}
		}
	}
}

func checkChannel(t *testing.T, path string, C, D, n, ch int, got, want []complex64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s C=%d D=%d n=%d ch=%d: len %d want %d", path, C, D, n, ch, len(got), len(want))
	}
	for i := range got {
		if e := cdiff(got[i], want[i]); e > tol {
			t.Fatalf("%s C=%d D=%d n=%d ch=%d idx=%d: got %v want %v (err %g > %g)",
				path, C, D, n, ch, i, got[i], want[i], e, tol)
		}
	}
}

// TestFastAtan2Accuracy gates the table-anchored atan2 the FM
// discriminator runs on: worst absolute error under 1e-10 rad over
// random draws plus the axis/origin/denormal corner cases.
func TestFastAtan2Accuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(propSeed(t)))
	worst := 0.0
	for i := 0; i < 1_000_000; i++ {
		y := rng.NormFloat64()
		x := rng.NormFloat64()
		if e := math.Abs(fastAtan2(y, x) - math.Atan2(y, x)); e > worst {
			worst = e
		}
	}
	cases := [][2]float64{
		{0, 1}, {1, 0}, {0, -1}, {-1, 0}, {0, 0},
		{1e-300, 1}, {1, 1e-300}, {1e300, 1e-300}, {1e-300, 1e300},
		{1, 1}, {-1, 1}, {1, -1}, {-1, -1},
		{math.SmallestNonzeroFloat64, 1}, {1, math.SmallestNonzeroFloat64},
	}
	for _, c := range cases {
		if e := math.Abs(fastAtan2(c[0], c[1]) - math.Atan2(c[0], c[1])); e > worst {
			worst = e
		}
	}
	t.Logf("worst error %g rad", worst)
	if worst > 1e-10 {
		t.Fatalf("fastAtan2 worst error %g > 1e-10", worst)
	}
}

// TestPropFastPhaseDiffMatchesPhaseDiff: the two-pass chunked
// discriminator must agree with the math.Atan2 reference on every
// length, including chunk-boundary lengths.
func TestPropFastPhaseDiffMatchesPhaseDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(propSeed(t)))
	for _, n := range []int{0, 1, 2, 3, 511, 512, 513, 1024, 1025, 3000} {
		in := randSamples(rng, n)
		got := FastPhaseDiff(in, nil)
		want := PhaseDiff(in, nil)
		if len(got) != len(want) {
			t.Fatalf("n=%d: len %d want %d", n, len(got), len(want))
		}
		for i := range got {
			if e := math.Abs(got[i] - want[i]); e > 1e-9 {
				t.Fatalf("n=%d idx=%d: got %v want %v (err %g)", n, i, got[i], want[i], e)
			}
		}
	}
}

// TestPropCosPhaseDiff: the transcendental-free correlator input must be
// cos of the PhaseDiff reference.
func TestPropCosPhaseDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(propSeed(t)))
	in := randSamples(rng, 4096)
	// Zero sample: the phase products around it have zero magnitude, where
	// the angle is undefined (atan2 sees signed zeros, the fast path sees
	// its guard) — those indices are only required to stay finite.
	in[17] = 0
	got := CosPhaseDiff(in, nil)
	want := PhaseDiff(in, nil)
	if len(got) != len(want) {
		t.Fatalf("len %d want %d", len(got), len(want))
	}
	for i := range got {
		p := in[i+1] * complex(real(in[i]), -imag(in[i]))
		if math.Hypot(float64(real(p)), float64(imag(p))) < 1e-20 {
			if math.IsNaN(float64(got[i])) {
				t.Fatalf("idx=%d: NaN on zero-magnitude product", i)
			}
			continue
		}
		if e := math.Abs(float64(got[i]) - math.Cos(want[i])); e > 1e-5 {
			t.Fatalf("idx=%d: got %v want cos=%v (err %g)", i, got[i], math.Cos(want[i]), e)
		}
	}
}

// TestPropCircularMeanPhaseDiff: the unit-phasor circular mean must be
// the CircularMean of the PhaseDiff reference, across lengths and with
// a drift that puts the mean near the ±pi wrap.
func TestPropCircularMeanPhaseDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(propSeed(t)))
	for _, n := range []int{0, 1, 2, 3, 600, 4096} {
		for _, drift := range []float64{0, 0.4, -1.3, math.Pi - 0.01} {
			in := randSamples(rng, n)
			for i := range in {
				in[i] += complex64(complex(4*math.Cos(drift*float64(i)), 4*math.Sin(drift*float64(i))))
			}
			got := CircularMeanPhaseDiff(in)
			want := CircularMean(PhaseDiff(in, nil))
			if e := math.Abs(WrapPhase(got - want)); e > 1e-9 {
				t.Fatalf("n=%d drift=%v: got %v want %v (err %g)", n, drift, got, want, e)
			}
		}
	}
}
