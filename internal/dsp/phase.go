package dsp

import (
	"math"
)

// grow resizes out to n entries, reallocating only when the capacity is
// insufficient (callers pass reusable scratch buffers on hot paths).
func grow(out []float64, n int) []float64 {
	if cap(out) < n {
		return make([]float64, n)
	}
	return out[:n]
}

// PhaseOf returns the instantaneous phase of a complex64 sample in
// radians, in (-pi, pi].
func PhaseOf(s complex64) float64 {
	return math.Atan2(float64(imag(s)), float64(real(s)))
}

// WrapPhase wraps an angle into (-pi, pi].
func WrapPhase(p float64) float64 {
	for p > math.Pi {
		p -= 2 * math.Pi
	}
	for p <= -math.Pi {
		p += 2 * math.Pi
	}
	return p
}

// PhaseDiff computes the wrapped phase difference between consecutive
// samples of block, i.e. the first derivative of phase scaled by the
// sample period. out[i] = arg(block[i+1] * conj(block[i])), one entry per
// adjacent pair (len(block)-1 values).
//
// Computing the difference via complex conjugate multiplication (one
// complex multiply plus one arctan per sample, exactly as the paper's
// Bluetooth detector costs it in Section 4.5) avoids explicit unwrapping.
func PhaseDiff(block []complex64, out []float64) []float64 {
	if len(block) < 2 {
		return out[:0]
	}
	out = grow(out, len(block)-1)
	for i := 0; i+1 < len(block); i++ {
		a := block[i]
		b := block[i+1]
		// b * conj(a)
		re := float64(real(b))*float64(real(a)) + float64(imag(b))*float64(imag(a))
		im := float64(imag(b))*float64(real(a)) - float64(real(b))*float64(imag(a))
		out[i] = math.Atan2(im, re)
	}
	return out
}

// CosPhaseDiff computes cos(arg(block[i+1] * conj(block[i]))) — the
// cosine of the adjacent-sample phase difference — without any
// transcendental call: cos(atan2(im, re)) is just re/sqrt(re²+im²).
// It produces exactly what the 802.11b signature correlator consumes
// (PhaseDiff followed by a per-sample cos), at a fraction of the cost.
// A zero product (either sample zero) yields 1, matching
// cos(atan2(0, 0)) = cos(0) on the direct path.
func CosPhaseDiff(block []complex64, out []float32) []float32 {
	if len(block) < 2 {
		return out[:0]
	}
	out = growF32(out, len(block)-1)
	for i := 0; i+1 < len(block); i++ {
		out[i] = float32(CosPhaseStep(block[i], block[i+1]))
	}
	return out
}

// CosPhaseStep is one CosPhaseDiff entry at full precision:
// cos(arg(b * conj(a))) = re/|b * conj(a)|, and 1 for a zero product.
// For finite float32 inputs the float64 product neither overflows nor
// underflows, so the identity holds to rounding for every sample pair.
func CosPhaseStep(a, b complex64) float64 {
	re := float64(real(b))*float64(real(a)) + float64(imag(b))*float64(imag(a))
	im := float64(imag(b))*float64(real(a)) - float64(real(b))*float64(imag(a))
	n2 := re*re + im*im
	if n2 == 0 {
		return 1
	}
	return re / math.Sqrt(n2)
}

// CircularMeanPhaseDiff is CircularMean(PhaseDiff(block)) without a
// transcendental call per sample: the cosine and sine of each
// difference are the conjugate product scaled to unit length, so the
// mean direction is the angle of the summed unit products. A zero
// product contributes (1, 0), the cos and sin of atan2(0, 0) = 0.
func CircularMeanPhaseDiff(block []complex64) float64 {
	var sx, sy float64
	for i := 0; i+1 < len(block); i++ {
		a, b := block[i], block[i+1]
		re := float64(real(b))*float64(real(a)) + float64(imag(b))*float64(imag(a))
		im := float64(imag(b))*float64(real(a)) - float64(real(b))*float64(imag(a))
		n2 := re*re + im*im
		if n2 == 0 {
			sx++
			continue
		}
		inv := 1 / math.Sqrt(n2)
		sx += re * inv
		sy += im * inv
	}
	return math.Atan2(sy, sx)
}

// FastPhaseDiff is PhaseDiff with the library atan2 replaced by a
// table-anchored approximation (fastAtan2, absolute error under 1e-10
// rad). It is the FM-discriminator variant the FFT demod path uses: the
// Bluetooth slicer compares each difference against a moving average
// with margins of ~0.1 rad at the narrowest, nine orders of magnitude
// above the approximation error.
//
// The loop runs in two passes over L1-sized chunks — conjugate products
// into stack scratch, then the atan2 sweep — because feeding each
// product straight into the (non-inlined) fastAtan2 call measures ~3×
// slower than the split: with the product chain fused in, the core
// stops overlapping iterations across the call and every sample pays
// the full serial latency of both chains.
func FastPhaseDiff(block []complex64, out []float64) []float64 {
	if len(block) < 2 {
		return out[:0]
	}
	n := len(block) - 1
	out = grow(out, n)
	var res, ims [512]float64
	for base := 0; base < n; base += len(res) {
		m := n - base
		if m > len(res) {
			m = len(res)
		}
		for j := 0; j < m; j++ {
			a := block[base+j]
			b := block[base+j+1]
			// b * conj(a)
			res[j] = float64(real(b))*float64(real(a)) + float64(imag(b))*float64(imag(a))
			ims[j] = float64(imag(b))*float64(real(a)) - float64(real(b))*float64(imag(a))
		}
		for j := 0; j < m; j++ {
			out[base+j] = fastAtan2(ims[j], res[j])
		}
	}
	return out
}

const pi2 = math.Pi / 2

// atanTable[j] = atan(j/64) for the table-driven reduction below.
var atanTable = func() (t [65]float64) {
	for j := range t {
		t[j] = math.Atan(float64(j) / 64)
	}
	return
}()

// fastAtan2 approximates math.Atan2 for finite inputs to within 1e-11
// radians, built to run branch-free on the random-sign data an FM
// discriminator feeds it (the octant branches of a textbook atan2
// mispredict half the time there, which costs more than the math):
//
//   - octant fold to t = min/max in [0, 1] via a conditional swap
//   - table anchor: atan(t) = atan(j/64) + atan(u) with j = round(64t)
//     and u = (t - j/64)/(1 + t·j/64), so |u| <= 1/128 and two Taylor
//     terms bound the truncation error by u^5/5 < 2^-35/5
//   - the three sign/quadrant corrections applied as copysign-selected
//     multiply-adds instead of branches
//
// Like math.Atan2(0, 0) it returns 0 at the origin.
func fastAtan2(y, x float64) float64 {
	// min/max fold on the bit patterns: for non-negative floats IEEE
	// order is integer order, and the integer swap compiles to CMOV
	// instead of a coin-flip branch.
	const signMask = 1 << 63
	bax := math.Float64bits(x) &^ signMask
	bay := math.Float64bits(y) &^ signMask
	bn, bd := bay, bax
	if bn > bd {
		bn, bd = bd, bn
	}
	if bd == 0 {
		return 0
	}
	num := math.Float64frombits(bn)
	den := math.Float64frombits(bd)

	// The anchor index only needs num/den to ~1e-2 relative (an off-by-
	// one j still satisfies the identity below, it just widens |u|), so
	// a float32 divide picks it and the full-precision divider is paid
	// exactly once, inside u. The identity is exact:
	//   atan(num/den) = atan(tj) + atan(u),
	//   u = (num/den - tj)/(1 + (num/den)·tj) = (num - tj·den)/(den + tj·num)
	j := int(float32(num)/float32(den)*64 + 0.5)
	if uint(j) > 64 {
		// |x| or |y| outside float32 range made the estimate garbage;
		// redo the index at full precision.
		j = int(num/den*64 + 0.5)
	}
	tj := float64(j) * (1.0 / 64)
	u := (num - tj*den) / (den + tj*num)
	z := u * u
	base := atanTable[j] + u*(1+z*(-1.0/3+z*(1.0/5)))

	// swap: r = pi/2 - base; x < 0: r = pi - r; y < 0: r = -r — all as
	// copysign-driven selects (ax - ay is never -0 here, so s1 is +1 on
	// the tie, matching the strict bn > bd swap above).
	s1 := math.Copysign(1, math.Float64frombits(bax)-math.Float64frombits(bay))
	s2 := math.Copysign(1, x)
	s3 := math.Copysign(1, y)
	r := (math.Pi/4)*(1-s1) + s1*base
	r = (math.Pi/2)*(1-s2) + s2*r
	return s3 * r
}

// SecondDiff computes out[i] = WrapPhase(d[i+1]-d[i]) for a first-derivative
// sequence d, producing len(d)-1 values: the second derivative of phase.
// GFSK (continuous-phase, Gaussian-smoothed) signals have a second
// derivative near zero, which is the Bluetooth phase detector's test.
func SecondDiff(d, out []float64) []float64 {
	if len(d) < 2 {
		return out[:0]
	}
	out = grow(out, len(d)-1)
	for i := 0; i+1 < len(d); i++ {
		out[i] = WrapPhase(d[i+1] - d[i])
	}
	return out
}

// Unwrap produces a continuous phase sequence from wrapped phases by
// removing 2*pi jumps. Returns a new slice.
func Unwrap(phases []float64) []float64 {
	out := make([]float64, len(phases))
	if len(phases) == 0 {
		return out
	}
	out[0] = phases[0]
	for i := 1; i < len(phases); i++ {
		d := WrapPhase(phases[i] - phases[i-1])
		out[i] = out[i-1] + d
	}
	return out
}

// MeanAbs returns the mean absolute value of xs (0 for empty input).
func MeanAbs(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += math.Abs(v)
	}
	return s / float64(len(xs))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (0 for len < 2).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(len(xs))
}

// CircularMean returns the circular mean of a set of angles, which is the
// right way to average phases near the wrap point.
func CircularMean(angles []float64) float64 {
	var sx, sy float64
	for _, a := range angles {
		sx += math.Cos(a)
		sy += math.Sin(a)
	}
	return math.Atan2(sy, sx)
}

// PhaseHistogram bins wrapped angles into nbins equal bins over (-pi, pi]
// and returns the counts. This implements the constellation estimator of
// paper Figure 4: "computing a phase histogram with some number of bins,
// and making sure the appropriate bins are filled while others are empty".
func PhaseHistogram(angles []float64, nbins int) []int {
	counts := make([]int, nbins)
	if nbins <= 0 {
		return counts
	}
	for _, a := range angles {
		w := WrapPhase(a)
		// Map (-pi, pi] to [0, nbins).
		f := (w + math.Pi) / (2 * math.Pi)
		idx := int(f * float64(nbins))
		if idx >= nbins {
			idx = nbins - 1
		}
		if idx < 0 {
			idx = 0
		}
		counts[idx]++
	}
	return counts
}

// DominantBins returns the indices of histogram bins holding at least
// frac of the total count, sorted ascending. A PSK constellation with M
// points concentrates symbol-transition phases into M (differential) or
// 2M (offset) bins; counting the dominant bins estimates M.
func DominantBins(counts []int, frac float64) []int {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return nil
	}
	var out []int
	for i, c := range counts {
		if float64(c) >= frac*float64(total) {
			out = append(out, i)
		}
	}
	return out
}
