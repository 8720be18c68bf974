package iq

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestClockDuration(t *testing.T) {
	c := NewClock(8_000_000)
	if got := c.Duration(8_000_000); got != time.Second {
		t.Errorf("Duration(rate) = %v, want 1s", got)
	}
	if got := c.Duration(80); got != 10*time.Microsecond {
		t.Errorf("Duration(80) = %v, want 10us", got)
	}
}

func TestClockTicks(t *testing.T) {
	c := NewClock(8_000_000)
	cases := []struct {
		d    time.Duration
		want Tick
	}{
		{time.Second, 8_000_000},
		{10 * time.Microsecond, 80},
		{625 * time.Microsecond, 5000},
		{0, 0},
	}
	for _, tc := range cases {
		if got := c.Ticks(tc.d); got != tc.want {
			t.Errorf("Ticks(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestClockDefaultRate(t *testing.T) {
	c := NewClock(0)
	if c.Rate != DefaultSampleRate {
		t.Errorf("default rate = %d", c.Rate)
	}
	if c.String() == "" {
		t.Error("empty String")
	}
}

func TestClockRoundTripProperty(t *testing.T) {
	c := NewClock(8_000_000)
	f := func(n uint32) bool {
		ticks := Tick(n % 100_000_000)
		return c.Ticks(c.Duration(ticks)) == ticks
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClockMicros(t *testing.T) {
	c := NewClock(8_000_000)
	if got := c.Micros(80); got != 10 {
		t.Errorf("Micros(80) = %v", got)
	}
}

func TestPowerAndEnergy(t *testing.T) {
	s := Samples{complex(3, 4), complex(0, 0), complex(1, 0)}
	if got := Power(s[0]); got != 25 {
		t.Errorf("Power(3+4i) = %v", got)
	}
	if got := s.Energy(); got != 26 {
		t.Errorf("Energy = %v", got)
	}
	if got := s.MeanPower(); math.Abs(got-26.0/3) > 1e-12 {
		t.Errorf("MeanPower = %v", got)
	}
	if got := s.PeakPower(); got != 25 {
		t.Errorf("PeakPower = %v", got)
	}
	var empty Samples
	if empty.MeanPower() != 0 || empty.Energy() != 0 {
		t.Error("empty stats should be 0")
	}
}

func TestDBConversions(t *testing.T) {
	if got := DB(10); math.Abs(got-10) > 1e-12 {
		t.Errorf("DB(10) = %v", got)
	}
	if got := DB(100); math.Abs(got-20) > 1e-12 {
		t.Errorf("DB(100) = %v", got)
	}
	if got := DB(0); got != -300 {
		t.Errorf("DB(0) = %v, want floor", got)
	}
	if got := DB(-5); got != -300 {
		t.Errorf("DB(-5) = %v, want floor", got)
	}
	if got := FromDB(3); math.Abs(got-1.9952623) > 1e-6 {
		t.Errorf("FromDB(3) = %v", got)
	}
}

func TestDBInverseProperty(t *testing.T) {
	f := func(raw uint16) bool {
		db := float64(raw%600)/10 - 30 // [-30, 30)
		back := DB(FromDB(db))
		return math.Abs(back-db) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScale(t *testing.T) {
	s := Samples{complex(1, 1), complex(2, -2)}
	s.Scale(0.5)
	if s[0] != complex(0.5, 0.5) || s[1] != complex(1, -1) {
		t.Errorf("scaled = %v", s)
	}
}

func TestAdd(t *testing.T) {
	base := make(Samples, 10)
	n := base.Add(4, Samples{1, 2, 3})
	if n != 3 {
		t.Errorf("mixed %d", n)
	}
	if base[4] != 1 || base[5] != 2 || base[6] != 3 || base[3] != 0 {
		t.Errorf("base = %v", base)
	}
	// Out-of-range portions are dropped, not panicking.
	if n := base.Add(8, Samples{1, 1, 1, 1}); n != 2 {
		t.Errorf("clipped mix = %d", n)
	}
	if n := base.Add(-2, Samples{5, 5, 5}); n != 1 {
		t.Errorf("negative-offset mix = %d", n)
	}
}

func TestRotatePreservesPower(t *testing.T) {
	s := Samples{complex(1, 2), complex(-3, 0.5)}
	before := s.Energy()
	s.Rotate(1.2345)
	if math.Abs(s.Energy()-before) > 1e-4 {
		t.Errorf("energy changed: %v -> %v", before, s.Energy())
	}
}

func TestFrequencyShiftPreservesPower(t *testing.T) {
	s := make(Samples, 1000)
	for i := range s {
		s[i] = complex(1, 0)
	}
	s.FrequencyShift(1e6, 8_000_000, 0)
	if math.Abs(s.MeanPower()-1) > 1e-4 {
		t.Errorf("power after shift = %v", s.MeanPower())
	}
	// The shifted signal must actually rotate: samples differ.
	if s[0] == s[1] {
		t.Error("no rotation applied")
	}
}

func TestFrequencyShiftContinuity(t *testing.T) {
	// Shifting in two halves with the returned phase must equal one
	// shot.
	mk := func() Samples {
		s := make(Samples, 64)
		for i := range s {
			s[i] = complex(1, 0)
		}
		return s
	}
	whole := mk()
	whole.FrequencyShift(333_333, 8_000_000, 0)
	split := mk()
	ph := split[:32].FrequencyShift(333_333, 8_000_000, 0)
	split[32:].FrequencyShift(333_333, 8_000_000, ph)
	for i := range whole {
		d := whole[i] - split[i]
		if math.Hypot(float64(real(d)), float64(imag(d))) > 1e-4 {
			t.Fatalf("discontinuity at %d: %v vs %v", i, whole[i], split[i])
		}
	}
}

func TestClone(t *testing.T) {
	s := Samples{1, 2}
	c := s.Clone()
	c[0] = 9
	if s[0] == 9 {
		t.Error("clone aliases source")
	}
}

func TestChunkHelpers(t *testing.T) {
	if Chunks(399) != 1 || Chunks(400) != 2 {
		t.Error("Chunks miscounts")
	}
	if ChunkStart(3) != Tick(3*ChunkSamples) {
		t.Error("ChunkStart")
	}
}

func TestIntervalBasics(t *testing.T) {
	iv := Interval{10, 20}
	if iv.Len() != 10 || iv.Empty() {
		t.Error("len/empty")
	}
	if !iv.Contains(10) || iv.Contains(20) || iv.Contains(9) {
		t.Error("contains half-open semantics")
	}
	inv := Interval{20, 10}
	if inv.Len() != 0 || !inv.Empty() {
		t.Error("inverted interval")
	}
}

func TestIntervalOverlapIntersect(t *testing.T) {
	a := Interval{0, 10}
	b := Interval{5, 15}
	c := Interval{10, 20}
	if !a.Overlaps(b) || a.Overlaps(c) {
		t.Error("overlap edges")
	}
	if x := a.Intersect(b); x != (Interval{5, 10}) {
		t.Errorf("intersect = %v", x)
	}
	if x := a.Intersect(c); !x.Empty() {
		t.Errorf("touching intersect = %v", x)
	}
}

func TestIntervalUnionExpand(t *testing.T) {
	a := Interval{5, 10}
	b := Interval{20, 30}
	if u := a.Union(b); u != (Interval{5, 30}) {
		t.Errorf("union hull = %v", u)
	}
	if u := a.Union(Interval{}); u != a {
		t.Errorf("union with empty = %v", u)
	}
	if e := a.Expand(10); e != (Interval{0, 20}) {
		t.Errorf("expand clamps at 0: %v", e)
	}
}

func TestMerge(t *testing.T) {
	set := []Interval{{10, 20}, {0, 5}, {15, 25}, {5, 10}, {40, 50}, {45, 45}}
	m := Merge(set)
	want := []Interval{{0, 25}, {40, 50}}
	if len(m) != len(want) {
		t.Fatalf("merged = %v", m)
	}
	for i := range want {
		if m[i] != want[i] {
			t.Errorf("merged[%d] = %v, want %v", i, m[i], want[i])
		}
	}
	if Merge(nil) != nil {
		t.Error("merge nil")
	}
}

func TestMergeProperties(t *testing.T) {
	gen := func(seed int64) []Interval {
		set := make([]Interval, 0, 20)
		x := uint64(seed)
		next := func() int64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int64(x % 1000)
		}
		for i := 0; i < 20; i++ {
			s := next()
			set = append(set, Interval{Tick(s), Tick(s + next()%50)})
		}
		return set
	}
	f := func(seed int64) bool {
		set := gen(seed)
		m := Merge(set)
		// Disjoint and sorted.
		for i := 1; i < len(m); i++ {
			if m[i].Start <= m[i-1].End {
				return false
			}
		}
		// Idempotent.
		m2 := Merge(m)
		if len(m2) != len(m) {
			return false
		}
		// Total coverage preserved: every original point is covered.
		for _, iv := range set {
			for tk := iv.Start; tk < iv.End; tk += 7 {
				covered := false
				for _, mv := range m {
					if mv.Contains(tk) {
						covered = true
						break
					}
				}
				if !covered {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCoverageOf(t *testing.T) {
	iv := Interval{0, 100}
	set := []Interval{{10, 20}, {15, 30}, {90, 150}}
	// Overlapping set counts once: [10,30) + [90,100) = 30.
	if got := CoverageOf(iv, set); got != 30 {
		t.Errorf("coverage = %d, want 30", got)
	}
	if CoverageOf(Interval{}, set) != 0 {
		t.Error("empty interval coverage")
	}
	if CoverageOf(iv, nil) != 0 {
		t.Error("nil set coverage")
	}
}

func TestCoverageBoundsProperty(t *testing.T) {
	f := func(a, b uint16, raw []uint16) bool {
		lo, hi := Tick(a%500), Tick(a%500)+Tick(b%500)+1
		iv := Interval{lo, hi}
		var set []Interval
		for i := 0; i+1 < len(raw); i += 2 {
			s := Tick(raw[i] % 1000)
			set = append(set, Interval{s, s + Tick(raw[i+1]%100)})
		}
		cov := CoverageOf(iv, set)
		return cov >= 0 && cov <= iv.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTotalLen(t *testing.T) {
	if TotalLen([]Interval{{0, 5}, {10, 12}}) != 7 {
		t.Error("TotalLen")
	}
}
