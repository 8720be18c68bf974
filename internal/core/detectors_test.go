package core

import (
	"math"
	"testing"

	"rfdump/internal/dsp"
	"rfdump/internal/flowgraph"
	"rfdump/internal/iq"
	"rfdump/internal/phy"
	"rfdump/internal/phy/bluetooth"
	"rfdump/internal/phy/wifi"
	"rfdump/internal/protocols"
)

// feedPeaks drives a metadata-only detector with synthetic peaks (one
// ChunkMeta per peak) and returns its detections.
func feedPeaks(t *testing.T, det flowgraph.Block, peaks []Peak) []Detection {
	t.Helper()
	hist := NewPeakHistory(DefaultHistory)
	var out []Detection
	emit := func(it flowgraph.Item) { out = append(out, it.(Detection)) }
	for _, pk := range peaks {
		hist.Append(pk)
		meta := &ChunkMeta{History: hist, Completed: []Peak{pk}, Busy: true}
		if err := det.Process(meta, emit); err != nil {
			t.Fatal(err)
		}
	}
	if err := det.Flush(emit); err != nil {
		t.Fatal(err)
	}
	return out
}

func pk(start, end iq.Tick) Peak {
	return Peak{Span: iq.Interval{Start: start, End: end}, MeanPower: 100, MaxPower: 110, MinPower: 90}
}

var testClock = iq.NewClock(0)

func TestWiFiTimingSIFS(t *testing.T) {
	det := NewWiFiTiming(testClock, WiFiTimingConfig{DisableDIFS: true})
	// data [0, 39232), SIFS 80, ack [39312, 41744).
	dets := feedPeaks(t, det, []Peak{pk(0, 39232), pk(39312, 41744)})
	if len(dets) != 2 {
		t.Fatalf("detections = %v", dets)
	}
	// Both the data frame and the ACK are forwarded.
	if dets[0].Span.Start != 0 || dets[1].Span.Start != 39312 {
		t.Errorf("spans: %v", dets)
	}
	for _, d := range dets {
		if d.Family != protocols.WiFi80211b1M || d.Detector != "802.11-sifs" {
			t.Errorf("detection %v", d)
		}
	}
}

func TestWiFiTimingSIFSToleranceBoundary(t *testing.T) {
	det := NewWiFiTiming(testClock, WiFiTimingConfig{DisableDIFS: true, SIFSToleranceUS: 2})
	// Gap 120 samples = 15 us: outside ±2 us of SIFS.
	dets := feedPeaks(t, det, []Peak{pk(0, 1000), pk(1120, 2000)})
	if len(dets) != 0 {
		t.Errorf("out-of-tolerance gap detected: %v", dets)
	}
}

func TestWiFiTimingDIFS(t *testing.T) {
	det := NewWiFiTiming(testClock, WiFiTimingConfig{DisableSIFS: true})
	// Gaps DIFS + k*ST: 400 + k*160 samples.
	peaks := []Peak{pk(0, 1000)}
	start := iq.Tick(1000)
	for k := 0; k < 5; k++ {
		s := start + 400 + iq.Tick(k)*160
		peaks = append(peaks, pk(s, s+1000))
		start = s + 1000
	}
	dets := feedPeaks(t, det, peaks)
	if len(dets) != 5 {
		t.Fatalf("DIFS detections = %d, want 5 (first peak has no predecessor)", len(dets))
	}
	for _, d := range dets {
		if d.Detector != "802.11-difs" {
			t.Error(d)
		}
	}
}

func TestWiFiTimingDIFSBeyondCW(t *testing.T) {
	det := NewWiFiTiming(testClock, WiFiTimingConfig{DisableSIFS: true, CWMax: 8})
	// k = 20 exceeds CWMax 8.
	gap := iq.Tick(400 + 20*160)
	dets := feedPeaks(t, det, []Peak{pk(0, 1000), pk(1000+gap, 3000+gap)})
	if len(dets) != 0 {
		t.Errorf("k beyond CW detected: %v", dets)
	}
}

func TestBTTimingSlotGrid(t *testing.T) {
	det := NewBTTiming(testClock, BTTimingConfig{})
	slot := testClock.Ticks(protocols.BTSlot) // 5000 samples
	// Packets starting at slots 0, 6, 14 (within 5-slot length bound).
	peaks := []Peak{
		pk(0, 4*slot),
		pk(6*slot, 6*slot+2*slot),
		pk(14*slot, 14*slot+3000),
	}
	dets := feedPeaks(t, det, peaks)
	// First packet cannot match (no history); packets 2 and 3 match.
	if len(dets) != 2 {
		t.Fatalf("BT timing detections = %v", dets)
	}
	for _, d := range dets {
		if d.Family != protocols.Bluetooth {
			t.Error(d)
		}
	}
}

func TestBTTimingFirstPacketMissed(t *testing.T) {
	// The documented floor of Figure 8: the session's first packet is
	// always missed by timing detection.
	det := NewBTTiming(testClock, BTTimingConfig{})
	slot := testClock.Ticks(protocols.BTSlot)
	dets := feedPeaks(t, det, []Peak{pk(0, slot)})
	if len(dets) != 0 {
		t.Error("first packet should be unmatchable")
	}
}

func TestBTTimingRejectsOverlong(t *testing.T) {
	det := NewBTTiming(testClock, BTTimingConfig{})
	slot := testClock.Ticks(protocols.BTSlot)
	// 8-slot peak cannot be a Bluetooth packet (max 5 slots).
	dets := feedPeaks(t, det, []Peak{pk(0, slot), pk(6*slot, 14*slot)})
	if len(dets) != 0 {
		t.Errorf("overlong peak classified: %v", dets)
	}
}

func TestBTTimingOffGridRejected(t *testing.T) {
	det := NewBTTiming(testClock, BTTimingConfig{})
	slot := testClock.Ticks(protocols.BTSlot)
	// Second packet 1.5 slots after the first: off grid.
	dets := feedPeaks(t, det, []Peak{pk(0, slot), pk(slot+slot/2, 2*slot+slot/2)})
	if len(dets) != 0 {
		t.Errorf("off-grid packet classified: %v", dets)
	}
}

func TestBTTimingCacheSpeedsMatching(t *testing.T) {
	slot := testClock.Ticks(protocols.BTSlot)
	mkPeaks := func() []Peak {
		var peaks []Peak
		for i := 0; i < 40; i++ {
			s := iq.Tick(i*2) * slot
			peaks = append(peaks, pk(s, s+3000))
		}
		return peaks
	}
	with := NewBTTiming(testClock, BTTimingConfig{})
	feedPeaks(t, with, mkPeaks())
	without := NewBTTiming(testClock, BTTimingConfig{DisableCache: true})
	feedPeaks(t, without, mkPeaks())
	if with.CacheHits == 0 {
		t.Error("cache never hit on steady traffic")
	}
	if with.HistoryScans >= without.HistoryScans {
		t.Errorf("cache did not reduce history scans: %d vs %d", with.HistoryScans, without.HistoryScans)
	}
}

func TestMicrowaveTimingDetectsOven(t *testing.T) {
	det := NewMicrowaveTiming(testClock)
	period := testClock.Ticks(protocols.MicrowaveACPeriodUS)
	on := period / 2
	var peaks []Peak
	for i := 0; i < 4; i++ {
		s := iq.Tick(i) * period
		p := pk(s, s+on)
		p.MaxPower = 105 // near-constant envelope
		peaks = append(peaks, p)
	}
	dets := feedPeaks(t, det, peaks)
	if len(dets) < 3 {
		t.Fatalf("microwave detections = %d", len(dets))
	}
	for _, d := range dets {
		if d.Family != protocols.Microwave {
			t.Error(d)
		}
	}
}

func TestMicrowaveTimingRejectsVaryingEnvelope(t *testing.T) {
	det := NewMicrowaveTiming(testClock)
	period := testClock.Ticks(protocols.MicrowaveACPeriodUS)
	on := period / 2
	var peaks []Peak
	for i := 0; i < 4; i++ {
		s := iq.Tick(i) * period
		p := pk(s, s+on)
		p.MaxPower = 400 // 4x the mean: not a magnetron
		peaks = append(peaks, p)
	}
	if dets := feedPeaks(t, det, peaks); len(dets) != 0 {
		t.Errorf("varying envelope classified: %v", dets)
	}
}

func TestMicrowaveTimingRejectsWrongPeriod(t *testing.T) {
	det := NewMicrowaveTiming(testClock)
	period := testClock.Ticks(protocols.MicrowaveACPeriodUS)
	on := period / 2
	var peaks []Peak
	for i := 0; i < 4; i++ {
		s := iq.Tick(i) * period * 2 // every other cycle: wrong period
		p := pk(s, s+on)
		p.MaxPower = 105
		peaks = append(peaks, p)
	}
	if dets := feedPeaks(t, det, peaks); len(dets) != 0 {
		t.Errorf("wrong period classified: %v", dets)
	}
}

func TestZigBeeTimingTurnaround(t *testing.T) {
	det := NewZigBeeTiming(testClock)
	tack := testClock.Ticks(protocols.ZigBeeSIFS)
	dets := feedPeaks(t, det, []Peak{pk(0, 10000), pk(10000+tack, 12000)})
	if len(dets) != 2 {
		t.Fatalf("zigbee detections = %v", dets)
	}
}

func TestZigBeeTimingBackoffMultiples(t *testing.T) {
	det := NewZigBeeTiming(testClock)
	backoff := testClock.Ticks(protocols.ZigBeeBackoffPeriod)
	dets := feedPeaks(t, det, []Peak{pk(0, 5000), pk(5000+3*backoff, 9000)})
	if len(dets) != 2 {
		t.Fatalf("backoff-multiple gap missed: %v", dets)
	}
	// 9.5 backoffs: beyond the 8-backoff search and off-grid.
	det2 := NewZigBeeTiming(testClock)
	dets2 := feedPeaks(t, det2, []Peak{pk(0, 5000), pk(5000+19*backoff/2, 30000)})
	if len(dets2) != 0 {
		t.Errorf("off-grid gap classified: %v", dets2)
	}
}

// --- phase detectors on synthesized signal ---

// streamAccessor for tests.
type memAccessor struct{ s iq.Samples }

func (m *memAccessor) Slice(iv iq.Interval) iq.Samples {
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

func wifiBurstStream(t testing.TB, rate protocols.ID, payload int, snrDB float64, pad int) (iq.Samples, iq.Interval) {
	t.Helper()
	mod, err := wifi.NewModulator(rate)
	if err != nil {
		t.Fatal(err)
	}
	frame := wifi.BuildDataFrame(wifi.Broadcast, wifi.Addr{1}, wifi.Addr{2}, 0, make([]byte, payload))
	burst, err := mod.Modulate(frame)
	if err != nil {
		t.Fatal(err)
	}
	ch := phy.Channel{SNRdB: snrDB, CFOHz: 1500, PhaseRad: 0.7}
	ch.Apply(burst, 1, phy.SampleRate)
	stream := make(iq.Samples, pad+len(burst.Samples)+pad)
	span := iq.Interval{Start: iq.Tick(pad), End: iq.Tick(pad + len(burst.Samples))}
	stream.Add(span.Start, burst.Samples)
	dsp.AWGN(dsp.NewRand(42), stream, 1)
	return stream, span
}

func TestWiFiPhaseDetectsDSSS(t *testing.T) {
	stream, span := wifiBurstStream(t, protocols.WiFi80211b1M, 200, 20, 400)
	acc := &memAccessor{s: stream}
	det := NewWiFiPhase(acc, WiFiPhaseConfig{})
	var dets []Detection
	det.analyzePeak(Peak{Span: span}, func(it flowgraph.Item) { dets = append(dets, it.(Detection)) })
	if len(dets) == 0 {
		t.Fatal("no detection")
	}
	covered := iq.CoverageOf(span, []iq.Interval{dets[0].Span})
	if float64(covered) < 0.9*float64(span.Len()) {
		t.Errorf("1 Mbps packet only %d/%d covered", covered, span.Len())
	}
	if dets[0].Confidence < 0.7 {
		t.Errorf("confidence %v", dets[0].Confidence)
	}
}

func TestWiFiPhaseCCKHeaderOnly(t *testing.T) {
	// For an 11 Mbps packet only the 192 us DBPSK PLCP matches — the
	// selectivity Table 4 measures.
	stream, span := wifiBurstStream(t, protocols.WiFi80211b11M, 600, 20, 400)
	acc := &memAccessor{s: stream}
	det := NewWiFiPhase(acc, WiFiPhaseConfig{})
	var dets []Detection
	det.analyzePeak(Peak{Span: span}, func(it flowgraph.Item) { dets = append(dets, it.(Detection)) })
	if len(dets) == 0 {
		t.Fatal("PLCP header not detected")
	}
	var fwd iq.Tick
	for _, d := range dets {
		fwd += d.Span.Len()
	}
	plcp := iq.Tick(wifi.PLCPBits * wifi.SymbolSPS) // 1536 samples
	if fwd < plcp/2 || fwd > 3*plcp {
		t.Errorf("forwarded %d samples, want ~%d (header only)", fwd, plcp)
	}
}

func TestWiFiPhaseRejectsGFSK(t *testing.T) {
	mod := bluetooth.NewModulator()
	bits := make([]byte, 500)
	r := dsp.NewRand(1)
	for i := range bits {
		bits[i] = byte(r.Uint64() & 1)
	}
	burst := mod.ModulateBits(bits, 0, 3)
	ch := phy.Channel{SNRdB: 20}
	ch.Apply(burst, 1, phy.SampleRate)
	stream := make(iq.Samples, 400+len(burst.Samples)+400)
	span := iq.Interval{Start: 400, End: iq.Tick(400 + len(burst.Samples))}
	stream.Add(400, burst.Samples)
	dsp.AWGN(dsp.NewRand(2), stream, 1)

	det := NewWiFiPhase(&memAccessor{s: stream}, WiFiPhaseConfig{})
	var dets []Detection
	det.analyzePeak(Peak{Span: span}, func(it flowgraph.Item) { dets = append(dets, it.(Detection)) })
	if len(dets) != 0 {
		t.Errorf("GFSK classified as DSSS: %v", dets)
	}
}

func TestWiFiPhaseRejectsNoise(t *testing.T) {
	stream := dsp.NoiseBlock(dsp.NewRand(3), 20000, 1)
	det := NewWiFiPhase(&memAccessor{s: stream}, WiFiPhaseConfig{})
	var dets []Detection
	det.analyzePeak(Peak{Span: iq.Interval{Start: 0, End: 20000}}, func(it flowgraph.Item) { dets = append(dets, it.(Detection)) })
	if len(dets) != 0 {
		t.Errorf("noise classified: %v", dets)
	}
}

func btBurstStream(t testing.TB, channel int, snrDB float64) (iq.Samples, iq.Interval) {
	t.Helper()
	mod := bluetooth.NewModulator()
	dev := bluetooth.Device{LAP: 0x9E8B33, UAP: 0x47}
	h := bluetooth.Header{LTAddr: 1, Type: bluetooth.TypeDH3}
	payload := make([]byte, 150)
	offset := (float64(channel) - 3.5) * 1e6
	burst := mod.ModulatePacket(dev, h, payload, 5, offset, channel)
	ch := phy.Channel{SNRdB: snrDB, CFOHz: -2000}
	ch.Apply(burst, 1, phy.SampleRate)
	stream := make(iq.Samples, 500+len(burst.Samples)+500)
	span := iq.Interval{Start: 500, End: iq.Tick(500 + len(burst.Samples))}
	stream.Add(500, burst.Samples)
	dsp.AWGN(dsp.NewRand(7), stream, 1)
	return stream, span
}

func TestBTPhaseDetectsGFSKAndChannel(t *testing.T) {
	for _, channel := range []int{0, 3, 7} {
		stream, span := btBurstStream(t, channel, 20)
		det := NewBTPhase(&memAccessor{s: stream}, testClock, BTPhaseConfig{})
		var dets []Detection
		det.analyzePeak(Peak{Span: span}, func(it flowgraph.Item) { dets = append(dets, it.(Detection)) })
		if len(dets) != 1 {
			t.Fatalf("ch %d: detections = %v", channel, dets)
		}
		if dets[0].Channel != channel {
			t.Errorf("channel estimate %d, want %d", dets[0].Channel, channel)
		}
		if dets[0].Family != protocols.Bluetooth {
			t.Error("family")
		}
	}
}

func TestBTPhaseRejectsDSSS(t *testing.T) {
	stream, span := wifiBurstStream(t, protocols.WiFi80211b1M, 100, 20, 400)
	det := NewBTPhase(&memAccessor{s: stream}, testClock, BTPhaseConfig{})
	var dets []Detection
	det.analyzePeak(Peak{Span: span}, func(it flowgraph.Item) { dets = append(dets, it.(Detection)) })
	if len(dets) != 0 {
		t.Errorf("DSSS classified as GFSK: %v", dets)
	}
}

func TestBTPhaseRejectsUnmodulatedCarrier(t *testing.T) {
	// A CW tone (microwave-like) has near-zero derivative variance.
	stream := make(iq.Samples, 10000)
	for i := range stream {
		ph := 2 * math.Pi * 0.02 * float64(i)
		stream[i] = complex(float32(10*math.Cos(ph)), float32(10*math.Sin(ph)))
	}
	dsp.AWGN(dsp.NewRand(8), stream, 1)
	det := NewBTPhase(&memAccessor{s: stream}, testClock, BTPhaseConfig{})
	var dets []Detection
	det.analyzePeak(Peak{Span: iq.Interval{Start: 0, End: 10000}}, func(it flowgraph.Item) { dets = append(dets, it.(Detection)) })
	if len(dets) != 0 {
		t.Errorf("CW classified as GFSK: %v", dets)
	}
}

func TestBTPhaseRejectsOverlongPeak(t *testing.T) {
	stream, _ := btBurstStream(t, 3, 20)
	det := NewBTPhase(&memAccessor{s: stream}, testClock, BTPhaseConfig{})
	var dets []Detection
	long := iq.Interval{Start: 0, End: testClock.Ticks(protocols.BTSlot) * 7}
	det.analyzePeak(Peak{Span: long}, func(it flowgraph.Item) { dets = append(dets, it.(Detection)) })
	if len(dets) != 0 {
		t.Error("7-slot peak classified as Bluetooth")
	}
}
