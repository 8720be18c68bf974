package arch

import (
	"reflect"
	"testing"

	"rfdump/internal/core"
	"rfdump/internal/demod"
	"rfdump/internal/ether"
	"rfdump/internal/iq"
	"rfdump/internal/mac"
	"rfdump/internal/protocols"
	"rfdump/internal/truth"
)

const (
	testLAP = 0x9E8B33
	testUAP = 0x47
)

func unicastTrace(t *testing.T, snrDB float64, pings int) *ether.Result {
	t.Helper()
	clock := iq.NewClock(0)
	res, err := ether.Run(ether.Config{
		Duration: iq.Tick(clock.Rate / 2), // 500 ms
		SNRdB:    snrDB,
		Seed:     42,
		Sources: []mac.Source{
			&mac.WiFiUnicast{
				Rate:         protocols.WiFi80211b1M,
				Pings:        pings,
				PayloadBytes: 500,
				InterPing:    8000,
				Requester:    addr(1),
				Responder:    addr(2),
				BSSID:        addr(3),
				CFOHz:        2500,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func addr(b byte) (a [6]byte) {
	for i := range a {
		a[i] = b
	}
	return
}

func TestRFDumpTimingOnUnicast(t *testing.T) {
	res := unicastTrace(t, 20, 12) // 48 packets
	clock := res.Clock
	mon := NewRFDump("rfdump-timing", clock, core.TimingOnly())
	out, err := mon.Process(res.Samples)
	if err != nil {
		t.Fatal(err)
	}
	st := truth.Match(res.Truth, out.TruthDetections(), protocols.WiFi80211b1M)
	if st.Total == 0 {
		t.Fatal("no ground-truth packets")
	}
	if miss := st.MissRateNonCollided(); miss > 0.02 {
		t.Errorf("SIFS timing miss rate %.3f at 20 dB, want ~0 (found %d/%d)",
			miss, st.Found, st.Total)
	}
	if st.FalsePosRate > 0.02 {
		t.Errorf("false positive rate %.4f too high", st.FalsePosRate)
	}
}

func TestRFDumpPhaseOnUnicast(t *testing.T) {
	res := unicastTrace(t, 20, 12)
	mon := NewRFDump("rfdump-phase", res.Clock, core.PhaseOnly())
	out, err := mon.Process(res.Samples)
	if err != nil {
		t.Fatal(err)
	}
	st := truth.Match(res.Truth, out.TruthDetections(), protocols.WiFi80211b1M)
	if miss := st.MissRateNonCollided(); miss > 0.02 {
		t.Errorf("phase miss rate %.3f at 20 dB, want ~0 (found %d/%d)", miss, st.Found, st.Total)
	}
}

func TestRFDumpWithDemodDecodesFrames(t *testing.T) {
	res := unicastTrace(t, 22, 6)
	wifiDemod := demod.NewWiFiDemod()
	mon := NewRFDump("rfdump-both", res.Clock, core.TimingAndPhase(), wifiDemod)
	out, err := mon.Process(res.Samples)
	if err != nil {
		t.Fatal(err)
	}
	valid := 0
	for _, p := range out.Packets {
		if p.Valid && p.Proto.Family() == protocols.WiFi80211b1M {
			valid++
		}
	}
	want := res.Truth.VisibleCount(protocols.WiFi80211b1M)
	if valid < want*9/10 {
		t.Errorf("decoded %d valid frames of %d transmitted", valid, want)
	}
}

func TestBluetoothPipeline(t *testing.T) {
	clock := iq.NewClock(0)
	res, err := ether.Run(ether.Config{
		Duration: iq.Tick(clock.Rate), // 1 s
		SNRdB:    20,
		Seed:     7,
		Sources: []mac.Source{
			&mac.BluetoothPiconet{
				LAP:   testLAP,
				UAP:   testUAP,
				Pings: 60,
				CFOHz: 1500,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	visible := res.Truth.VisibleCount(protocols.Bluetooth)
	if visible < 5 {
		t.Fatalf("too few visible BT packets: %d (need hop luck; adjust seed)", visible)
	}

	mon := NewRFDump("rfdump-phase", res.Clock, core.PhaseOnly())
	out, err := mon.Process(res.Samples)
	if err != nil {
		t.Fatal(err)
	}
	st := truth.Match(res.Truth, out.TruthDetections(), protocols.Bluetooth)
	if miss := st.MissRate(); miss > 0.1 {
		t.Errorf("BT phase miss %.3f at 20 dB (found %d/%d)", miss, st.Found, st.Total)
	}

	// Timing detector: misses the first packet of each session but must
	// catch the steady state.
	mon2 := NewRFDump("rfdump-timing", res.Clock, core.TimingOnly())
	out2, err := mon2.Process(res.Samples)
	if err != nil {
		t.Fatal(err)
	}
	st2 := truth.Match(res.Truth, out2.TruthDetections(), protocols.Bluetooth)
	if miss := st2.MissRate(); miss > 0.35 {
		t.Errorf("BT timing miss %.3f at 20 dB (found %d/%d)", miss, st2.Found, st2.Total)
	}

	// Full pipeline with BT demod using channel hints.
	btd := demod.NewBTDemod(testLAP, testUAP, 8)
	mon3 := NewRFDump("rfdump-both", res.Clock, core.TimingAndPhase(), btd)
	out3, err := mon3.Process(res.Samples)
	if err != nil {
		t.Fatal(err)
	}
	validBT := 0
	for _, p := range out3.Packets {
		if p.Valid && p.Proto == protocols.Bluetooth {
			validBT++
		}
	}
	if validBT < visible/2 {
		t.Errorf("decoded %d/%d visible BT packets", validBT, visible)
	}
}

func TestNaiveArchitecture(t *testing.T) {
	res := unicastTrace(t, 22, 4)
	wifiDemod := demod.NewWiFiDemod()
	btd := demod.NewBTDemod(testLAP, testUAP, 8)
	mon := NewNaive(res.Clock, wifiDemod, btd)
	out, err := mon.Process(res.Samples)
	if err != nil {
		t.Fatal(err)
	}
	st := truth.Match(res.Truth, out.PacketDetections(), protocols.WiFi80211b1M)
	if miss := st.MissRateNonCollided(); miss > 0.1 {
		t.Errorf("naive miss rate %.3f (found %d/%d)", miss, st.Found, st.Total)
	}
	if out.CPU <= 0 {
		t.Error("no CPU accounted")
	}
}

func TestNaiveEnergyArchitecture(t *testing.T) {
	res := unicastTrace(t, 22, 4)
	wifiDemod := demod.NewWiFiDemod()
	mon := NewNaiveEnergy(res.Clock, true, wifiDemod)
	out, err := mon.Process(res.Samples)
	if err != nil {
		t.Fatal(err)
	}
	st := truth.Match(res.Truth, out.PacketDetections(), protocols.WiFi80211b1M)
	if miss := st.MissRateNonCollided(); miss > 0.1 {
		t.Errorf("naive-energy miss rate %.3f (found %d/%d)", miss, st.Found, st.Total)
	}

	// The no-demod variant must be clearly cheaper than the demod
	// variant. (The margin was 2x when demodulation ran on the direct
	// per-sample kernels; the FFT demod path cut always-demod cost to
	// about twice the energy scan, so the gap asserted here is 20%.)
	monND := NewNaiveEnergy(res.Clock, false)
	outND, err := monND.Process(res.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if outND.CPU*5 >= out.CPU*4 {
		t.Errorf("energy-only CPU %v not well below demod CPU %v", outND.CPU, out.CPU)
	}
}

func TestRFDumpCheaperThanNaive(t *testing.T) {
	res := unicastTrace(t, 22, 8)
	wifiDemod := demod.NewWiFiDemod()
	btd := demod.NewBTDemod(testLAP, testUAP, 8)

	naive := NewNaive(res.Clock, wifiDemod, btd)
	outN, err := naive.Process(res.Samples)
	if err != nil {
		t.Fatal(err)
	}
	rf := NewRFDump("rfdump-timing", res.Clock, core.TimingOnly(), demod.NewWiFiDemod(), demod.NewBTDemod(testLAP, testUAP, 8))
	outR, err := rf.Process(res.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if outR.CPU*2 >= outN.CPU {
		t.Errorf("RFDump CPU %v not at least 2x cheaper than naive %v", outR.CPU, outN.CPU)
	}
}

// TestStreamIdleChannelMatchesBatch: with 300 ms between exchanges the
// channel is idle for longer than the session window holds (200 ms at
// 8 Msps). A request that waited for the next burst would be demodulated
// from evicted samples; flushed on stream time, the live session decodes
// exactly what the whole-trace run does.
func TestStreamIdleChannelMatchesBatch(t *testing.T) {
	res, err := ether.Run(ether.Config{
		Duration: 20_000_000,
		SNRdB:    20,
		Seed:     42,
		Sources: []mac.Source{
			&mac.WiFiUnicast{
				Rate:         protocols.WiFi80211b1M,
				Pings:        9,
				PayloadBytes: 500,
				InterPing:    2_400_000,
				Requester:    addr(1),
				Responder:    addr(2),
				BSSID:        addr(3),
				CFOHz:        2500,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	valid := func(r *core.Result, err error) []iq.Interval {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var out []iq.Interval
		for _, it := range r.Outputs {
			if p, ok := it.(demod.Packet); ok && p.Valid {
				out = append(out, p.Span)
			}
		}
		return out
	}
	pipeline := func() *core.Pipeline {
		return core.NewPipeline(res.Clock, core.TimingAndPhase(), demod.NewWiFiDemod())
	}
	batch := valid(pipeline().Run(res.Samples))
	live := valid(pipeline().RunStream(&sliceBlocks{s: res.Samples}, core.StreamConfig{WindowSamples: 1_600_000}))
	if len(batch) != 4*9 {
		t.Fatalf("whole-trace run decoded %d valid packets, want %d", len(batch), 4*9)
	}
	if !reflect.DeepEqual(live, batch) {
		t.Errorf("live session decoded %d valid packets, whole-trace run %d:\n  live  %v\n  batch %v", len(live), len(batch), live, batch)
	}
}
