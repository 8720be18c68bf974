package experiments

import (
	"fmt"

	"rfdump/internal/arch"
	"rfdump/internal/core"
	"rfdump/internal/demod"
	"rfdump/internal/ether"
	"rfdump/internal/flowgraph"
	"rfdump/internal/iq"
	"rfdump/internal/mac"
	"rfdump/internal/protocols"
	"rfdump/internal/report"
)

// Table1 reproduces the per-block cost table: CPU time / real time for
// 802.11 demodulation, Bluetooth demodulation (one channel, as GNU Radio
// blocks are per-channel), and peak/energy detection, over a ~50%
// utilization stream (paper: 0.6 / 0.7 / 0.05 on a 2.13 GHz Core 2 Duo).
// Each row is process CPU time (cpuPerCall), not wall time, so a
// descheduled moment on a shared machine does not inflate one row.
func Table1(o Options) (*report.Table, error) {
	o = o.normalize()
	// A half-busy trace: unicast pings back to back.
	dur := iq.Tick(float64(4_000_000) * o.Scale) // 0.5 s at scale 1
	if dur < 400_000 {
		dur = 400_000
	}
	res, err := ether.Run(ether.Config{
		Duration: dur,
		SNRdB:    20,
		Seed:     o.Seed,
		Sources: []mac.Source{
			&mac.WiFiUnicast{
				Rate: protocols.WiFi80211b1M, Pings: 1 << 20,
				PayloadBytes: 500, InterPing: 38_000, // ~50% utilization
				Requester: addr(0x11), Responder: addr(0x22), BSSID: addr(0x33),
			},
		},
	})
	if err != nil {
		return nil, err
	}
	rt := res.Clock.Duration(iq.Tick(len(res.Samples)))

	measure := func(fn func()) float64 {
		return float64(cpuPerCall(fn)) / float64(rt)
	}

	t := &report.Table{
		Title:   "Table 1: Time taken by some blocks (CPU time / real time)",
		Headers: []string{"GNU Radio Block (equivalent)", "CPU time / Real time"},
	}

	wifiD := demod.NewWiFiDemod()
	t.AddRow("802.11 demodulation (1 Mbps)", measure(func() {
		wifiD.Demodulate(res.Samples, 0)
	}))

	btD := demod.NewBTDemod(PiconetLAP, PiconetUAP, 8)
	t.AddRow("Bluetooth demodulation (one channel)", measure(func() {
		btD.DemodulateChannel(res.Samples, 0, 3)
	}))

	t.AddRow("Peak/Energy detection", measure(func() {
		pd := core.NewPeakDetector(core.PeakConfig{})
		drain := func(flowgraph.Item) {}
		n := len(res.Samples)
		for s := 0; s < n; s += iq.ChunkSamples {
			e := s + iq.ChunkSamples
			if e > n {
				e = n
			}
			_ = pd.Process(core.Chunk{
				Seq:     s / iq.ChunkSamples,
				Span:    iq.Interval{Start: iq.Tick(s), End: iq.Tick(e)},
				Samples: res.Samples[s:e],
			}, drain)
		}
		_ = pd.Flush(drain)
	}))

	t.Notes = append(t.Notes,
		fmt.Sprintf("trace: %.0f ms at %.0f%% medium utilization, single core", float64(rt)/1e6, 100*res.Utilization()),
		"process CPU time of the cheapest pass over 3 batches of at least 50 ms CPU each",
		"expected shape: each demodulator >= 10x the cost of peak/energy detection")
	return t, nil
}

// figure9Configs builds the nine architecture configurations of Figure 9.
// Fresh analyzer instances per configuration keep scratch state isolated.
func figure9Configs(clock iq.Clock) []arch.Monitor {
	newAnalyzers := func() []core.Analyzer {
		return []core.Analyzer{
			demod.NewWiFiDemod(),
			demod.NewBTDemod(PiconetLAP, PiconetUAP, 8),
		}
	}
	return []arch.Monitor{
		arch.NewNaive(clock, newAnalyzers()...),
		arch.NewNaiveEnergy(clock, true, newAnalyzers()...),
		arch.NewNaiveEnergy(clock, false),
		arch.NewRFDump("RFDump timing", clock, core.TimingOnly(), newAnalyzers()...),
		arch.NewRFDump("RFDump phase", clock, core.PhaseOnly(), newAnalyzers()...),
		arch.NewRFDump("RFDump timing+phase", clock, core.TimingAndPhase(), newAnalyzers()...),
		arch.NewRFDump("RFDump timing nodemod", clock, core.TimingOnly()),
		arch.NewRFDump("RFDump phase nodemod", clock, core.PhaseOnly()),
		arch.NewRFDump("RFDump timing+phase nodemod", clock, core.TimingAndPhase()),
	}
}

// Figure9 reproduces the efficiency comparison: CPU time / real time vs
// medium utilization for the nine configurations (paper: naive flat at
// ~7x; naive+energy approaching it as utilization grows; RFDump 2-3x
// cheaper than naive+energy; detection-only far below real time).
func Figure9(o Options) (*report.Figure, error) {
	o = o.normalize()
	fig := &report.Figure{
		Title:  "Figure 9: Efficiency of detectors/demodulators vs medium utilization",
		XLabel: "medium utilization (%)",
		YLabel: "CPU time / real time",
	}
	dur := iq.Tick(float64(2_400_000) * o.Scale) // 300 ms at scale 1
	if dur < 400_000 {
		dur = 400_000
	}
	// Inter-ping spacings chosen to sweep utilization; 0 gives ~93%.
	gaps := []iq.Tick{2_000_000, 640_000, 160_000, 64_000, 24_000, 8_000, 0}
	for _, gap := range gaps {
		res, err := ether.Run(ether.Config{
			Duration: dur,
			SNRdB:    20,
			Seed:     o.Seed + iq.DefaultSampleRate,
			Sources: []mac.Source{
				&mac.WiFiUnicast{
					Rate: protocols.WiFi80211b1M, Pings: 1 << 20,
					PayloadBytes: 500, InterPing: gap,
					Requester: addr(0x11), Responder: addr(0x22), BSSID: addr(0x33),
					CFOHz: 1500,
				},
			},
		})
		if err != nil {
			return nil, err
		}
		util := 100 * res.Utilization()
		for _, mon := range figure9Configs(res.Clock) {
			out, err := mon.Process(res.Samples)
			if err != nil {
				return nil, fmt.Errorf("fig9 %s: %w", mon.Name(), err)
			}
			fig.Add(mon.Name(), util, out.CPUPerRealTime())
			o.logf("fig9 util=%.0f%% %s: %.2fx", util, mon.Name(), out.CPUPerRealTime())
		}
	}
	fig.Notes = append(fig.Notes,
		"1 x 802.11 (1 Mbps) demodulator + 8 Bluetooth channel demodulators, single core",
		fmt.Sprintf("trace length %.0f ms per point", float64(dur)/8000))
	return fig, nil
}
