package experiments

import (
	"fmt"
	"strings"
	"time"

	"rfdump/internal/arch"
	"rfdump/internal/core"
	"rfdump/internal/demod"
	"rfdump/internal/iq"
	"rfdump/internal/protocols"
	"rfdump/internal/report"
	"rfdump/internal/truth"
)

// Scorecard runs a fast, self-verifying pass over the paper's headline
// claims and reports PASS/FAIL per claim — the one-command answer to
// "does this reproduction still reproduce?". It uses small workloads
// (seconds, not minutes) and asserts the *shapes*, exactly as
// EXPERIMENTS.md defines them.
func Scorecard(o Options) (*report.Table, error) {
	o = o.normalize()
	if o.Scale > 0.2 {
		o.Scale = 0.2 // the scorecard is meant to be quick
	}

	t := &report.Table{
		Title:   "Reproduction scorecard (paper claim -> quick check)",
		Headers: []string{"claim", "evidence", "verdict"},
	}
	pass := func(claim, evidence string, ok bool) {
		verdict := "PASS"
		if !ok {
			verdict = "FAIL"
		}
		t.AddRow(claim, evidence, verdict)
	}

	// --- Claim 1 (Table 1): detection is far cheaper than demodulation.
	uni, err := unicastTrace(o, 20, o.scaled(60, 8), 38_000, protocols.WiFi80211b1M)
	if err != nil {
		return nil, err
	}
	det := arch.NewRFDump("det", uni.Clock, core.TimingAndPhase())
	outDet, err := det.Process(uni.Samples)
	if err != nil {
		return nil, err
	}
	// The CPU claims (this one and Fig 9's below) time each monitor in
	// process CPU per pass (cpuPerCall), not with the blocks' wall-clock
	// timers.
	cpuOf := func(m arch.Monitor) (time.Duration, error) {
		var err error
		d := cpuPerCall(func() { _, err = m.Process(uni.Samples) })
		return d, err
	}
	cpuDet, err := cpuOf(det)
	if err != nil {
		return nil, err
	}
	cpuNaive, err := cpuOf(arch.NewNaive(uni.Clock, demod.NewWiFiDemod(), demod.NewBTDemod(PiconetLAP, PiconetUAP, 8)))
	if err != nil {
		return nil, err
	}
	ratio := float64(cpuNaive) / float64(cpuDet)
	pass("detection ≪ demodulation (Table 1)",
		fmt.Sprintf("naive/detect CPU = %.1fx", ratio), ratio > 4)

	// --- Claim 2 (Figs 6/7): 802.11 detectors ~perfect at high SNR.
	stT := truth.Match(uni.Truth, outDet.TruthDetections(), protocols.WiFi80211b1M)
	pass("802.11 detectors ≈0 miss at high SNR (Figs 6-7)",
		fmt.Sprintf("miss %.4f over %d pkts", stT.MissRateNonCollided(), stT.TotalNonCollided),
		stT.MissRateNonCollided() < 0.02)

	// And degraded at low SNR.
	low, err := unicastTrace(o, 0, o.scaled(30, 6), 38_000, protocols.WiFi80211b1M)
	if err != nil {
		return nil, err
	}
	detLow := arch.NewRFDump("det", low.Clock, core.TimingAndPhase())
	outLow, err := detLow.Process(low.Samples)
	if err != nil {
		return nil, err
	}
	stLow := truth.Match(low.Truth, outLow.TruthDetections(), protocols.WiFi80211b1M)
	pass("miss rate rises below the SNR knee (Figs 6-8)",
		fmt.Sprintf("miss %.2f at 0 dB", stLow.MissRate()),
		stLow.MissRate() > stT.MissRateNonCollided()+0.05)

	// --- Claim 3 (Fig 8): Bluetooth detectors work; timing misses the
	// session's first packet.
	bt, err := bluetoothTrace(o, 20, o.scaled(600, 60))
	if err != nil {
		return nil, err
	}
	btMon := arch.NewRFDump("bt", bt.Clock, core.PhaseOnly())
	outBT, err := btMon.Process(bt.Samples)
	if err != nil {
		return nil, err
	}
	stBT := truth.Match(bt.Truth, outBT.TruthDetections(), protocols.Bluetooth)
	pass("Bluetooth phase detector ≈0 miss at high SNR (Fig 8)",
		fmt.Sprintf("miss %.4f over %d audible", stBT.MissRate(), stBT.Total),
		stBT.MissRate() < 0.05)

	// --- Claim 4 (Fig 9): RFDump with demod beats the naive baselines.
	rf := arch.NewRFDump("rf", uni.Clock, core.TimingOnly(),
		demod.NewWiFiDemod(), demod.NewBTDemod(PiconetLAP, PiconetUAP, 8))
	outRF, err := rf.Process(uni.Samples)
	if err != nil {
		return nil, err
	}
	cpuRF, err := cpuOf(rf)
	if err != nil {
		return nil, err
	}
	cpuNE, err := cpuOf(arch.NewNaiveEnergy(uni.Clock, true, demod.NewWiFiDemod(), demod.NewBTDemod(PiconetLAP, PiconetUAP, 8)))
	if err != nil {
		return nil, err
	}
	rt := float64(uni.Clock.Duration(iq.Tick(len(uni.Samples))))
	pass("RFDump < naive+energy < naive in CPU (Fig 9)",
		fmt.Sprintf("%.2fx < %.2fx < %.2fx", float64(cpuRF)/rt, float64(cpuNE)/rt, float64(cpuNaive)/rt),
		cpuRF < cpuNE && cpuNE < cpuNaive)

	// --- Claim 5: demodulators recover frames bit-exactly through the
	// full pipeline (the substrate is sound).
	valid := 0
	for _, p := range outRF.Packets {
		if p.Valid {
			valid++
		}
	}
	want := uni.Truth.VisibleCount(protocols.WiFi80211b1M)
	pass("frames decode bit-exactly end to end",
		fmt.Sprintf("%d valid of %d transmitted", valid, want),
		valid >= want*8/10)

	// --- Claim 6 (extension): OFDM classified, never confused with DSSS.
	ofdmFig, err := ExtensionOFDM(Options{Seed: o.Seed, Scale: o.Scale, SNRs: []float64{20}})
	if err != nil {
		return nil, err
	}
	ofdmMiss := ofdmFig.Series[0].Y[0]
	crossNote := ""
	if len(ofdmFig.Notes) > 0 {
		crossNote = ofdmFig.Notes[0]
	}
	pass("OFDM detector works at high SNR (extension)",
		fmt.Sprintf("miss %.4f; %s", ofdmMiss, shorten(crossNote, 40)),
		ofdmMiss < 0.05)

	return t, nil
}

func shorten(s string, n int) string {
	s = strings.TrimSpace(s)
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
