package main

import (
	"fmt"
	"sort"
	"time"

	"rfdump/internal/ether"
	"rfdump/internal/experiments"
	"rfdump/internal/iq"
	"rfdump/internal/mac"
	"rfdump/internal/protocols"
)

// Fixed sizes. Rates and sizes are constants, never derived from a
// measured speed and never scaled by core count: two commits (and two
// machines) run the same offered load.
const (
	airRate      = iq.DefaultSampleRate // 8 Msps: one second of air
	frameSamples = 4096                 // wire.DefaultFrameSamples
	// queryRate is the node-dvr pager's fixed schedule, under the
	// daemon's default 20 rps quota.
	queryRate = 16
	queryPage = 200
	// On-time limits, in samples of the paced stream: an event counts as
	// on time when it is received before the transmitter was due to have
	// sent this many more samples after the burst's last one. At 8 Msps
	// that is 25 ms for a detection and 50 ms for a packet; a workload
	// paced slower stretches the limit as it stretches the air.
	detectOnTimeSamples = 200_000
	packetOnTimeSamples = 400_000
)

// workload is one traffic mix plus the tiers it runs through.
type workload struct {
	name string
	// why goes to BENCHMARK.json and the README: the reason the
	// workload exists.
	why string
	// dense selects the ≈64 % busy ether; otherwise ≈9 % (the paper's
	// campus trace is sparse like that).
	dense bool
	// paceRate is the P-phase rate per sensor in samples per second of
	// wall time. Dense traffic is paced at a quarter of real time: one
	// core cannot hold it at 8 Msps, and even at half (≈ 60 % of the
	// session goroutine) every hiccup of a shared machine queues up, so
	// the latency tail measured the neighbours, not the program.
	paceRate int
	// baseFrames sizes the base trace in whole wire frames, so a frame
	// never straddles the loop seam: ≈ 1 s of air for the sparse ether,
	// ≈ 0.5 s for the dense one (as many bursts in a third of the air,
	// and a measured window — one loop — stays 1–2 s of wall time).
	baseFrames int
	// dvr adds the disk store, IQ capture and the paging querier.
	dvr bool
	// tree renders two sensors and stacks mid and root aggregators.
	tree bool
}

const (
	sparseFrames = 1953
	denseFrames  = 976
)

var workloads = []workload{
	{
		name:       "node-sparse",
		why:        "one rfdumpd, 9% busy ether at 8 Msps: every sample crosses wire and peak detection, under a tenth reaches demod",
		paceRate:   airRate,
		baseFrames: sparseFrames,
	},
	{
		name:       "node-dense",
		why:        "one rfdumpd, 64% busy ether at 2 Msps: phase detectors and demod dominate, wire is under a tenth",
		dense:      true,
		paceRate:   airRate / 4,
		baseFrames: denseFrames,
	},
	{
		name:       "node-dvr",
		why:        "node-dense plus disk store, IQ capture and a 16 q/s history pager: appends beside reads in history and serving",
		dense:      true,
		paceRate:   airRate / 4,
		baseFrames: denseFrames,
		dvr:        true,
	},
	{
		name:       "tree-2level",
		why:        "sparse ether at two sensors through two rfdumpd, a mid and a root rfdumpc: the only work of manager, fuser and ledger",
		paceRate:   airRate,
		baseFrames: sparseFrames,
		tree:       true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale sizes one run. The defaults come from -seconds; the smoke test
// shrinks everything.
type scale struct {
	// baseFrames, when non-zero, overrides the workload's base trace
	// length.
	baseFrames int
	// warmup is P-phase wall time sent before measuring starts; pDur
	// the measured paced phase, fDur the unpaced flood that follows.
	warmup, pDur, fDur time.Duration
	// setups is how many times the tiers are rendered and stood up
	// (setup_s is the median; the last one is used).
	setups int
}

func defaultScale(seconds int) scale {
	half := time.Duration(seconds) * time.Second / 2
	return scale{warmup: 2 * time.Second, pDur: half, fDur: half, setups: 3}
}

func addr(b byte) (a [6]byte) {
	for i := range a {
		a[i] = b
	}
	return
}

// render makes the workload's base trace: one over-the-air reality
// heard at one sensor, or at two for the tree (the far one 3 dB weaker
// on a clock 24 ticks askew). The seed goes to the emulator; the
// program under test only ever receives the samples.
func render(w workload, seed uint64, frames int) (*ether.MultiResult, error) {
	interPing, slots := iq.Tick(800_000), 400
	if w.dense {
		interPing, slots = 38_000, 20
	}
	sensors := []ether.Sensor{{Name: "s0"}}
	if w.tree {
		sensors = append(sensors, ether.Sensor{Name: "s1", PathLossdB: 3, ClockSkew: 24})
	}
	return ether.RunSensors(ether.Config{
		Duration: iq.Tick(frames * frameSamples),
		SNRdB:    20,
		Seed:     seed,
		Sources: []mac.Source{
			&mac.WiFiUnicast{
				Rate: protocols.WiFi80211b1M, Pings: 1 << 20,
				PayloadBytes: 500, InterPing: interPing,
				Requester: addr(0x11), Responder: addr(0x22), BSSID: addr(0x33),
				CFOHz: 2500,
			},
			&mac.BluetoothPiconet{
				LAP: experiments.PiconetLAP, UAP: experiments.PiconetUAP,
				Pings: 1 << 20, InterPingSlots: slots, CFOHz: -900,
			},
		},
	}, sensors)
}

// burst is one ground-truth transmission of the base trace that a
// monitor can be held to: inside the band and not collided (the
// detectors have no collision handling; the paper discounts collided
// packets the same way, §5.1.5).
type burst struct {
	family     string
	start, end int64
}

// truthIndex answers "which transmission does this span cover" for a
// looped base trace: loop k replays the base truth shifted by k·length.
type truthIndex struct {
	length int64
	bursts []burst // ascending start, non-overlapping
}

func newTruthIndex(m *ether.MultiResult) *truthIndex {
	ti := &truthIndex{length: int64(m.Truth.TraceLen)}
	for _, r := range m.Truth.Records {
		if r.Visible && !r.Collided {
			ti.bursts = append(ti.bursts, burst{
				family: r.Proto.FamilyName(),
				start:  int64(r.Span.Start), end: int64(r.Span.End),
			})
		}
	}
	sort.Slice(ti.bursts, func(i, j int) bool { return ti.bursts[i].start < ti.bursts[j].start })
	return ti
}

// instance names one transmission of the looped stream.
type instance struct{ loop, idx int }

// end returns the absolute sample one past the instance's last.
func (ti *truthIndex) end(in instance) int64 {
	return int64(in.loop)*ti.length + ti.bursts[in.idx].end
}

// overlapping calls fn for every instance the absolute span [start,
// end) overlaps, family-filtered when family is non-empty (the
// truth.Match rule: same family, spans overlap).
func (ti *truthIndex) overlapping(family string, start, end int64, fn func(instance)) {
	if end <= start || start < 0 {
		return
	}
	for loop := start / ti.length; loop <= (end-1)/ti.length; loop++ {
		off := loop * ti.length
		lo, hi := start-off, end-off
		i := sort.Search(len(ti.bursts), func(i int) bool { return ti.bursts[i].end > lo })
		for ; i < len(ti.bursts) && ti.bursts[i].start < hi; i++ {
			if family == "" || ti.bursts[i].family == family {
				fn(instance{int(loop), i})
			}
		}
	}
}

// window lists the instances whose last sample falls in the absolute
// sample range (from, to].
func (ti *truthIndex) window(from, to int64) []instance {
	var out []instance
	for loop := from / ti.length; loop <= to/ti.length; loop++ {
		for i := range ti.bursts {
			if e := loop*ti.length + ti.bursts[i].end; e > from && e <= to {
				out = append(out, instance{int(loop), i})
			}
		}
	}
	return out
}

func (w workload) String() string {
	return fmt.Sprintf("%s (pace %.0f Msps, dense=%v dvr=%v tree=%v)",
		w.name, float64(w.paceRate)/1e6, w.dense, w.dvr, w.tree)
}
