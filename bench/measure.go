package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef declares one metric: BENCHMARK.json must list exactly
// these (the smoke test compares the two).
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by (0 on per-layer metrics, which are not gated).
	bound float64
}

// The speed metrics carry the widest bound a driver accepts: on a
// 2-vCPU shared guest the machine itself drifts by ±10 % over tens of
// seconds (BASELINE.md), and a bound inside that drift would fail
// unchanged code. The shares repeat exactly, so their bounds are slack
// for a loaded machine, not for noise seen.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sustained_msps", "Msps", "higher", 0.25},
	{"cpu_s_per_air_s", "s/s", "lower", 0.25},
	{"packet_latency_ms_p75", "ms", "lower", 0.15},
	{"detect_on_time_share", "share", "higher", 0.05},
	{"packet_on_time_share", "share", "higher", 0.05},
	{"detected_share", "share", "higher", 0.01},
	{"decoded_share", "share", "higher", 0.01},
}

// layerFromRun are the per-layer metrics read off the end-to-end run
// from outside the program.
var layerFromRun = []metricDef{
	{name: "gen.late_ms_p99", unit: "ms", better: "lower"},
	{name: "gen.tx_busy_share", unit: "share", better: "lower"},
	{name: "runtime.allocs_per_msample", unit: "1/Msample", better: "lower"},
	{name: "runtime.gc_cpu_s_per_air_s", unit: "s/s", better: "lower"},
	{name: "runtime.heap_peak_mb", unit: "MB", better: "lower"},
	{name: "flood.cpu_s_per_air_s", unit: "s/s", better: "lower"},
	{name: "serving.detect_latency_ms_p50", unit: "ms", better: "lower"},
	{name: "serving.detect_latency_ms_p90", unit: "ms", better: "lower"},
	{name: "serving.packet_latency_ms_p50", unit: "ms", better: "lower"},
	{name: "serving.packet_latency_ms_p90", unit: "ms", better: "lower"},
	{name: "serving.sse_seq_gaps", unit: "count", better: "lower"},
	{name: "serving.query_ms_p50", unit: "ms", better: "lower"},
	{name: "serving.query_ms_p90", unit: "ms", better: "lower"},
	{name: "serving.queries", unit: "count", better: "higher"},
	{name: "serving.query_errors", unit: "count", better: "lower"},
	{name: "history.bytes_per_air_s", unit: "B/s", better: "lower"},
	{name: "cluster.hop_latency_ms_p50", unit: "ms", better: "lower"},
	{name: "cluster.fused_per_sighting", unit: "ratio", better: "lower"},
}

// layerFromReplay are the traced staged replay's.
var layerFromReplay = []metricDef{
	{name: "wire.tx_ns_per_sample", unit: "ns", better: "lower"},
	{name: "wire.rx_ns_per_sample", unit: "ns", better: "lower"},
	{name: "wire.frames", unit: "count", better: "lower"},
	{name: "core.peak_ns_per_sample", unit: "ns", better: "lower"},
	{name: "core.peaks", unit: "count", better: "higher"},
	{name: "core.timing_ns_per_sample", unit: "ns", better: "lower"},
	{name: "core.phase_ns_per_sample", unit: "ns", better: "lower"},
	{name: "core.detections", unit: "count", better: "higher"},
	{name: "core.session_ns_per_sample", unit: "ns", better: "lower"},
	{name: "core.unattributed_ns_per_sample", unit: "ns", better: "lower"},
	{name: "core.forwarded_share", unit: "share", better: "lower"},
	{name: "demod.wifi_ns_per_fwd_sample", unit: "ns", better: "lower"},
	{name: "demod.bt_ns_per_fwd_sample", unit: "ns", better: "lower"},
	{name: "demod.packets", unit: "count", better: "higher"},
	{name: "demod.crc_ok_share", unit: "share", better: "higher"},
	{name: "server.hub_ns_per_record", unit: "ns", better: "lower"},
	{name: "history.mem_append_ns", unit: "ns", better: "lower"},
	{name: "history.disk_append_ns", unit: "ns", better: "lower"},
	{name: "history.disk_snippet_append_ns", unit: "ns", better: "lower"},
	{name: "history.disk_query_page_ms", unit: "ms", better: "lower"},
	{name: "serving.publish_ns_per_event", unit: "ns", better: "lower"},
	{name: "serving.query_handler_ms", unit: "ms", better: "lower"},
	{name: "serving.sse_ns_per_event", unit: "ns", better: "lower"},
	{name: "cluster.fuse_ns_per_sighting", unit: "ns", better: "lower"},
	{name: "cluster.ledger_ns_per_sighting", unit: "ns", better: "lower"},
	{name: "cluster.merge_share", unit: "share", better: "higher"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
}

var perLayer = append(append([]metricDef(nil), layerFromRun...), layerFromReplay...)

// report is one run's outcome.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	// failures are correctness-gate violations (the run is incorrect);
	// warnings are printed beside the numbers and fail nothing.
	failures []string
	warnings []string
}

func (r *report) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) warnf(format string, args ...any) {
	r.warnings = append(r.warnings, fmt.Sprintf(format, args...))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by nearest rank (0 when empty).
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// sighting is what the feeds said about one measured transmission.
type sighting struct {
	window   int // which measured window its last sample falls in
	due      time.Time
	detAt    time.Time // first detection on the measured feed (root's on the tree)
	leafAt   time.Time // tree: first detection on leaf s0's feed
	pktAt    time.Time // first valid packet
	detCount int       // "detection" events covering it on the measured feed
}

// windowStats collects one measured window's outcomes.
type windowStats struct {
	n, detOnTime, pktOnTime int
	detLat, pktLat          []float64
}

// median returns the middle of xs (the upper one of an even count; 0
// when empty) without disturbing xs.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// analyze turns the raw record into every metric the end-to-end run can
// give, and applies the correctness gate.
//
// Every paced-phase figure a user would gate on is taken per measured
// window — one loop of the base trace, so each window carries the same
// traffic — and reported as the median over the windows; likewise the
// flood's throughput over its whole seconds. A neighbour's burst on a
// shared machine spoils a window or two, not the run.
func analyze(d *e2eData) *report {
	r := &report{values: make(map[string]float64)}
	// Every metric is reported on every workload: the ones a workload has
	// no tier for (pager, store, tree) read 0.
	for _, m := range layerFromRun {
		r.values[m.name] = 0
	}
	costMetrics(d, r)
	twice := truthMetrics(d, r)
	gate(d, r, twice)
	return r
}

// span returns the measured part of P in samples: its first sample, one
// window's length, and one past its last sample.
func (s schedule) span() (from, window, to int64) {
	window = int64(s.windowFrames) * frameSamples
	from = int64(s.warmFrames) * frameSamples
	return from, window, from + int64(s.windows)*window
}

// costMetrics fills what the run cost: set-up, CPU, allocation, flood
// throughput, and how well the generator held its schedule.
func costMetrics(d *e2eData, r *report) {
	v, s := r.values, d.sched
	marks := d.tx[0].marks
	pStart, pEnd := marks[0], marks[len(marks)-1]
	// Both sensors of the tree hear the same air, so one ether second is
	// one second whatever the sensor count.
	from, window, to := s.span()
	airWin := float64(window) / airRate
	var fSamples int64
	for _, tx := range d.tx {
		fSamples += tx.fSamples
	}

	v["setup_s"] = median(d.setups)
	var cpu []float64
	for k := 0; k < s.windows; k++ {
		cpu = append(cpu, (marks[k+1].cpu-marks[k].cpu).Seconds()/airWin)
	}
	v["cpu_s_per_air_s"] = median(cpu)
	v["runtime.gc_cpu_s_per_air_s"] = (pEnd.gcCPU - pStart.gcCPU) / (airWin * float64(s.windows))
	v["runtime.allocs_per_msample"] = float64(d.fEnd.allocs-pEnd.allocs) / (float64(fSamples) / 1e6)
	v["runtime.heap_peak_mb"] = float64(d.heapPeak) / 1e6
	v["flood.cpu_s_per_air_s"] = (d.fEnd.cpu - pEnd.cpu).Seconds() / (float64(d.tx[0].fSamples) / airRate)

	// Flood throughput: samples the sockets accepted in each whole
	// second, summed over sensors. TCP back-pressure holds a sender to
	// the pipeline's pace to within a socket buffer; the first second,
	// which fills that buffer, is left out when there are others.
	var rates []float64
	for k := 1; ; k++ {
		rate, all := 0.0, true
		for _, tx := range d.tx {
			if k >= len(tx.ticks) {
				all = false
				break
			}
			a, b := tx.ticks[k-1], tx.ticks[k]
			rate += float64(b.frames-a.frames) * frameSamples / 1e6 / b.at.Sub(a.at).Seconds()
		}
		if !all {
			break
		}
		rates = append(rates, rate)
	}
	if len(rates) > 1 {
		rates = rates[1:]
	}
	if len(rates) == 0 { // a flood shorter than a second: the whole of it
		rates = []float64{float64(fSamples) / 1e6 / s.fDur.Seconds()}
	}
	v["sustained_msps"] = median(rates)

	var late []float64
	var busy time.Duration
	for _, tx := range d.tx {
		for _, l := range tx.late {
			late = append(late, ms(l))
		}
		busy += tx.busy
	}
	v["gen.late_ms_p99"] = quantile(late, 0.99)
	v["gen.tx_busy_share"] = busy.Seconds() / float64(len(d.tx)) / (float64(to-from) / float64(s.paceRate))
	if v["gen.late_ms_p99"] > 100 {
		r.warnf("generator ran late: gen.late_ms_p99 = %.1f ms; latencies include the generator's own stall", v["gen.late_ms_p99"])
	}

	var qms []float64
	for _, l := range d.pager.latency {
		qms = append(qms, ms(l))
	}
	v["serving.query_ms_p50"] = quantile(qms, 0.50)
	v["serving.query_ms_p90"] = quantile(qms, 0.90)
	v["serving.queries"] = float64(d.pager.queries)
	v["serving.query_errors"] = float64(d.pager.errors)
	if d.w.dvr {
		totalAir := float64(int64(d.tx[0].totalFrames)*frameSamples) / airRate
		v["history.bytes_per_air_s"] = float64(d.storeBytes) / totalAir
	}
}

// truthMetrics holds the feeds against ground truth: every clean
// transmission whose last sample was sent in a measured window, timed
// from when the frame carrying that sample was due. It returns how many
// of them the measured feed reported in more than one detection event.
func truthMetrics(d *e2eData, r *report) (twice int) {
	v, s := r.values, d.sched
	from, window, to := s.span()
	sight := make(map[instance]*sighting)
	for _, in := range d.truth.window(from, to) {
		last := d.truth.end(in) - 1
		sight[in] = &sighting{window: int((last - from) / window), due: s.dueOfSample(last)}
	}
	first := func(at *time.Time, t time.Time) {
		if at.IsZero() {
			*at = t
		}
	}
	measured := d.leaf[0]
	if d.root != nil {
		measured = d.root
	}
	perWindow := make([]int, s.windows) // detections starting in each window
	for _, ev := range measured.events {
		if ev.typ != "detection" {
			continue
		}
		if ev.start >= from && ev.start < to {
			perWindow[(ev.start-from)/window]++
		}
		d.truth.overlapping(ev.family, ev.start, ev.end, func(in instance) {
			if sg := sight[in]; sg != nil {
				first(&sg.detAt, ev.at)
				sg.detCount++
			}
		})
	}
	for _, ev := range d.leaf[0].events {
		switch {
		case ev.typ == "packet" && ev.valid:
			d.truth.overlapping("", ev.start, ev.end, func(in instance) {
				if sg := sight[in]; sg != nil {
					first(&sg.pktAt, ev.at)
				}
			})
		case ev.typ == "detection" && d.root != nil:
			d.truth.overlapping(ev.family, ev.start, ev.end, func(in instance) {
				if sg := sight[in]; sg != nil {
					first(&sg.leafAt, ev.at)
				}
			})
		}
	}

	onTime := func(samples int64) time.Duration {
		return time.Duration(samples * int64(time.Second) / int64(s.paceRate))
	}
	detectOnTime, packetOnTime := onTime(detectOnTimeSamples), onTime(packetOnTimeSamples)
	wins := make([]windowStats, s.windows)
	var hop []float64
	var detected, decoded int
	for _, sg := range sight {
		w := &wins[sg.window]
		w.n++
		if !sg.detAt.IsZero() {
			detected++
			l := sg.detAt.Sub(sg.due)
			w.detLat = append(w.detLat, ms(l))
			if l <= detectOnTime {
				w.detOnTime++
			}
			if !sg.leafAt.IsZero() {
				hop = append(hop, ms(sg.detAt.Sub(sg.leafAt)))
			}
		}
		if !sg.pktAt.IsZero() {
			decoded++
			l := sg.pktAt.Sub(sg.due)
			w.pktLat = append(w.pktLat, ms(l))
			if l <= packetOnTime {
				w.pktOnTime++
			}
		}
		if sg.detCount > 1 {
			twice++
		}
	}
	r.attempted, r.failed = len(sight), len(sight)-detected
	if n := float64(len(sight)); n > 0 {
		v["detected_share"] = float64(detected) / n
		v["decoded_share"] = float64(decoded) / n
	}
	overWindows := func(f func(w *windowStats) float64) float64 {
		var xs []float64
		for i := range wins {
			if wins[i].n > 0 {
				xs = append(xs, f(&wins[i]))
			}
		}
		return median(xs)
	}
	v["detect_on_time_share"] = overWindows(func(w *windowStats) float64 { return float64(w.detOnTime) / float64(w.n) })
	v["packet_on_time_share"] = overWindows(func(w *windowStats) float64 { return float64(w.pktOnTime) / float64(w.n) })
	v["packet_latency_ms_p75"] = overWindows(func(w *windowStats) float64 { return quantile(w.pktLat, 0.75) })
	v["serving.packet_latency_ms_p90"] = overWindows(func(w *windowStats) float64 { return quantile(w.pktLat, 0.90) })
	v["serving.packet_latency_ms_p50"] = overWindows(func(w *windowStats) float64 { return quantile(w.pktLat, 0.50) })
	v["serving.detect_latency_ms_p50"] = overWindows(func(w *windowStats) float64 { return quantile(w.detLat, 0.50) })
	v["serving.detect_latency_ms_p90"] = overWindows(func(w *windowStats) float64 { return quantile(w.detLat, 0.90) })
	v["cluster.hop_latency_ms_p50"] = quantile(hop, 0.50)

	// Looping should be periodic: every window is one loop of the base
	// trace and should yield the same number of detections.
	for _, n := range perWindow {
		if n != perWindow[0] {
			r.warnf("detections per measured window vary, though each is one loop of the same trace: %v", perWindow)
			break
		}
	}
	return twice
}

// gate applies the correctness checks that need no ground truth: drops,
// clean stream ends, ledger arithmetic, ordering, exactly-once.
func gate(d *e2eData, r *report, twice int) {
	v := r.values
	v["serving.sse_seq_gaps"] = float64(d.droppedAtPEnd)
	if d.droppedAtPEnd != 0 {
		r.failf("%d live-feed events were dropped during the paced phase", d.droppedAtPEnd)
	}
	if d.droppedAtEnd > d.droppedAtPEnd {
		r.warnf("%d live-feed events dropped during the flood phase (reported, not fatal)", d.droppedAtEnd-d.droppedAtPEnd)
	}
	if r.attempted == 0 {
		r.failf("no ground-truth transmission fell in the measured windows")
	}
	if v["detected_share"] < 0.9 || v["decoded_share"] < 0.8 {
		r.failf("monitor lost the ether: detected %.3f, decoded %.3f of %d clean transmissions",
			v["detected_share"], v["decoded_share"], r.attempted)
	}
	// ordered counts a feed's sequenced events, failing the run if their
	// sequence numbers do not strictly increase.
	ordered := func(fd *feed, counts func(received) bool) (n int64) {
		var last uint64
		for _, ev := range fd.events {
			if ev.seq == 0 {
				continue // node-up/node-down edges carry no seq
			}
			if ev.seq <= last {
				r.failf("%s: event seq %d after %d: the feed reordered or repeated", fd.name, ev.seq, last)
				break
			}
			last = ev.seq
			if counts(ev) {
				n++
			}
		}
		return n
	}
	var leafDet int64
	for i, l := range d.ledgers {
		fd := d.leaf[i]
		sent := int64(d.tx[i].totalFrames) * frameSamples
		if l.Error != "" || fd.closeErr != "" || !l.Wire.CleanEnd || l.Wire.Samples != sent {
			r.failf("%s: stream ended badly: ledger error %q, close error %q, clean_end %v, %d of %d samples delivered",
				fd.name, l.Error, fd.closeErr, l.Wire.CleanEnd, l.Wire.Samples, sent)
		}
		got := ordered(fd, func(ev received) bool { return ev.typ == "detection" || ev.typ == "packet" })
		leafDet += l.Detections
		// Everything in the ledger was either received or counted as
		// dropped. On a node the bench is the only subscriber, so the
		// arithmetic is exact; a tree leaf also feeds the mid
		// aggregator, whose drops share the counter.
		missing := l.Detections + l.Packets - got
		if missing < 0 || missing > d.droppedAtEnd || (!d.w.tree && missing != d.droppedAtEnd) {
			r.failf("%s: ledger has %d detections + %d packets, feed delivered %d, brokers dropped %d",
				fd.name, l.Detections, l.Packets, got, d.droppedAtEnd)
		}
	}
	if d.root != nil {
		records := ordered(d.root, func(received) bool { return true })
		if leafDet > 0 {
			v["cluster.fused_per_sighting"] = float64(records) / float64(leafDet)
		}
		if twice > 0 {
			r.failf("exactly-once broken: %d of %d transmissions were reported more than once at the root", twice, r.attempted)
		}
	}
}
