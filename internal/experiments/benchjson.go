package experiments

import (
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"rfdump/internal/cluster"
	"rfdump/internal/core"
	"rfdump/internal/demod"
	"rfdump/internal/ether"
	"rfdump/internal/flowgraph"
	"rfdump/internal/history"
	"rfdump/internal/iq"
	"rfdump/internal/mac"
	"rfdump/internal/protocols"
	"rfdump/internal/serving"
	"rfdump/internal/wire"
)

// BenchSchema identifies the machine-readable benchmark format written
// by rfbench -json. Documents are validated by one tolerant rule set:
// any "rfdump-bench/" tag is accepted and whatever fields and rows a
// document carries are checked, so the committed BENCH_*.json of
// earlier revisions (fewer rows, no allocation counts, no scaling
// matrix) keep validating unchanged.
const BenchSchema = "rfdump-bench/v6"

// BenchRowIngestQuery is the Table 1 row name of the DVR contention
// measurement: streaming detection appending every record to a segment
// store while a client continuously pages the query API.
const BenchRowIngestQuery = "Sustained ingest while querying (segment store)"

// BenchRowFusedIngest is the Table 1 row name of the aggregation-tier
// measurement: the real detections from the benchmark trace offered as
// the overlapping sightings of two sensor nodes, fused and republished
// on a live broker — the rfdumpc hot path.
const BenchRowFusedIngest = "Fused ingest (2-node aggregation)"

// BenchRowTreeIngest is the Table 1 row name of the broker-tree
// measurement: the same two-sensor sighting feed journaled through a
// mid-tier fused ledger whose WAL records are re-fused by a root
// ledger — one extra aggregation level, end to end, the way rfdumpc
// stacks on rfdumpc.
const BenchRowTreeIngest = "Tree ingest (2-level aggregation)"

// BenchRecord is one measured row: a GNU-Radio-equivalent block
// (Table 1) or a full architecture configuration (Figure 9).
type BenchRecord struct {
	// Name labels the block or architecture.
	Name string `json:"name"`
	// NsPerOp is wall-clock nanoseconds for one pass over the trace.
	NsPerOp int64 `json:"ns_per_op"`
	// MBPerS is sample throughput (complex64 = 8 bytes per sample).
	MBPerS float64 `json:"mb_per_s"`
	// CPUPerRealTime is processing time over trace air time — the
	// paper's efficiency metric (Table 1, Figure 9 y-axis).
	CPUPerRealTime float64 `json:"cpu_per_real_time"`
	// AllocsPerOp is heap allocations during one pass (zero is the
	// target for the steady-state streaming path).
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is heap bytes allocated during one pass.
	BytesPerOp int64 `json:"bytes_per_op"`
}

// ScalingRecord is one row of the scaling matrix: the full detection +
// sharded-demod pipeline over the benchmark trace at a fixed worker
// count.
type ScalingRecord struct {
	// Workers is the demod worker count (1 = the inline single-threaded
	// analysis chain, the speedup baseline).
	Workers int `json:"workers"`
	// NsPerOp is wall-clock nanoseconds for one pass over the trace.
	NsPerOp int64 `json:"ns_per_op"`
	// MBPerS is sample throughput at this worker count.
	MBPerS float64 `json:"mb_per_s"`
	// Speedup is the workers=1 wall clock over this row's wall clock.
	Speedup float64 `json:"speedup"`
	// CPUPerRealTime is wall-clock processing time over trace air time.
	CPUPerRealTime float64 `json:"cpu_per_real_time"`
}

// BenchReport is the BENCH_<rev>.json document: the Table 1 block-cost
// matrix, the Figure 9 architecture matrix and the demod scaling matrix,
// stamped with enough build context to compare runs across revisions.
type BenchReport struct {
	Schema    string    `json:"schema"`
	Revision  string    `json:"revision"`
	GoVersion string    `json:"go"`
	GOOS      string    `json:"goos"`
	GOARCH    string    `json:"goarch"`
	Taken     time.Time `json:"taken"`
	// Scale is the workload scale the matrices were measured at
	// (1.0 = paper-size traces).
	Scale   float64       `json:"scale"`
	Table1  []BenchRecord `json:"table1"`
	Figure9 []BenchRecord `json:"figure9"`
	// Scaling is the cores-vs-throughput matrix for the sharded analysis
	// stage (absent in the oldest documents).
	Scaling []ScalingRecord `json:"scaling,omitempty"`
}

// Validate checks the structural invariants CI relies on: schema tag
// family, build stamps, non-empty matrices, strictly positive
// measurements, and a well-formed scaling matrix when one is present.
func (r *BenchReport) Validate() error {
	if r == nil {
		return fmt.Errorf("bench: nil report")
	}
	if !strings.HasPrefix(r.Schema, "rfdump-bench/") {
		return fmt.Errorf("bench: schema %q, want %q (or an earlier rfdump-bench/ tag)", r.Schema, BenchSchema)
	}
	if r.Revision == "" || r.GoVersion == "" || r.GOOS == "" || r.GOARCH == "" {
		return fmt.Errorf("bench: missing build stamp (revision/go/goos/goarch)")
	}
	if r.Taken.IsZero() {
		return fmt.Errorf("bench: missing taken timestamp")
	}
	if len(r.Table1) == 0 || len(r.Figure9) == 0 {
		return fmt.Errorf("bench: empty matrix (table1=%d figure9=%d)", len(r.Table1), len(r.Figure9))
	}
	check := func(matrix string, recs []BenchRecord) error {
		seen := map[string]bool{}
		for i, rec := range recs {
			if rec.Name == "" {
				return fmt.Errorf("bench: %s[%d]: empty name", matrix, i)
			}
			if seen[rec.Name] {
				return fmt.Errorf("bench: %s: duplicate name %q", matrix, rec.Name)
			}
			seen[rec.Name] = true
			if rec.NsPerOp <= 0 || rec.MBPerS <= 0 || rec.CPUPerRealTime <= 0 {
				return fmt.Errorf("bench: %s[%q]: non-positive measurement %+v", matrix, rec.Name, rec)
			}
			// Allocation counts: zero is the goal, negative is corrupt.
			if rec.AllocsPerOp < 0 || rec.BytesPerOp < 0 {
				return fmt.Errorf("bench: %s[%q]: negative allocation count %+v", matrix, rec.Name, rec)
			}
		}
		return nil
	}
	if err := check("table1", r.Table1); err != nil {
		return err
	}
	if err := check("figure9", r.Figure9); err != nil {
		return err
	}
	for i, rec := range r.Scaling {
		if rec.Workers <= 0 {
			return fmt.Errorf("bench: scaling[%d]: non-positive worker count %d", i, rec.Workers)
		}
		if i == 0 && rec.Workers != 1 {
			return fmt.Errorf("bench: scaling[0]: workers %d, want the workers=1 baseline first", rec.Workers)
		}
		if i > 0 && rec.Workers <= r.Scaling[i-1].Workers {
			return fmt.Errorf("bench: scaling[%d]: workers %d not increasing", i, rec.Workers)
		}
		if rec.NsPerOp <= 0 || rec.MBPerS <= 0 || rec.CPUPerRealTime <= 0 || rec.Speedup <= 0 {
			return fmt.Errorf("bench: scaling[%d]: non-positive measurement %+v", i, rec)
		}
	}
	return nil
}

// sliceSource adapts an in-memory trace to core.BlockReader for the
// streaming benchmark row.
type sliceSource struct {
	s   iq.Samples
	pos int
}

func (r *sliceSource) ReadBlock(dst iq.Samples) (int, error) {
	n := copy(dst, r.s[r.pos:])
	r.pos += n
	if r.pos >= len(r.s) {
		return n, io.EOF
	}
	return n, nil
}

// BenchJSON measures the Table 1 and Figure 9 matrices over a ~50%
// utilization unicast trace and returns the report (revision left for
// the caller to stamp). One pass per entry: this is a regression
// tracker, not a statistically rigorous benchmark — use go test -bench
// for repeated, isolated timings.
func BenchJSON(o Options) (*BenchReport, error) {
	o = o.normalize()
	dur := iq.Tick(float64(4_000_000) * o.Scale)
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
				PayloadBytes: 500, InterPing: 38_000,
				Requester: addr(0x11), Responder: addr(0x22), BSSID: addr(0x33),
			},
		},
	})
	if err != nil {
		return nil, err
	}
	rt := res.Clock.Duration(iq.Tick(len(res.Samples)))
	bytes := float64(len(res.Samples)) * 8 // complex64

	record := func(name string, fn func() error) (BenchRecord, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		err := fn()
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return BenchRecord{}, fmt.Errorf("bench %s: %w", name, err)
		}
		if took <= 0 {
			took = time.Nanosecond
		}
		return BenchRecord{
			Name:           name,
			NsPerOp:        int64(took),
			MBPerS:         bytes / 1e6 / took.Seconds(),
			CPUPerRealTime: float64(took) / float64(rt),
			AllocsPerOp:    int64(after.Mallocs - before.Mallocs),
			BytesPerOp:     int64(after.TotalAlloc - before.TotalAlloc),
		}, nil
	}

	report := &BenchReport{
		Schema:    BenchSchema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Taken:     time.Now(),
		Scale:     o.Scale,
	}

	// Table 1 matrix: the per-block costs (same blocks as Table1, raw
	// numbers instead of a formatted table).
	wifiD := demod.NewWiFiDemod()
	btD := demod.NewBTDemod(PiconetLAP, PiconetUAP, 8)
	pd := core.NewPeakDetector(core.PeakConfig{})

	// Streaming row: one warm-up session fills the block/scratch pools so
	// the recorded pass reflects steady state — its allocs_per_op is the
	// regression number for the zero-copy block path. The warm-up pass
	// doubles as the sighting capture for the fused-ingest row: the real
	// detections the trace produces, recorded once, replayed later as
	// two sensors' overlapping reports.
	eng := core.NewEngine(res.Clock, core.TimingOnly())
	var sightings []history.DetectionRecord
	warm, err := eng.NewSession(core.StreamConfig{
		OnDetection: func(d core.Detection) {
			sightings = append(sightings, history.DetectionRecord{
				Seq: uint64(len(sightings) + 1), Stream: 1,
				TimeS:  float64(d.Span.Start) / float64(res.Clock.Rate),
				Family: d.Family.FamilyName(), Detector: d.Detector,
				AbsStart: int64(d.Span.Start), AbsEnd: int64(d.Span.End),
				Confidence: d.Confidence, Channel: d.Channel,
			})
		},
	})
	if err != nil {
		return nil, err
	}
	if _, err := warm.Run(&sliceSource{s: res.Samples}); err != nil {
		return nil, err
	}
	streamSession, err := eng.NewSession(core.StreamConfig{})
	if err != nil {
		return nil, err
	}

	// Wire-ingest row: the same streaming session fed over loopback TCP
	// through the framing protocol — what the detection stage costs when
	// rfdumpd is the front end instead of an in-memory trace. A warm-up
	// pass fills the decoder/session pools first, as above.
	runWire := func(sess *core.Session) error {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer ln.Close()
		sendErr := make(chan error, 1)
		go func() {
			client, err := wire.Dial(ln.Addr().String(), wire.StreamMeta{StreamID: 1, Rate: res.Clock.Rate})
			if err != nil {
				sendErr <- err
				return
			}
			if err := client.SendSamples(res.Samples); err != nil {
				sendErr <- err
				return
			}
			sendErr <- client.Close()
		}()
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		defer conn.Close()
		if _, err := sess.Run(wire.NewDecoder(conn)); err != nil {
			return err
		}
		return <-sendErr
	}
	wireWarm, err := eng.NewSession(core.StreamConfig{})
	if err != nil {
		return nil, err
	}
	if err := runWire(wireWarm); err != nil {
		return nil, err
	}
	wireSession, err := eng.NewSession(core.StreamConfig{})
	if err != nil {
		return nil, err
	}

	// DVR row (schema v4): streaming detection with every record appended
	// to a disk-backed segment store while a querier goroutine pages the
	// detection history as fast as it can — ingest and query contending
	// for the store the way rfdumpd -store-dir does under a polling
	// dashboard. The store lives in a scratch directory torn down with
	// the run; a warm-up pass fills pools and seeds the store so the
	// querier has history to page from the first request.
	histDir, err := os.MkdirTemp("", "rfbench-dvr-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(histDir)
	histStore, err := history.OpenDisk(history.DiskConfig{Dir: histDir})
	if err != nil {
		return nil, err
	}
	defer histStore.Close()
	newDVRSession := func() (*core.Session, error) {
		return eng.NewSession(core.StreamConfig{
			OnDetection: func(d core.Detection) {
				rec := history.DetectionRecord{
					Stream:     1,
					TimeS:      float64(d.Span.Start) / float64(res.Clock.Rate),
					Family:     d.Family.FamilyName(),
					Detector:   d.Detector,
					Start:      int64(d.Span.Start),
					End:        int64(d.Span.End),
					AbsStart:   int64(d.Span.Start),
					AbsEnd:     int64(d.Span.End),
					Confidence: d.Confidence,
					Channel:    d.Channel,
				}
				_ = histStore.AppendDetection(&rec)
			},
		})
	}
	dvrWarm, err := newDVRSession()
	if err != nil {
		return nil, err
	}
	if _, err := dvrWarm.Run(&sliceSource{s: res.Samples}); err != nil {
		return nil, err
	}
	dvrSession, err := newDVRSession()
	if err != nil {
		return nil, err
	}

	// Aggregation-tier row (schema v5): the captured detections offered
	// as the interleaved live feeds of two sensor nodes with a small
	// clock skew between them — every fused result republished on a
	// broker with two draining subscribers, the rfdumpc ingest hot path
	// end to end. The sighting list is prepared here so the recorded
	// pass measures fusion and fan-out, not setup.
	if len(sightings) == 0 {
		return nil, fmt.Errorf("bench: warm-up pass produced no detections to fuse")
	}
	type sighting struct {
		node string
		rec  history.DetectionRecord
	}
	fusedFeed := make([]sighting, 0, 2*len(sightings))
	for _, s := range sightings {
		b := s
		b.AbsStart += 24 // the second sensor's clock skew
		b.AbsEnd += 24
		b.Confidence *= 0.97 // heard a shade weaker at the far position
		fusedFeed = append(fusedFeed, sighting{"node-a", s}, sighting{"node-b", b})
	}

	table1 := []struct {
		name string
		fn   func() error
	}{
		{"802.11 demodulation (1 Mbps)", func() error {
			wifiD.Demodulate(res.Samples, 0)
			return nil
		}},
		{"Bluetooth demodulation (one channel)", func() error {
			btD.DemodulateChannel(res.Samples, 0, 3)
			return nil
		}},
		{"Peak/Energy detection", func() error {
			drain := func(flowgraph.Item) {}
			n := len(res.Samples)
			for s := 0; s < n; s += iq.ChunkSamples {
				e := s + iq.ChunkSamples
				if e > n {
					e = n
				}
				if err := pd.Process(core.Chunk{
					Seq:     s / iq.ChunkSamples,
					Span:    iq.Interval{Start: iq.Tick(s), End: iq.Tick(e)},
					Samples: res.Samples[s:e],
				}, drain); err != nil {
					return err
				}
			}
			return pd.Flush(drain)
		}},
		{"Streaming detection (pooled blocks)", func() error {
			_, err := streamSession.Run(&sliceSource{s: res.Samples})
			return err
		}},
		{"Wire ingest (loopback TCP)", func() error {
			return runWire(wireSession)
		}},
		{BenchRowIngestQuery, func() error {
			stop := make(chan struct{})
			qdone := make(chan error, 1)
			go func() {
				var cursor uint64
				for {
					select {
					case <-stop:
						qdone <- nil
						return
					default:
					}
					_, next, more, err := histStore.QueryDetections(history.Query{Stream: 1, Cursor: cursor})
					if err != nil {
						qdone <- err
						return
					}
					if more {
						cursor = next
					} else {
						cursor = 0 // wrapped: page the whole history again
					}
				}
			}()
			_, err := dvrSession.Run(&sliceSource{s: res.Samples})
			close(stop)
			if qerr := <-qdone; err == nil {
				err = qerr
			}
			return err
		}},
		{BenchRowFusedIngest, func() error {
			fuser := cluster.NewFuser(cluster.MatchConfig{}, nil)
			broker := serving.NewBroker(256, -1, nil)
			subs := make([]*serving.Subscriber, 2)
			var drained sync.WaitGroup
			for i := range subs {
				subs[i] = broker.Subscribe()
				drained.Add(1)
				go func(sub *serving.Subscriber) {
					defer drained.Done()
					for range sub.Events() {
					}
				}(subs[i])
			}
			created := 0
			for i := range fusedFeed {
				s := &fusedFeed[i]
				fd, res := fuser.Ingest(s.node, 1, &s.rec)
				if res == cluster.Duplicate {
					continue
				}
				typ := "detection"
				if res == cluster.Merged {
					typ = "detection-update"
				}
				broker.Publish(serving.Event{Seq: fd.Seq, Type: typ, Stream: 1, Detection: &s.rec})
				if res == cluster.Created {
					created++
				}
			}
			for _, sub := range subs {
				broker.Unsubscribe(sub)
			}
			drained.Wait()
			if created == 0 || created > len(sightings) {
				return fmt.Errorf("bench: fused %d detections from %d sightings", created, len(sightings))
			}
			return nil
		}},
		{BenchRowTreeIngest, func() error {
			// The same two-sensor feed through a broker tree: a mid-tier
			// fused ledger journals each sighting, and its WAL records
			// (evidence deltas attached) are re-fused by a root ledger that
			// republishes on a live broker — what one extra aggregation
			// level costs end to end.
			mid, err := cluster.NewFusedLedger(cluster.LedgerConfig{})
			if err != nil {
				return err
			}
			defer mid.Close()
			broker := serving.NewBroker(256, -1, nil)
			sub := broker.Subscribe()
			var drained sync.WaitGroup
			drained.Add(1)
			go func() {
				defer drained.Done()
				for range sub.Events() {
				}
			}()
			root, err := cluster.NewFusedLedger(cluster.LedgerConfig{Broker: broker})
			if err != nil {
				return err
			}
			defer root.Close()
			created := 0
			for i := range fusedFeed {
				s := &fusedFeed[i]
				wal, _ := mid.Ingest(s.node, 1, &s.rec)
				if wal == nil {
					continue // duplicate at the mid tier: nothing travels up
				}
				if _, res := root.Ingest("mid", wal.Stream, wal); res == cluster.Created {
					created++
				}
			}
			broker.Unsubscribe(sub)
			drained.Wait()
			if created == 0 || created > len(sightings) {
				return fmt.Errorf("bench: tree fused %d detections from %d sightings", created, len(sightings))
			}
			if root.Fuser().Len() != mid.Fuser().Len() {
				return fmt.Errorf("bench: tree levels disagree: root %d fused, mid %d",
					root.Fuser().Len(), mid.Fuser().Len())
			}
			return nil
		}},
	}
	for _, entry := range table1 {
		rec, err := record(entry.name, entry.fn)
		if err != nil {
			return nil, err
		}
		o.logf("bench table1 %s: %.2fx", rec.Name, rec.CPUPerRealTime)
		report.Table1 = append(report.Table1, rec)
	}

	// Figure 9 matrix: the nine architecture configurations over the
	// same trace.
	for _, mon := range figure9Configs(res.Clock) {
		mon := mon
		rec, err := record(mon.Name(), func() error {
			_, err := mon.Process(res.Samples)
			return err
		})
		if err != nil {
			return nil, err
		}
		o.logf("bench fig9 %s: %.2fx", rec.Name, rec.CPUPerRealTime)
		report.Figure9 = append(report.Figure9, rec)
	}

	// Scaling matrix: the full detection + demodulation pipeline with the
	// analysis stage sharded across 1, 2, 4, ... GOMAXPROCS workers
	// (workers=1 is the inline chain, the speedup baseline). One warm-up
	// session per worker count fills the pools before the recorded pass.
	factories := []core.AnalyzerFactory{
		func() core.Analyzer { return demod.NewWiFiDemod() },
		func() core.Analyzer { return demod.NewBTDemod(PiconetLAP, PiconetUAP, 8) },
	}
	var counts []int
	maxW := runtime.GOMAXPROCS(0)
	for w := 1; w < maxW; w *= 2 {
		counts = append(counts, w)
	}
	counts = append(counts, maxW)
	for _, w := range counts {
		cfg := core.TimingAndPhase()
		cfg.DemodWorkers = w
		seng := core.NewEngine(res.Clock, cfg, factories...)
		for pass := 0; pass < 2; pass++ {
			sess, err := seng.NewSession(core.StreamConfig{})
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if _, err := sess.Run(&sliceSource{s: res.Samples}); err != nil {
				return nil, err
			}
			took := time.Since(start)
			if pass == 0 {
				continue // warm-up: pools cold, workers spinning up
			}
			if took <= 0 {
				took = time.Nanosecond
			}
			rec := ScalingRecord{
				Workers:        w,
				NsPerOp:        int64(took),
				MBPerS:         bytes / 1e6 / took.Seconds(),
				Speedup:        1,
				CPUPerRealTime: float64(took) / float64(rt),
			}
			if len(report.Scaling) > 0 {
				rec.Speedup = float64(report.Scaling[0].NsPerOp) / float64(took)
			}
			o.logf("bench scaling workers=%d: %.2fx real time, %.2fx speedup", w, rec.CPUPerRealTime, rec.Speedup)
			report.Scaling = append(report.Scaling, rec)
		}
	}
	return report, nil
}
