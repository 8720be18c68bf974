package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"rfdump/internal/iq"
)

// snapshot is the process-wide cost counters at one instant.
type snapshot struct {
	at     time.Time
	cpu    time.Duration // getrusage user+sys: the whole stack, transmitter included
	gcCPU  float64       // seconds, runtime/metrics estimate
	allocs uint64        // heap objects allocated so far
}

const (
	metricGCCPU  = "/cpu/classes/gc/total:cpu-seconds"
	metricAllocs = "/gc/heap/allocs:objects"
	metricHeap   = "/memory/classes/heap/objects:bytes"
)

func takeSnapshot() snapshot {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: metricGCCPU}, {Name: metricAllocs}}
	metrics.Read(s)
	return snapshot{
		at:     time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:  s[0].Value.Float64(),
		allocs: s[1].Value.Uint64(),
	}
}

// heapSampler tracks the live-heap peak at 10 Hz until stopped.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: metricHeap}}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// streamLedger is the slice of /api/streams the gate checks.
type streamLedger struct {
	ID         uint64 `json:"id"`
	Active     bool   `json:"active"`
	Error      string `json:"error"`
	Detections int64  `json:"detections"`
	Packets    int64  `json:"packets"`
	Wire       struct {
		Samples  int64 `json:"samples"`
		CleanEnd bool  `json:"clean_end"`
	} `json:"wire"`
}

func readLedger(n *node) (streamLedger, error) {
	var body struct {
		Streams []streamLedger `json:"streams"`
	}
	if err := getJSON(n.api.url("/api/streams"), &body); err != nil {
		return streamLedger{}, err
	}
	if len(body.Streams) != 1 {
		return streamLedger{}, fmt.Errorf("%s: %d streams in the ledger, want 1", n.name, len(body.Streams))
	}
	return body.Streams[0], nil
}

// e2eData is everything one end-to-end run recorded; analyze turns it
// into metrics and the correctness verdict.
type e2eData struct {
	w     workload
	truth *truthIndex
	base  iq.Samples // sensor 0's rendering, for the staged replay
	sched schedule

	setups []float64  // seconds each set-up took
	tx     []txReport // per sensor; tx[0] carries the window marks
	fEnd   snapshot   // cost counters once every stream had closed
	// droppedAtPEnd / droppedAtEnd sum the brokers' drop counters over
	// every tier at the end of P and of the run.
	droppedAtPEnd, droppedAtEnd int64
	heapPeak                    uint64

	// leaf[i] is sensor i's node feed (the tree reads only what it needs
	// from them); root is the root aggregator's feed, nil on node runs.
	leaf []*feed
	root *feed
	// ledgers[i] is sensor i's /api/streams row after stream-close.
	ledgers []streamLedger
	// storeBytes is what the node-dvr store appended over the run.
	storeBytes int64
	pager      pagerReport
}

// runE2E renders the trace, stands the tiers up (sc.setups times, the
// last one kept), drives both phases and collects the raw record.
func runE2E(w workload, seed uint64, sc scale, scratch string) (*e2eData, error) {
	d := &e2eData{w: w}
	var (
		ts    *tiers
		bases []iq.Samples
	)
	closeAll := func() {
		for _, fd := range d.leaf {
			fd.stop()
		}
		if d.root != nil {
			d.root.stop()
		}
		if ts != nil {
			ts.close()
			ts = nil
		}
	}
	defer closeAll()

	if sc.baseFrames == 0 {
		sc.baseFrames = w.baseFrames
	}
	for i := 0; i < sc.setups; i++ {
		closeAll()
		d.leaf, d.root = nil, nil
		begin := time.Now()
		multi, err := render(w, seed, sc.baseFrames)
		if err != nil {
			return nil, err
		}
		if ts, err = standUp(w, scratch); err != nil {
			return nil, err
		}
		for j, n := range ts.nodes {
			url := n.api.url("/api/live")
			if w.tree {
				// Aggregators forward no packets: those, and the end of
				// stream, come from the leaves.
				url += "?types=packet,stream-close,detection"
			}
			fd, err := subscribe(fmt.Sprintf("s%d", j), url)
			if err != nil {
				return nil, err
			}
			d.leaf = append(d.leaf, fd)
		}
		if w.tree {
			if d.root, err = subscribe("root", ts.root.api.url("/api/live")); err != nil {
				return nil, err
			}
		}
		d.setups = append(d.setups, time.Since(begin).Seconds())
		d.truth = newTruthIndex(multi)
		bases = bases[:0]
		for _, s := range multi.Sensors {
			bases = append(bases, s.Samples)
		}
		d.base = bases[0]
	}

	// The earlier set-ups' traces and tiers are garbage by now; collect
	// them here, not in the first measured windows.
	runtime.GC()

	framesPer := func(dur time.Duration) int {
		return int(int64(dur) * int64(w.paceRate) / int64(time.Second) / frameSamples)
	}
	d.sched = schedule{
		start:        time.Now().Add(20 * time.Millisecond),
		paceRate:     w.paceRate,
		warmFrames:   framesPer(sc.warmup),
		windowFrames: sc.baseFrames,
		windows:      max(1, framesPer(sc.pDur)/sc.baseFrames),
		fDur:         sc.fDur,
	}
	dropped := func() (n int64) {
		for _, nd := range ts.nodes {
			n += nd.reg.Counter("server/sse/dropped_events").Load()
		}
		for _, a := range []*aggregator{ts.mid, ts.root} {
			if a != nil {
				n += a.reg.Counter("server/sse/dropped_events").Load()
			}
		}
		return n
	}

	heap := startHeapSampler()
	stopPager := make(chan struct{})
	pagerDone := make(chan struct{})
	if w.dvr {
		go func() {
			defer close(pagerDone)
			d.pager = page(ts.nodes[0].api.url("/api/streams/1/detections"), stopPager)
		}()
	} else {
		close(pagerDone)
	}

	d.tx = make([]txReport, len(ts.nodes))
	var wg sync.WaitGroup
	for i, n := range ts.nodes {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			var pEnd func()
			if i == 0 {
				// sensor 0's transmitter owns the measurement boundaries
				pEnd = func() { d.droppedAtPEnd = dropped() }
			}
			d.tx[i] = transmit(addr, uint32(i+1), bases[i], d.sched, pEnd)
		}(i, n.ingest.Addr().String())
	}
	wg.Wait()

	// End of stream is the stream-close event, never /api/streams going
	// inactive (the ledger can trail that flag); the ledger is read only
	// after it, and polled until it stops changing.
	var runErr error
	for i, fd := range d.leaf {
		if d.tx[i].err != nil {
			runErr = fmt.Errorf("transmit s%d: %w", i, d.tx[i].err)
			break
		}
		select {
		case <-fd.closed:
		case <-fd.done:
			runErr = fmt.Errorf("feed %s ended before stream-close: %v", fd.name, fd.err)
		case <-time.After(60 * time.Second):
			runErr = fmt.Errorf("no stream-close from %s 60 s after the End frame", fd.name)
		}
		if runErr != nil {
			break
		}
	}
	d.fEnd = takeSnapshot()
	if runErr == nil {
		d.ledgers, runErr = settle(ts, d)
	}
	close(stopPager)
	<-pagerDone
	d.heapPeak = heap.finish()
	d.droppedAtEnd = dropped()
	d.storeBytes = ts.nodes[0].reg.Counter("history/append_bytes").Load()
	closeAll()
	if runErr != nil {
		return nil, runErr
	}
	for _, fd := range append(append([]*feed(nil), d.leaf...), d.root) {
		if fd != nil && fd.err != nil {
			return nil, fmt.Errorf("feed %s: %w", fd.name, fd.err)
		}
	}
	return d, nil
}

// settle polls the leaves' ledgers and every feed until nothing has
// moved for 200 ms (the tree's root keeps fusing after the leaves
// close), and returns the final ledgers.
func settle(ts *tiers, d *e2eData) ([]streamLedger, error) {
	state := func() (string, []streamLedger, error) {
		var ls []streamLedger
		key := ""
		for _, n := range ts.nodes {
			l, err := readLedger(n)
			if err != nil {
				return "", nil, err
			}
			ls = append(ls, l)
			key += fmt.Sprintf("%d/%d ", l.Detections, l.Packets)
		}
		for _, fd := range d.leaf {
			key += fmt.Sprintf("%d ", fd.count.Load())
		}
		if d.root != nil {
			key += fmt.Sprintf("%d", d.root.count.Load())
		}
		return key, ls, nil
	}
	deadline := time.Now().Add(30 * time.Second)
	prev, since := "", time.Now()
	for {
		key, ls, err := state()
		if err != nil {
			return nil, err
		}
		if key != prev {
			prev, since = key, time.Now()
		} else if time.Since(since) >= 200*time.Millisecond {
			return ls, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("ledgers still moving 30 s after stream-close")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
