// Package server is the live-monitoring daemon over the streaming
// pipeline: it aggregates the detections, decoded packets and stream
// health of every ingest connection into one queryable surface — REST
// endpoints for state, a server-sent-events feed for the live tail.
// This is the "tcpdump for the wireless ether" as a service: rfdumpd
// listens where hcidump/tcpdump would read an interface, and any number
// of observers watch without touching the sample path.
//
// The record path (serving.Ledger) and the shared HTTP/SSE surface
// (serving.Core) live in internal/serving, because the aggregation tier
// (internal/cluster) runs on the identical ones.
package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync/atomic"
	"time"

	"rfdump/internal/core"
	"rfdump/internal/demod"
	"rfdump/internal/faults"
	"rfdump/internal/flowgraph"
	"rfdump/internal/history"
	"rfdump/internal/iq"
	"rfdump/internal/metrics"
	"rfdump/internal/serving"
	"rfdump/internal/wire"
)

// DefaultStallAfter is how long an active ingest stream may deliver no
// frame (heartbeats included) before /healthz reports it stalled. A
// transmitter heartbeating at the usual 1–5 s cadence stays comfortably
// inside it; a half-open connection blows through it in one interval.
const DefaultStallAfter = 5 * time.Second

// Options configures a Daemon.
type Options struct {
	// Engine is the shared streaming pipeline (required). Each ingest
	// connection becomes one Session over it; all sessions recycle
	// blocks through the engine's pool.
	Engine *core.Engine
	// Registry receives every daemon counter; may be nil (the daemon
	// then runs unmetered thanks to nil-safe instruments).
	Registry *metrics.Registry
	// Session is the per-connection stream configuration template:
	// window size, supervision, overload control. The daemon owns the
	// delivery callbacks and lifecycle hooks and overwrites them (it
	// also forces NoRetain — a long-lived daemon must not accumulate
	// per-session results).
	Session core.StreamConfig
	// Faults, when non-empty, is a faults.ParseSpec front-end fault
	// specification applied to every ingest connection; Retries bounds
	// transient-error retries (as rfdump -faults/-retries).
	Faults  string
	Retries int
	// StoreDir, when non-empty, persists detections, packets, waterfall
	// tiles and captured IQ snippets (the spectrum DVR) in the
	// disk-backed segment store there; StoreMaxBytes / StoreMaxAge bound
	// its retention (zero takes the engine defaults). Empty keeps history
	// in a bounded in-memory store (history.NewMemory's defaults). The
	// daemon owns the store and closes it in Close.
	StoreDir      string
	StoreMaxBytes int64
	StoreMaxAge   time.Duration
	// Capture records the raw IQ burst behind every detection as a
	// snippet in the store; CapturePad / CaptureMaxSamples tune the span
	// (see core.StreamConfig).
	Capture           bool
	CapturePad        int
	CaptureMaxSamples int
	// TileSamples is the span of one persisted waterfall tile in samples
	// (default 1<<19 ≈ 65 ms at 8 Msps; negative disables tiles);
	// TileBins the number of power bins per tile (default 64).
	TileSamples int
	TileBins    int
	// QueryRPS / QueryBurst rate-limit every store-backed read per client
	// host (token bucket; defaults 20 rps, burst 40; negative RPS
	// disables).
	QueryRPS   float64
	QueryBurst int
	// SubscriberQueue bounds each live-feed subscriber (see HubConfig;
	// zero takes the default).
	SubscriberQueue int
	// EvictAfter is the consecutive-drop budget before a slow SSE
	// subscriber is evicted (0 takes the hub default of 4× the queue;
	// negative disables eviction).
	EvictAfter int
	// IdleTimeout reaps ingest connections that deliver no frame for
	// the duration — the supervision that clears half-open sockets
	// (0 disables). Heartbeat frames count as frames, so an idle but
	// heartbeating transmitter survives.
	IdleTimeout time.Duration
	// StallAfter is the /healthz threshold: an active stream silent for
	// longer is reported as stalled (0 takes DefaultStallAfter,
	// negative disables the check).
	StallAfter time.Duration
	// WaterfallSamples sizes each stream's recent-sample ring for
	// /api/waterfall (default 1<<19 ≈ 65 ms at 8 Msps; negative
	// disables).
	WaterfallSamples int
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Daemon ties the pieces of rfdumpd together: a wire.Server accepting
// IQ ingest connections, one core.Session per connection, and a Hub
// aggregating results for the HTTP API. It is the live half of the
// paper's architecture — the same engine the offline tool uses, fed by
// the network instead of a trace file.
type Daemon struct {
	opt      Options
	clock    iq.Clock
	reg      *metrics.Registry
	hub      *Hub
	wire     *wire.Server
	faultCfg *faults.Config
	quota    *serving.Quota
	draining atomic.Bool

	conns    *metrics.Counter
	rejected *metrics.Counter
	hbMissed *metrics.Counter
}

// NewDaemon validates options and assembles the daemon.
func NewDaemon(opt Options) (*Daemon, error) {
	if opt.Engine == nil {
		return nil, errors.New("server: Options.Engine is required")
	}
	if opt.WaterfallSamples == 0 {
		opt.WaterfallSamples = 1 << 19
	}
	if opt.WaterfallSamples < 0 {
		opt.WaterfallSamples = 0
	}
	if opt.StallAfter == 0 {
		opt.StallAfter = DefaultStallAfter
	}
	if opt.StallAfter < 0 {
		opt.StallAfter = 0
	}
	if opt.TileSamples == 0 {
		opt.TileSamples = 1 << 19
	}
	if opt.TileBins <= 0 {
		opt.TileBins = 64
	}
	var (
		store history.Store
		err   error
	)
	if opt.StoreDir != "" {
		store, err = history.OpenDisk(history.DiskConfig{
			Dir:      opt.StoreDir,
			MaxBytes: opt.StoreMaxBytes,
			MaxAge:   opt.StoreMaxAge,
			Registry: opt.Registry,
		})
	} else {
		store, err = history.NewMemory(history.MemoryConfig{Registry: opt.Registry})
	}
	if err != nil {
		return nil, fmt.Errorf("server: history store: %w", err)
	}
	d := &Daemon{
		opt:   opt,
		clock: opt.Engine.Clock(),
		reg:   opt.Registry,
		hub: NewHub(HubConfig{
			Clock:           opt.Engine.Clock(),
			Store:           store,
			SubscriberQueue: opt.SubscriberQueue,
			EvictAfter:      opt.EvictAfter,
			Registry:        opt.Registry,
		}),
		quota:    serving.NewQuota(opt.QueryRPS, opt.QueryBurst, opt.Registry),
		conns:    opt.Registry.Counter("server/ingest/connections"),
		rejected: opt.Registry.Counter("server/ingest/rejected"),
		hbMissed: opt.Registry.Counter("server/heartbeats_missed"),
	}
	if opt.Faults != "" {
		cfg, err := faults.ParseSpec(opt.Faults)
		if err != nil {
			_ = store.Close()
			return nil, fmt.Errorf("server: %w", err)
		}
		d.faultCfg = &cfg
	}
	d.wire = wire.NewServer(d.handle)
	if opt.IdleTimeout > 0 {
		d.wire.SetIdleTimeout(opt.IdleTimeout)
	}
	return d, nil
}

// Hub returns the daemon's stream/event registry.
func (d *Daemon) Hub() *Hub { return d.hub }

// Serve accepts ingest connections on ln until Drain or Close.
func (d *Daemon) Serve(ln net.Listener) error { return d.wire.Serve(ln) }

// Drain stops accepting, nudges every ingest connection so blocked
// reads return, and waits for the per-connection sessions to finish
// flushing their pipelines. Results already produced stay queryable.
func (d *Daemon) Drain() {
	d.draining.Store(true)
	d.wire.Drain()
	d.wire.Wait()
}

// Close aborts: ingest connections are closed outright, then the
// history store is released (Drain leaves it open so results stay
// queryable through the drain window).
func (d *Daemon) Close() {
	d.draining.Store(true)
	d.wire.Close()
	d.wire.Wait()
	_ = d.hub.Close()
}

// logf forwards to Options.Logf when set.
func (d *Daemon) logf(format string, args ...any) {
	if d.opt.Logf != nil {
		d.opt.Logf(format, args...)
	}
}

// refreshGauges is the /api/metricz prepare hook: pull-style gauges
// nothing updates on the hot path.
func (d *Daemon) refreshGauges() {
	st := d.opt.Engine.Pool().Stats()
	d.reg.Gauge("blocks/pool/gets").Set(st.Gets)
	d.reg.Gauge("blocks/pool/news").Set(st.News)
	d.reg.Gauge("blocks/pool/puts").Set(st.Puts)
	d.reg.Gauge("blocks/pool/live").Set(st.Live)
	hs := d.hub.ledger.Stats()
	d.reg.Gauge("history/last_seq").Set(int64(hs.LastSeq))
	d.reg.Gauge("history/detections").Set(hs.Detections)
	d.reg.Gauge("history/packets").Set(hs.Packets)
	d.reg.Gauge("history/tiles").Set(hs.Tiles)
	d.reg.Gauge("history/snippets").Set(hs.Snippets)
	d.reg.Gauge("history/bytes").Set(hs.Bytes)
	d.reg.Gauge("history/segments").Set(int64(hs.Segments))
	// The memory store's record capacities, surfaced so operators can see
	// the bound their history queries run against (0 = not count-bound,
	// i.e. the segment store).
	d.reg.Gauge("history/detection_cap").Set(int64(hs.DetectionCap))
	d.reg.Gauge("history/packet_cap").Set(int64(hs.PacketCap))
}

// handle runs one ingest connection to completion: read the stream
// meta (and resume handshake, if reconnecting), attach to the hub,
// build the source chain (wire conn → faults → waterfall tee → drain
// guard) and drive a fresh session.
func (d *Daemon) handle(c *wire.Conn) {
	d.conns.Inc()
	meta, err := c.Meta()
	if err != nil {
		d.logf("ingest %s: handshake: %v", c.RemoteAddr(), err)
		return
	}
	if meta.Rate != 0 && meta.Rate != d.clock.Rate {
		d.rejected.Inc()
		d.logf("ingest %s: rate %d Hz does not match engine clock %d Hz; rejecting",
			c.RemoteAddr(), meta.Rate, d.clock.Rate)
		return
	}
	var resume *wire.ResumeInfo
	if ri, ok := c.Resume(); ok {
		resume = &ri
	}
	st, ep := d.hub.Attach(AttachSpec{
		Remote:           c.RemoteAddr(),
		Meta:             meta,
		Resume:           resume,
		Counts:           c.Counts,
		LastFrame:        c.LastFrame,
		Detach:           func() { c.Close() },
		WaterfallSamples: d.opt.WaterfallSamples,
	})
	if resume != nil {
		d.logf("ingest %s: stream %d resumed (epoch %d, offset %d)",
			c.RemoteAddr(), st.ID(), resume.Epoch, resume.Offset())
	} else {
		d.logf("ingest %s: stream %d open (rate=%d Hz center=%d Hz)",
			c.RemoteAddr(), st.ID(), meta.Rate, meta.CenterHz)
	}

	scfg := d.opt.Session
	scfg.NoRetain = true
	if d.opt.Capture {
		// Exactly one detection path: the capture hook both records the
		// detection and banks its IQ burst (a separate OnDetection would
		// double-append).
		scfg.CapturePad = d.opt.CapturePad
		scfg.CaptureMaxSamples = d.opt.CaptureMaxSamples
		scfg.OnDetectionCapture = func(det core.Detection, span iq.Interval, burst iq.Samples) {
			d.hub.DetectionCaptured(st, det, span, burst)
		}
	} else {
		scfg.OnDetection = func(det core.Detection) { d.hub.Detection(st, det) }
	}
	scfg.OnOutput = func(item flowgraph.Item) {
		if p, ok := item.(demod.Packet); ok {
			d.hub.Packet(st, p)
		}
	}
	scfg.OnSessionStart = func(id uint64) { d.hub.SessionStarted(st, ep, id) }
	scfg.OnSessionEnd = func(id uint64, res *core.Result, err error) {
		d.hub.SessionEnded(st, ep, res, err)
	}

	sess, err := d.opt.Engine.NewSession(scfg)
	if err != nil {
		d.hub.SessionEnded(st, ep, nil, err)
		d.logf("ingest %s: session: %v", c.RemoteAddr(), err)
		return
	}

	var src core.BlockReader = c
	if d.faultCfg != nil {
		injector := faults.NewInjector(src, *d.faultCfg)
		injector.InstrumentMetrics(d.reg)
		src = &faults.Retry{Src: injector, Attempts: d.opt.Retries, Metrics: d.reg}
	}
	var tiles *tileBuilder
	if d.opt.TileSamples > 0 {
		tiles = newTileBuilder(d.hub, st, d.opt.TileSamples, d.opt.TileBins)
	}
	if st.ring != nil || tiles != nil {
		src = &teeSource{inner: src, ring: st.ring, tiles: tiles}
	}
	src = &drainSource{inner: src, stop: &d.draining}

	if _, err := sess.Run(src); err != nil {
		if isTimeout(err) {
			// The idle reaper fired: the connection went this long with
			// neither data nor a heartbeat — a missed-heartbeat death.
			d.hbMissed.Inc()
		}
		d.logf("ingest %s: stream %d failed: %v", c.RemoteAddr(), st.ID(), err)
		return
	}
	counts := c.Counts()
	d.logf("ingest %s: stream %d closed (%d frames, %d samples, clean=%v)",
		c.RemoteAddr(), st.ID(), counts.Frames, counts.Samples, counts.CleanEnd)
}

// isTimeout reports whether err is (or wraps) a read-deadline expiry.
func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// teeSource copies every block the pipeline reads into the stream's
// waterfall ring and folds it into the persisted tile builder. It sits
// after fault injection so both show the stream the detectors actually
// saw.
type teeSource struct {
	inner core.BlockReader
	ring  *sampleRing
	tiles *tileBuilder
}

func (t *teeSource) ReadBlock(dst iq.Samples) (int, error) {
	n, err := t.inner.ReadBlock(dst)
	if n > 0 {
		if t.ring != nil {
			t.ring.Append(dst[:n])
		}
		if t.tiles != nil {
			t.tiles.Append(dst[:n])
		}
	}
	return n, err
}

// drainSource converts transport errors after a drain into clean EOF:
// Drain nudges blocked reads with an expired deadline, and the
// resulting timeout must end the session gracefully (results intact),
// not as a failure.
type drainSource struct {
	inner core.BlockReader
	stop  *atomic.Bool
}

func (s *drainSource) ReadBlock(dst iq.Samples) (int, error) {
	if s.stop.Load() {
		return 0, io.EOF
	}
	n, err := s.inner.ReadBlock(dst)
	if err != nil && !errors.Is(err, io.EOF) && s.stop.Load() {
		return n, io.EOF
	}
	return n, err
}
