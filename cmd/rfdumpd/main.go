// Command rfdumpd is the live-monitoring daemon: rfdump as a network
// service. It accepts IQ sample streams over the wire framing protocol
// (one core.Session per ingest connection, all sharing one Engine and
// block pool) and serves the results over HTTP — stream inventory,
// recent detections and decoded packets, a waterfall, metrics, and a
// server-sent-events live feed.
//
// Usage:
//
//	rfdumpd                                  # ingest :7531, API :7532
//	rfdumpd -listen :9000 -http :9001
//	rfdumpd -detectors timing,phase -overload -supervise
//	rfgen -profile mix -stream localhost:7531 -realtime   # a transmitter
//
// Then:
//
//	curl localhost:7532/api/streams
//	curl localhost:7532/api/detections
//	curl localhost:7532/api/packets
//	curl "localhost:7532/api/waterfall?format=text"
//	curl localhost:7532/api/metricz
//	curl localhost:7532/api/protocols        # registered protocol modules
//	curl -N localhost:7532/api/live          # SSE event feed
//
// With -store-dir the daemon becomes a spectrum DVR: history persists
// to an append-only segment store and survives restarts, and -capture
// banks the raw IQ burst behind every detection for later replay:
//
//	rfdumpd -store-dir /var/lib/rfdump -capture
//	curl "localhost:7532/api/streams/1/detections?from=0.1&to=0.5&limit=100"
//	curl "localhost:7532/api/streams/1/packets?cursor=1234"
//	curl "localhost:7532/api/streams/1/snippets/87" > snippet.json
//	curl "localhost:7532/api/streams/1/snippets/87?format=trace" > snippet.rfd
//	rfdump -replay-snippet snippet.json      # re-demodulate offline
//	curl localhost:7532/api/history          # store kind, retention, bounds
//	curl -N "localhost:7532/api/live?since=1234"  # replay history, then tail
//
// The first SIGINT/SIGTERM drains: ingest stops, per-connection
// sessions flush their pipelines, results stay queryable until exit. A
// second signal aborts immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rfdump/internal/cluster"
	"rfdump/internal/core"
	"rfdump/internal/experiments"
	"rfdump/internal/flowgraph"
	"rfdump/internal/iq"
	"rfdump/internal/metrics"
	"rfdump/internal/protocols"
	_ "rfdump/internal/protocols/builtin"
	"rfdump/internal/server"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:7531", "IQ ingest address (wire framing protocol)")
		httpAddr  = flag.String("http", "127.0.0.1:7532", "HTTP API address")
		rate      = flag.Int("rate", iq.DefaultSampleRate, "engine sample rate in Hz; mismatched transmitters are rejected")
		detectors = flag.String("detectors", "timing,phase", core.DetectorUsage())
		noDemod   = flag.Bool("no-demod", false, "skip the analysis stage (classification only)")
		lap       = flag.Uint64("lap", experiments.PiconetLAP, "Bluetooth piconet LAP to follow")
		uap       = flag.Uint64("uap", experiments.PiconetUAP, "Bluetooth piconet UAP")
		window    = flag.Int("window", 1_600_000, "per-session sliding window in samples")
		supervise = flag.Bool("supervise", false, "supervised scheduling: quarantine crashing blocks instead of failing the session")
		overload  = flag.Bool("overload", false, "real-time pacing with graceful degradation per session")
		faultSpec = flag.String("faults", "", "inject front-end faults on every ingest stream, e.g. gap=0.001,corrupt=0.01,seed=7")
		retries   = flag.Int("retries", 4, "retry attempts for transient front-end read errors with -faults")
		waterfall = flag.Int("waterfall", 1<<19, "per-stream waterfall ring in samples (negative disables)")
		queue     = flag.Int("sse-queue", 256, "per-subscriber live-feed queue length (slow clients drop past this)")
		sseEvict  = flag.Int("sse-evict", 0, "consecutive live-feed drops before a slow subscriber is evicted (0 = 4x queue, negative disables)")
		idleTO    = flag.Duration("idle-timeout", 45*time.Second, "reap ingest connections silent (no frame, no heartbeat) this long; 0 disables")
		nodeID    = flag.String("node", "", "fleet-unique node id for cluster discovery (default: hostname)")
		announce  = flag.String("announce", "", "announce this node to an rfdumpc discoverer at this UDP address (empty disables)")
		announceI = flag.Duration("announce-interval", 2*time.Second, "beacon interval with -announce")
		stall     = flag.Duration("stall-after", server.DefaultStallAfter, "/healthz reports stalled when an active stream is silent this long; negative disables")
		quiet     = flag.Bool("q", false, "suppress per-stream log lines")

		storeDir   = flag.String("store-dir", "", "persist history (detections, packets, tiles, IQ snippets) to a disk-backed segment store in this directory; empty keeps it in memory")
		storeMaxB  = flag.Int64("store-max-bytes", 0, "disk store retention bound in bytes (0 = engine default 256 MiB; negative unbounded)")
		storeMaxA  = flag.Duration("store-max-age", 0, "disk store retention bound by segment age (0 disables)")
		capture    = flag.Bool("capture", false, "capture the raw IQ burst behind every detection as a replayable snippet in the store")
		capturePad = flag.Int("capture-pad", 0, "widen each captured burst by this many samples per side (0 = one chunk; negative disables padding)")
		captureMax = flag.Int("capture-max", 0, "cap one captured burst at this many samples, keeping the head (0 = default 65536)")
		tileSpan   = flag.Int("tile-samples", 1<<19, "persist one waterfall tile per this many ingest samples (negative disables)")
		queryRPS   = flag.Float64("query-rps", 0, "per-host rate limit on reads of the history store (paged queries, /api/detections, /api/packets) in requests/s (0 = default 20; negative disables)")
		queryBurst = flag.Int("query-burst", 0, "history query burst ceiling per host (0 = 2x the rate)")
	)
	flag.Parse()

	cfg, err := core.ParseDetectors(*detectors)
	if err == core.ErrDetectorList {
		fmt.Print(core.DetectorList())
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rfdumpd:", err)
		os.Exit(2)
	}
	// The daemon is always metered: /api/metricz is part of the API, so
	// the registry is unconditional (unlike rfdump's opt-in -metrics).
	reg := metrics.NewRegistry()
	cfg.Metrics = reg

	// The analysis stage comes from the registry: one analyzer factory
	// per registered module with an analysis capability.
	var factories []core.AnalyzerFactory
	if !*noDemod {
		factories = core.RegistryAnalyzerFactories(protocols.AnalyzerOptions{
			LAP: uint32(*lap), UAP: byte(*uap), Channels: 8,
		})
	}
	eng := core.NewEngine(iq.NewClock(*rate), cfg, factories...)

	scfg := core.StreamConfig{WindowSamples: *window}
	if *supervise {
		scfg.Supervise = &flowgraph.SupervisorConfig{
			MaxErrors:    3,
			BackoffItems: 10_000,
			OnEvent: func(ev flowgraph.SupervisorEvent) {
				fmt.Fprintln(os.Stderr, "rfdumpd: supervisor:", ev)
			},
		}
	}
	if *overload {
		scfg.Overload = &core.OverloadConfig{}
	}

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "rfdumpd: "+format+"\n", args...)
		}
	}
	d, err := server.NewDaemon(server.Options{
		Engine:           eng,
		Registry:         reg,
		Session:          scfg,
		Faults:           *faultSpec,
		Retries:          *retries,
		WaterfallSamples: *waterfall,
		SubscriberQueue:  *queue,
		EvictAfter:       *sseEvict,
		IdleTimeout:      *idleTO,
		StallAfter:       *stall,
		StoreDir:         *storeDir,
		StoreMaxBytes:    *storeMaxB,
		StoreMaxAge:      *storeMaxA,
		Capture:          *capture,
		CapturePad:       *capturePad,
		CaptureMaxSamples: *captureMax,
		TileSamples:      *tileSpan,
		QueryRPS:         *queryRPS,
		QueryBurst:       *queryBurst,
		Logf:             logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rfdumpd:", err)
		os.Exit(2)
	}

	ingest, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rfdumpd: ingest listen:", err)
		os.Exit(1)
	}
	apiLn, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rfdumpd: http listen:", err)
		os.Exit(1)
	}
	api := &http.Server{Handler: d.APIHandler()}
	go func() {
		if err := api.Serve(apiLn); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "rfdumpd: http:", err)
		}
	}()
	go func() {
		if err := d.Serve(ingest); err != nil {
			fmt.Fprintln(os.Stderr, "rfdumpd: ingest:", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "rfdumpd: ingest on %s, API on http://%s (rate %d Hz, detectors %s)\n",
		ingest.Addr(), apiLn.Addr(), *rate, *detectors)

	// Cluster beacon: announce the bound API address (its wildcard host
	// is fine — the discoverer substitutes the datagram's source IP).
	if *announce != "" {
		node := *nodeID
		if node == "" {
			node, _ = os.Hostname()
		}
		ann, err := cluster.NewAnnouncer(cluster.AnnounceConfig{
			Target:   *announce,
			Node:     node,
			API:      apiLn.Addr().String(),
			Interval: *announceI,
			Info: func() (int, int) {
				return *rate, len(d.Hub().Streams())
			},
			Registry: reg,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "rfdumpd: announce:", err)
			os.Exit(1)
		}
		defer ann.Close()
		fmt.Fprintf(os.Stderr, "rfdumpd: announcing as %q to %s every %s\n", node, *announce, *announceI)
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "rfdumpd: signal — draining ingest (^C again to abort)")
	go func() {
		<-sig
		os.Exit(130)
	}()

	// Drain: stop accepting, nudge blocked reads, let every session
	// flush its pipeline. Results stay queryable until the API closes.
	d.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = api.Shutdown(ctx)

	var streams, detections, packets int64
	for _, st := range d.Hub().Streams() {
		streams++
		detections += st.Detections
		packets += st.Packets
	}
	fmt.Fprintf(os.Stderr, "rfdumpd: drained: %d streams, %d detections, %d packets decoded\n",
		streams, detections, packets)
	// Release the history store last: a disk store flushes per append,
	// so even an abrupt kill loses at most a torn tail frame, but a
	// clean exit closes the active segment properly.
	d.Close()
}
