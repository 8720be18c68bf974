// Command rfdumpc is the cluster aggregator: one daemon that watches a
// fleet of rfdumpd sensors and serves their combined view of the ether
// through the same API a single rfdumpd serves. Radios with
// overlapping coverage hear — and report — the same packets; rfdumpc
// subscribes to every node's live feed, fuses detections of the same
// over-the-air event across sensors (keeping each sensor's sighting as
// evidence), and re-exports /api/streams, /api/detections, /api/live
// and the DVR query surface so fleet-unaware clients work unchanged.
//
// Because the exported surface is identical to a node's, aggregators
// compose into broker trees: a mid-tier rfdumpc aggregates a rack of
// sensors, and a root rfdumpc aggregates mid-tiers exactly as it would
// aggregate nodes. -store-dir makes the fused ledger durable — a
// SIGKILL'd aggregator restarts with its ledger, sequence epoch and
// dedup state recovered from disk, so the fleet replaying its history
// produces no duplicates.
//
// Usage:
//
//	rfdumpc -nodes lab1=10.0.0.1:7532,lab2=10.0.0.2:7532
//	rfdumpc -discover :7331            # nodes announce themselves
//	                                   # (rfdumpd -announce host:7331)
//	rfdumpc -discover :7332 -node rack1 -parent root-host:7331
//	                                   # mid-tier: aggregate local
//	                                   # beacons, announce upward
//
// Then:
//
//	curl localhost:7533/api/nodes                 # fleet + subscription state
//	curl localhost:7533/api/streams               # all sensors' streams
//	curl localhost:7533/api/detections            # fused, deduplicated
//	curl "localhost:7533/api/detections?evidence=1"  # per-sensor evidence
//	curl -N localhost:7533/api/live               # fused SSE feed
//	curl localhost:7533/api/history               # fused WAL bounds
//	curl localhost:7533/healthz                   # 503 while a node is down
//
// Static -nodes and -discover compose: static nodes are permanent,
// discovered nodes come and go with their beacons.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rfdump/internal/cluster"
	"rfdump/internal/history"
	"rfdump/internal/metrics"
)

func main() {
	var (
		httpAddr   = flag.String("http", "127.0.0.1:7533", "HTTP API address")
		nodes      = flag.String("nodes", "", "static fleet: comma list of name=host:port rfdumpd (or rfdumpc) API addresses")
		discover   = flag.String("discover", "", "listen for node beacons on this UDP address (rfdumpd -announce target)")
		ttl        = flag.Duration("discover-ttl", 6*time.Second, "expire a discovered node after this long without a beacon")
		nodeID     = flag.String("node", "", "this aggregator's node id in a broker tree (default: hostname)")
		parent     = flag.String("parent", "", "announce this aggregator to a parent's -discover address (broker tree)")
		parentI    = flag.Duration("parent-interval", 2*time.Second, "beacon interval toward -parent")
		storeDir   = flag.String("store-dir", "", "persist the fused ledger to disk segments here (survives SIGKILL)")
		storeMaxB  = flag.Int64("store-max-bytes", 0, "fused ledger store size bound (0 = engine default)")
		storeMaxA  = flag.Duration("store-max-age", 0, "fused ledger store age bound (0 = engine default)")
		overlap    = flag.Float64("match-overlap", 0.5, "fraction of the shorter span two sightings must overlap to fuse")
		slack      = flag.Int64("match-slack", 64, "clock-skew allowance in sample ticks when matching spans across sensors")
		lookback   = flag.Int("match-lookback", 512, "recent fused detections scanned per match (the reorder horizon)")
		ledger     = flag.Int("ledger-cap", 65536, "retained fused detections (oldest evicted)")
		queue      = flag.Int("sse-queue", 256, "per-subscriber live-feed queue length (slow clients drop past this)")
		sseEvict   = flag.Int("sse-evict", 1024, "consecutive live-feed drops before a slow subscriber is evicted (negative disables)")
		shards     = flag.Int("sse-shards", 0, "subscriber map shards for fan-out (0 = one per core)")
		stall      = flag.Duration("stall-after", 5*time.Second, "/healthz degrades when a node subscription is down this long")
		queryRPS   = flag.Float64("query-rps", 0, "per-host rate limit on DVR query endpoints (0 = default 20, negative disables)")
		queryBurst = flag.Int("query-burst", 0, "per-host burst on DVR query endpoints (0 = 2x rate)")
	)
	flag.Parse()

	if *nodes == "" && *discover == "" {
		fmt.Fprintln(os.Stderr, "rfdumpc: need -nodes and/or -discover (an aggregator with no fleet watches nothing)")
		os.Exit(2)
	}

	reg := metrics.NewRegistry()
	var store history.Store
	if *storeDir != "" {
		var err error
		store, err = history.OpenDisk(history.DiskConfig{
			Dir:      *storeDir,
			MaxBytes: *storeMaxB,
			MaxAge:   *storeMaxA,
			Registry: reg,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "rfdumpc: ledger store:", err)
			os.Exit(1)
		}
	}
	agg, err := cluster.NewAggregator(cluster.AggregatorConfig{
		Match: cluster.MatchConfig{
			MinOverlap: *overlap,
			SlackTicks: *slack,
			Lookback:   *lookback,
			LedgerCap:  *ledger,
		},
		Store:      store,
		SSEQueue:   *queue,
		EvictAfter: *sseEvict,
		Shards:     *shards,
		StallAfter: *stall,
		QueryRPS:   *queryRPS,
		QueryBurst: *queryBurst,
		Registry:   reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rfdumpc:", err)
		os.Exit(1)
	}
	if store != nil {
		if last := agg.Ledger().WAL().LastSeq(); last > 0 {
			fmt.Fprintf(os.Stderr, "rfdumpc: fused ledger recovered from %s (last seq %d, %d retained)\n",
				*storeDir, last, agg.Fuser().Len())
		}
	}

	n := 0
	for _, spec := range strings.Split(*nodes, ",") {
		if spec = strings.TrimSpace(spec); spec == "" {
			continue
		}
		name, api, ok := strings.Cut(spec, "=")
		if !ok || name == "" || api == "" {
			fmt.Fprintf(os.Stderr, "rfdumpc: bad -nodes entry %q (want name=host:port)\n", spec)
			os.Exit(2)
		}
		agg.Add(name, api)
		n++
	}

	var disc *cluster.Discoverer
	if *discover != "" {
		var err error
		disc, err = cluster.NewDiscoverer(cluster.DiscoverConfig{
			Listen:   *discover,
			TTL:      *ttl,
			OnNode:   agg.Discovered,
			Registry: reg,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "rfdumpc: discover:", err)
			os.Exit(1)
		}
	}

	apiLn, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rfdumpc: http listen:", err)
		os.Exit(1)
	}
	api := &http.Server{Handler: agg.Handler()}
	go func() {
		if err := api.Serve(apiLn); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "rfdumpc: http:", err)
		}
	}()
	switch {
	case disc != nil:
		fmt.Fprintf(os.Stderr, "rfdumpc: API on http://%s, %d static nodes, discovering on %s\n",
			apiLn.Addr(), n, disc.Addr())
	default:
		fmt.Fprintf(os.Stderr, "rfdumpc: API on http://%s, %d static nodes\n", apiLn.Addr(), n)
	}

	// Broker tree: announce this aggregator upward exactly as rfdumpd
	// announces to us — a parent rfdumpc discovers and subscribes to
	// this tier with no new wire concepts. (The wildcard API host is
	// fine: the parent's discoverer substitutes the datagram source.)
	var ann *cluster.Announcer
	if *parent != "" {
		node := *nodeID
		if node == "" {
			node, _ = os.Hostname()
		}
		ann, err = cluster.NewAnnouncer(cluster.AnnounceConfig{
			Target:   *parent,
			Node:     node,
			API:      apiLn.Addr().String(),
			Interval: *parentI,
			Info: func() (int, int) {
				return 0, agg.Ledger().Streams()
			},
			Registry: reg,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "rfdumpc: parent announce:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "rfdumpc: announcing as %q to parent %s every %s\n", node, *parent, *parentI)
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "rfdumpc: signal — shutting down")
	if ann != nil {
		_ = ann.Close()
	}
	if disc != nil {
		_ = disc.Close()
	}
	agg.Close()
	_ = api.Close()

	fused := reg.Counter("cluster/detections_fused").Load()
	merged := reg.Counter("cluster/evidence_merged").Load()
	fmt.Fprintf(os.Stderr, "rfdumpc: done: %d fused detections, %d cross-sensor merges\n", fused, merged)
}
