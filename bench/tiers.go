package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"rfdump/internal/cluster"
	"rfdump/internal/core"
	"rfdump/internal/experiments"
	"rfdump/internal/iq"
	"rfdump/internal/metrics"
	"rfdump/internal/protocols"
	_ "rfdump/internal/protocols/builtin"
	"rfdump/internal/server"
)

// node is one in-process rfdumpd on loopback sockets, configured as
// cmd/rfdumpd's defaults.
type node struct {
	name   string
	daemon *server.Daemon
	reg    *metrics.Registry
	ingest net.Listener
	served chan struct{} // closed when the ingest accept loop has exited
	api    *apiServer
}

// apiServer is an http.Server on a loopback port.
type apiServer struct {
	srv  *http.Server
	addr string
	done chan struct{}
}

func serveAPI(h http.Handler) (*apiServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	a := &apiServer{srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(a.done)
		_ = a.srv.Serve(ln) // returns ErrServerClosed from close()
	}()
	return a, nil
}

// close drops every connection (SSE handlers see their context
// cancelled) and waits for the accept loop to exit.
func (a *apiServer) close() {
	_ = a.srv.Close()
	<-a.done
}

func (a *apiServer) url(path string) string { return "http://" + a.addr + path }

// analyzerOptions is the piconet every workload's Bluetooth source uses.
var analyzerOptions = protocols.AnalyzerOptions{
	LAP: uint32(experiments.PiconetLAP), UAP: byte(experiments.PiconetUAP), Channels: 8,
}

// newEngine builds the rfdumpd default engine: timing+phase detectors,
// every registered analyzer, inline demod.
func newEngine(reg *metrics.Registry) (*core.Engine, error) {
	cfg, err := core.ParseDetectors("timing,phase")
	if err != nil {
		return nil, err
	}
	cfg.Metrics = reg
	return core.NewEngine(iq.NewClock(airRate), cfg, core.RegistryAnalyzerFactories(analyzerOptions)...), nil
}

// startNode stands one daemon up. storeDir non-empty makes it the DVR
// node: disk store, capture on (tiles are on by default everywhere).
func startNode(name, storeDir string) (*node, error) {
	reg := metrics.NewRegistry()
	eng, err := newEngine(reg)
	if err != nil {
		return nil, err
	}
	d, err := server.NewDaemon(server.Options{
		Engine:   eng,
		Registry: reg,
		Session:  core.StreamConfig{WindowSamples: 1_600_000},
		// The measuring subscriber must never be the reason an event is
		// missing: a deep queue and no eviction.
		SubscriberQueue: 4096,
		EvictAfter:      -1,
		StoreDir:        storeDir,
		Capture:         storeDir != "",
	})
	if err != nil {
		return nil, err
	}
	n := &node{name: name, daemon: d, reg: reg, served: make(chan struct{})}
	if n.ingest, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		d.Close()
		return nil, err
	}
	go func() {
		defer close(n.served)
		_ = d.Serve(n.ingest) // returns once close() closes the daemon
	}()
	if n.api, err = serveAPI(d.APIHandler()); err != nil {
		n.stopIngest()
		return nil, err
	}
	return n, nil
}

// stopIngest closes the listener and every ingest connection and waits
// for the sessions and the accept loop.
func (n *node) stopIngest() {
	n.daemon.Close()
	<-n.served
}

func (n *node) close() {
	n.api.close()
	n.stopIngest()
}

// aggregator is one in-process rfdumpc.
type aggregator struct {
	agg *cluster.Aggregator
	reg *metrics.Registry
	api *apiServer
}

func startAggregator(queue, evictAfter int) (*aggregator, error) {
	reg := metrics.NewRegistry()
	agg, err := cluster.NewAggregator(cluster.AggregatorConfig{
		SSEQueue: queue, EvictAfter: evictAfter, Registry: reg,
	})
	if err != nil {
		return nil, err
	}
	api, err := serveAPI(agg.Handler())
	if err != nil {
		agg.Close()
		return nil, err
	}
	return &aggregator{agg: agg, reg: reg, api: api}, nil
}

func (a *aggregator) close() {
	a.agg.Close() // stops the subscriptions first, then the store
	a.api.close()
}

// tiers is everything one run stands up.
type tiers struct {
	nodes     []*node
	mid, root *aggregator
	storeDir  string
}

// standUp builds the workload's tiers and waits until the aggregators'
// subscriptions are connected, so the live path (not history replay)
// carries the first detection.
func standUp(w workload, scratch string) (*tiers, error) {
	t := &tiers{}
	ok := false
	defer func() {
		if !ok {
			t.close()
		}
	}()
	if w.dvr {
		if err := os.MkdirAll(scratch, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(scratch, "dvr-")
		if err != nil {
			return nil, err
		}
		t.storeDir = dir
	}
	sensors := 1
	if w.tree {
		sensors = 2
	}
	for i := 0; i < sensors; i++ {
		n, err := startNode(fmt.Sprintf("s%d", i), t.storeDir)
		if err != nil {
			return nil, err
		}
		t.nodes = append(t.nodes, n)
	}
	if w.tree {
		var err error
		// mid runs cmd/rfdumpc's defaults; root carries the measuring
		// subscriber, so it gets the deep, never-evicting queue.
		if t.mid, err = startAggregator(256, 1024); err != nil {
			return nil, err
		}
		if t.root, err = startAggregator(4096, -1); err != nil {
			return nil, err
		}
		for _, n := range t.nodes {
			t.mid.agg.Add(n.name, n.api.addr)
		}
		t.root.agg.Add("mid", t.mid.api.addr)
		deadline := time.Now().Add(10 * time.Second)
		for t.mid.agg.Manager().Connected() < len(t.nodes) || t.root.agg.Manager().Connected() < 1 {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("aggregator subscriptions not connected after 10 s")
			}
			time.Sleep(time.Millisecond)
		}
	}
	ok = true
	return t, nil
}

// close tears the tiers down top first and removes the DVR store.
func (t *tiers) close() {
	if t.root != nil {
		t.root.close()
	}
	if t.mid != nil {
		t.mid.close()
	}
	for _, n := range t.nodes {
		n.close()
	}
	if t.storeDir != "" {
		_ = os.RemoveAll(t.storeDir)
	}
}
