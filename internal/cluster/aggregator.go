package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"rfdump/internal/history"
	"rfdump/internal/metrics"
	"rfdump/internal/server"
	"rfdump/internal/serving"
)

// AggregatorConfig configures the fleet aggregator.
type AggregatorConfig struct {
	// Match tunes cross-sensor fusion (zero value = defaults).
	Match MatchConfig
	// Store persists the fused ledger WAL (nil = in-memory; a
	// disk-backed store survives SIGKILL with bounds, seqs and dedup
	// state intact). The aggregator owns it and closes it in Close.
	Store history.Store
	// SSEQueue / EvictAfter / Shards configure the fan-out broker
	// (defaults 64 / 256 / per-core).
	SSEQueue   int
	EvictAfter int
	Shards     int
	// StallAfter marks a node unhealthy once its subscription has been
	// down this long (default 5s). /healthz degrades while any node is
	// past it and recovers when the manager reconnects.
	StallAfter time.Duration
	// StreamsTimeout bounds the per-node /api/streams fan-out poll
	// (default 2s): one stalled node delays the merged view at most
	// this long and lands in the response's per-node error map instead
	// of hanging every caller.
	StreamsTimeout time.Duration
	// QueryRPS / QueryBurst rate-limit the DVR query endpoints per
	// client host, as on rfdumpd (defaults 20 rps, burst 40; negative
	// RPS disables).
	QueryRPS   float64
	QueryBurst int
	// Client, backoff and seed pass through to the Manager.
	Client     *http.Client
	MinBackoff time.Duration
	MaxBackoff time.Duration
	Seed       uint64
	// Clock passes through to the Manager (default SystemClock).
	Clock Clock
	// Registry receives all cluster/* and server/sse/* metrics; nil
	// disables metrics (the /api/metricz endpoint then serves an empty
	// snapshot).
	Registry *metrics.Registry
}

// Aggregator is the rfdumpc core: a Manager subscribed to every known
// node, a durable FusedLedger deduplicating their overlapping
// detections, and the same serving surface rfdumpd exports — streams,
// detections, live SSE with store catch-up, DVR queries, health — so a
// fleet looks to clients like one big monitor. Because the surface is
// identical (it is the same serving.Core code), an aggregator can
// subscribe to other aggregators: broker trees of any depth need no
// new wire concepts, and fusion stays idempotent level over level.
//
// Node-local stream ids collide across a fleet, so the ledger assigns
// each (node, stream) pair a fleet-unique fused stream id on first
// sight and rewrites all exported records with it.
type Aggregator struct {
	cfg     AggregatorConfig
	manager *Manager
	ledger  *FusedLedger
	quota   *serving.Quota
	reg     *metrics.Registry
}

// NewAggregator builds an aggregator (recovering the fused ledger from
// cfg.Store when it holds one); Add or Discovered feed it nodes.
func NewAggregator(cfg AggregatorConfig) (*Aggregator, error) {
	if cfg.SSEQueue <= 0 {
		cfg.SSEQueue = 64
	}
	if cfg.EvictAfter == 0 {
		cfg.EvictAfter = 256
	}
	if cfg.StallAfter <= 0 {
		cfg.StallAfter = 5 * time.Second
	}
	if cfg.StreamsTimeout <= 0 {
		cfg.StreamsTimeout = 2 * time.Second
	}
	ledger, err := NewFusedLedger(LedgerConfig{
		Match:    cfg.Match,
		Store:    cfg.Store,
		Broker:   serving.NewBrokerSharded(cfg.SSEQueue, cfg.EvictAfter, cfg.Shards, cfg.Registry),
		Registry: cfg.Registry,
	})
	if err != nil {
		return nil, err
	}
	a := &Aggregator{
		cfg:    cfg,
		reg:    cfg.Registry,
		ledger: ledger,
		quota:  serving.NewQuota(cfg.QueryRPS, cfg.QueryBurst, cfg.Registry),
	}
	a.manager = NewManager(ManagerConfig{
		Client:     cfg.Client,
		MinBackoff: cfg.MinBackoff,
		MaxBackoff: cfg.MaxBackoff,
		Seed:       cfg.Seed,
		Clock:      cfg.Clock,
		OnEvent:    a.onEvent,
		OnState:    a.onState,
		Registry:   cfg.Registry,
	})
	return a, nil
}

// Add subscribes a node by id and API address (static fleet config).
// The address may belong to another aggregator — the surfaces are
// identical, which is what makes broker trees composable.
func (a *Aggregator) Add(node, api string) { a.manager.Add(node, api) }

// Remove drops a node from the fleet.
func (a *Aggregator) Remove(node string) { a.manager.Remove(node) }

// Discovered is the Discoverer OnNode callback: beacons add nodes,
// expiry removes them.
func (a *Aggregator) Discovered(rec NodeRecord, alive bool) {
	if alive {
		a.manager.Add(rec.Node, rec.API)
	} else {
		a.manager.Remove(rec.Node)
	}
}

// Fuser exposes the fused in-memory ledger (tests, rfbench).
func (a *Aggregator) Fuser() *Fuser { return a.ledger.Fuser() }

// Ledger exposes the durable fused ledger.
func (a *Aggregator) Ledger() *FusedLedger { return a.ledger }

// Manager exposes subscription state (tests, health).
func (a *Aggregator) Manager() *Manager { return a.manager }

// Close stops all subscriptions and releases the ledger store.
func (a *Aggregator) Close() {
	a.manager.Close()
	_ = a.ledger.Close()
}

// onEvent is the manager sink: detections (and a child aggregator's
// detection-updates) feed the ledger, which fuses, journals and
// republishes on this tier's live feed in one step.
func (a *Aggregator) onEvent(node string, ev serving.Event) {
	if (ev.Type != "detection" && ev.Type != "detection-update") || ev.Detection == nil {
		return
	}
	a.ledger.Ingest(node, ev.Stream, ev.Detection)
}

// onState republishes node connectivity edges on the live feed. The
// events carry no sequence number — connectivity is not part of the
// replayable ledger — and seq-less events always pass the SSE catch-up
// seam filter.
func (a *Aggregator) onState(node string, connected bool) {
	typ := "node-down"
	if connected {
		typ = "node-up"
	}
	a.ledger.WAL().Broker().Publish(serving.Event{Type: typ, Error: node})
}

// Handler serves the aggregator API: the fleet-specific routes
//
//	GET /api/streams    — every node's streams, fleet ids, node-tagged,
//	                      polled in parallel under StreamsTimeout with
//	                      per-node errors reported, not hidden
//	GET /api/detections — fused detections (?limit=, ?evidence=1 for
//	                      full per-sensor evidence); "seq" here is the
//	                      fused id, not a /api/live?since= value
//	GET /api/nodes      — fleet membership + subscription status
//
// plus the shared serving core (identical to rfdumpd's, from the same
// handler code): /api/live with ?since= catch-up over the fused WAL,
// /api/history serving the WAL store's bounds, the quota'd DVR query
// routes, /api/metricz, /healthz (503 while any node subscription is
// down past StallAfter) and /readyz.
func (a *Aggregator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/streams", a.handleStreams)
	mux.HandleFunc("/api/detections", a.handleDetections)
	mux.HandleFunc("/api/nodes", a.handleNodes)
	a.core().Register(mux)
	return mux
}

// core assembles the shared serving surface over the fused ledger's
// WAL — the same serving.Ledger type rfdumpd's hub writes through,
// which is what lets a parent aggregator subscribe to this one with
// the same manager code.
func (a *Aggregator) core() *serving.Core {
	return &serving.Core{
		Ledger:      a.ledger.WAL(),
		Quota:       a.quota,
		Registry:    a.reg,
		Refresh:     a.refreshGauges,
		FeedComment: ": rfdumpc fused feed",
		Health:      a.healthProbe,
		Ready:       a.readyProbe,
	}
}

func (a *Aggregator) refreshGauges() {
	a.reg.Gauge("cluster/nodes_connected").Set(int64(a.manager.Connected()))
	a.reg.Gauge("cluster/ledger_size").Set(int64(a.Fuser().Len()))
}

// fleetStream is a node's StreamInfo under its fleet id, tagged with
// the node that owns it.
type fleetStream struct {
	server.StreamInfo
	Node string `json:"node"`
}

// handleStreams polls every connected node's /api/streams in parallel
// and merges the results under fleet ids. The fan-out is bounded by
// StreamsTimeout, so one stalled node cannot hang the merged view; a
// node that fails or times out appears in the response's "errors" map
// (node → message) while the rest of the fleet is served — partial
// results over no results, with the partiality explicit.
func (a *Aggregator) handleStreams(w http.ResponseWriter, r *http.Request) {
	client := a.cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	ctx, cancel := context.WithTimeout(r.Context(), a.cfg.StreamsTimeout)
	defer cancel()

	type result struct {
		node    string
		streams []fleetStream
		err     error
	}
	var pending int
	results := make(chan result)
	for _, st := range a.manager.Nodes() {
		if !st.Connected {
			continue
		}
		pending++
		go func(st NodeStatus) {
			streams, err := a.fetchStreams(ctx, client, st)
			results <- result{node: st.Node, streams: streams, err: err}
		}(st)
	}

	out := make([]fleetStream, 0)
	errs := make(map[string]string)
	for ; pending > 0; pending-- {
		res := <-results
		if res.err != nil {
			errs[res.node] = res.err.Error()
			continue
		}
		out = append(out, res.streams...)
	}
	// Parallel arrival order is nondeterministic; fleet ids are not.
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	body := map[string]any{"streams": out}
	if len(errs) > 0 {
		body["errors"] = errs
	}
	serving.WriteJSON(w, body)
}

// fetchStreams polls one node's stream table and rewrites ids into the
// fleet id space.
func (a *Aggregator) fetchStreams(ctx context.Context, client *http.Client, st NodeStatus) ([]fleetStream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("http://%s/api/streams", st.API), nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var body struct {
		Streams []server.StreamInfo `json:"streams"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	out := make([]fleetStream, 0, len(body.Streams))
	for _, si := range body.Streams {
		fs := fleetStream{StreamInfo: si, Node: st.Node}
		fs.ID = a.ledger.FusedStream(st.Node, si.ID)
		out = append(out, fs)
	}
	return out, nil
}

func (a *Aggregator) handleDetections(w http.ResponseWriter, r *http.Request) {
	limit, err := serving.QueryUint(r, "limit")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fused := a.Fuser().Recent(int(limit))
	if r.URL.Query().Get("evidence") != "" {
		serving.WriteJSON(w, map[string]any{"detections": fused})
		return
	}
	// Flattened single-node schema, so fleet-unaware clients work
	// unchanged against the aggregator.
	recs := make([]history.DetectionRecord, len(fused))
	for i := range fused {
		recs[i] = fused[i].record()
	}
	serving.WriteJSON(w, map[string]any{"detections": recs})
}

func (a *Aggregator) handleNodes(w http.ResponseWriter, r *http.Request) {
	serving.WriteJSON(w, map[string]any{"nodes": a.manager.Nodes()})
}

// clusterHealth is the JSON body of the aggregator's /healthz.
type clusterHealth struct {
	Status string `json:"status"`
	// Nodes / Connected count the fleet; Down lists nodes whose
	// subscription has been broken past StallAfter.
	Nodes     int          `json:"nodes"`
	Connected int          `json:"connected"`
	Down      []NodeStatus `json:"down,omitempty"`
	// Fused ledger + dedup counters at a glance.
	Fused      int64 `json:"fused"`
	Merged     int64 `json:"merged"`
	Duplicates int64 `json:"duplicates"`
	Resets     int64 `json:"resets"`
}

func (a *Aggregator) health() clusterHealth {
	h := clusterHealth{
		Status:     "ok",
		Fused:      a.reg.Counter("cluster/detections_fused").Load(),
		Merged:     a.reg.Counter("cluster/evidence_merged").Load(),
		Duplicates: a.reg.Counter("cluster/events_duplicate").Load(),
		Resets:     a.reg.Counter("cluster/node_resets").Load(),
	}
	stall := a.cfg.StallAfter.Seconds()
	for _, st := range a.manager.Nodes() {
		h.Nodes++
		if st.Connected {
			h.Connected++
			continue
		}
		if st.DownS >= stall {
			h.Down = append(h.Down, st)
		}
	}
	return h
}

// healthProbe backs /healthz: degraded (503) while any fleet node's
// subscription has been down past StallAfter — mirroring rfdumpd's
// stall probe — recovering the moment the manager reconnects.
func (a *Aggregator) healthProbe() (any, bool) {
	h := a.health()
	if len(h.Down) > 0 {
		h.Status = "degraded"
		return h, false
	}
	return h, true
}

// readyProbe backs /readyz (currently always ready; the body carries
// the same fleet snapshot as /healthz).
func (a *Aggregator) readyProbe() (any, bool) {
	return a.health(), true
}
