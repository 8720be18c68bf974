package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"rfdump/internal/history"
	"rfdump/internal/metrics"
	"rfdump/internal/server"
	"rfdump/internal/serving"
)

// withStreams extends the fake node with the /api/streams inventory
// endpoint the aggregator's merged stream view polls.
func withStreams(n *fakeNode, streams ...server.StreamInfo) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", n.handler())
	mux.HandleFunc("/api/streams", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{"streams": streams})
	})
	return mux
}

func newTestAggregator(reg *metrics.Registry, stall time.Duration) *Aggregator {
	agg, err := NewAggregator(AggregatorConfig{
		SSEQueue: 64, EvictAfter: -1,
		StallAfter: stall,
		MinBackoff: time.Millisecond,
		MaxBackoff: 10 * time.Millisecond,
		Seed:       1,
		Registry:   reg,
	})
	if err != nil {
		panic(err)
	}
	return agg
}

// journaled is the last seq in agg's fused-ledger journal. A WAL append
// is the last step of an ingest, after the fuser has the record, so a
// wait on it also covers everything the fuser shows.
func journaled(agg *Aggregator) uint64 { return agg.Ledger().WAL().Store().LastSeq() }

// fusedAcross reports whether one fused record carries evidence from
// every one of nodes.
func fusedAcross(f *Fuser, nodes ...string) bool {
	for _, fd := range f.Recent(0) {
		have := map[string]bool{}
		for _, ev := range fd.Evidence {
			have[ev.Node] = true
		}
		all := true
		for _, n := range nodes {
			all = all && have[n]
		}
		if all {
			return true
		}
	}
	return false
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestAggregatorSurface drives the full HTTP surface against two fake
// nodes that both heard the same packet: the fleet view must show both
// nodes' streams under distinct fleet ids, one fused detection with
// two-sensor evidence, and matching ledger bounds on /api/history.
func TestAggregatorSurface(t *testing.T) {
	shared := int64(5_000_000) // the packet both sensors heard
	nodeA, nodeB := &fakeNode{}, &fakeNode{}
	nodeA.set([]serving.Event{detEvent(1, shared), detEvent(2, 20_000_000)})
	evB := detEvent(1, shared+30) // 30 ticks of skew at sensor B
	evB.Detection.Confidence = 0.95
	nodeB.set([]serving.Event{evB})

	tsA := httptest.NewServer(withStreams(nodeA, server.StreamInfo{ID: 1, Remote: "radioA"}))
	defer tsA.Close()
	tsB := httptest.NewServer(withStreams(nodeB, server.StreamInfo{ID: 1, Remote: "radioB"}))
	defer tsB.Close()

	reg := metrics.NewRegistry()
	agg := newTestAggregator(reg, 5*time.Second)
	defer agg.Close()
	agg.Add("labA", strings.TrimPrefix(tsA.URL, "http://"))
	agg.Add("labB", strings.TrimPrefix(tsB.URL, "http://"))

	api := httptest.NewServer(agg.Handler())
	defer api.Close()

	// Wait on what the assertions read — Fuser().Len() == 2 is not
	// enough, node A alone reaches it: both nodes' evidence on the shared
	// packet's fused record, and all three WAL records (two creates, one
	// merge) journaled, which is the last step of an ingest.
	waitFor(t, "both nodes' evidence fused and journaled", func() bool {
		return fusedAcross(agg.Fuser(), "labA", "labB") &&
			journaled(agg) == 3 && agg.Manager().Connected() == 2
	})

	// Flattened view: fleet-unaware clients see plain detection records.
	var flat struct {
		Detections []history.DetectionRecord `json:"detections"`
	}
	getJSON(t, api.URL+"/api/detections", &flat)
	if len(flat.Detections) != 2 {
		t.Fatalf("flattened detections: %d, want 2", len(flat.Detections))
	}

	// Evidence view: the shared packet fused across both sensors.
	var full struct {
		Detections []FusedDetection `json:"detections"`
	}
	getJSON(t, api.URL+"/api/detections?evidence=1", &full)
	// Arrival order across two live subscriptions is nondeterministic,
	// so the canonical span is whichever sensor landed first — find the
	// fused record by its two-sensor evidence.
	var fusedShared *FusedDetection
	for i := range full.Detections {
		if full.Detections[i].Sensors == 2 {
			fusedShared = &full.Detections[i]
		}
	}
	if fusedShared == nil {
		t.Fatalf("shared packet never fused: %+v", full.Detections)
	}
	if len(fusedShared.Evidence) != 2 {
		t.Fatalf("shared packet evidence=%d, want 2", len(fusedShared.Evidence))
	}
	if d := fusedShared.AbsStart - shared; d < 0 || d > 30 {
		t.Fatalf("fused span start %d not near %d", fusedShared.AbsStart, shared)
	}
	if fusedShared.Confidence != 0.95 {
		t.Fatalf("fused confidence %v, want sensor B's 0.95", fusedShared.Confidence)
	}

	// Stream inventory: both nodes' radios under distinct fleet ids.
	var streams struct {
		Streams []struct {
			ID     uint64 `json:"id"`
			Remote string `json:"remote"`
			Node   string `json:"node"`
		} `json:"streams"`
	}
	getJSON(t, api.URL+"/api/streams", &streams)
	if len(streams.Streams) != 2 {
		t.Fatalf("fleet streams: %d, want 2", len(streams.Streams))
	}
	ids := map[uint64]string{}
	for _, s := range streams.Streams {
		if s.Node == "" {
			t.Fatalf("stream missing node tag: %+v", s)
		}
		ids[s.ID] = s.Node
	}
	if len(ids) != 2 {
		t.Fatalf("node-local stream ids collided in the fleet view: %v", ids)
	}

	// /api/history now serves the fused WAL store's bounds — the same
	// shape a node's store stats endpoint serves, which is what lets an
	// aggregator itself be aggregated. Three sightings changed fused
	// state (two creates + one cross-sensor merge) = three WAL records.
	var hist struct {
		Kind       string `json:"kind"`
		LastSeq    uint64 `json:"last_seq"`
		Detections int    `json:"detections"`
	}
	getJSON(t, api.URL+"/api/history", &hist)
	if hist.Kind != "memory" || hist.LastSeq != 3 || hist.Detections != 3 {
		t.Fatalf("history bounds: %+v", hist)
	}

	var nodes struct {
		Nodes []NodeStatus `json:"nodes"`
	}
	getJSON(t, api.URL+"/api/nodes", &nodes)
	if len(nodes.Nodes) != 2 || !nodes.Nodes[0].Connected || !nodes.Nodes[1].Connected {
		t.Fatalf("node status: %+v", nodes.Nodes)
	}

	// Metrics surface: the cluster counters are exported.
	resp, err := http.Get(api.URL + "/api/metricz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"cluster/detections_fused", "cluster/evidence_merged", "cluster/nodes_connected"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metricz missing %s:\n%s", want, body)
		}
	}
}

// TestAggregatorHealthzDegradeRecover kills a node and brings it back
// on the same port: /healthz must degrade to 503 once the outage
// passes StallAfter, and recover to 200 when the manager resubscribes.
func TestAggregatorHealthzDegradeRecover(t *testing.T) {
	node := &fakeNode{}
	node.set([]serving.Event{detEvent(1, 1_000_000)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := &http.Server{Handler: node.handler()}
	go srv.Serve(ln)

	reg := metrics.NewRegistry()
	agg := newTestAggregator(reg, 20*time.Millisecond)
	defer agg.Close()
	agg.Add("lab1", addr)

	api := httptest.NewServer(agg.Handler())
	defer api.Close()

	healthCode := func() int {
		resp, err := http.Get(api.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	waitFor(t, "node up", func() bool { return agg.Manager().Connected() == 1 })
	if code := healthCode(); code != http.StatusOK {
		t.Fatalf("healthy fleet: /healthz = %d, want 200", code)
	}

	_ = srv.Close()
	waitFor(t, "degrade", func() bool { return healthCode() == http.StatusServiceUnavailable })

	var h clusterHealth
	if code := getJSON(t, api.URL+"/readyz", &h); code != http.StatusOK {
		t.Fatalf("/readyz = %d (readiness reports state, it does not gate)", code)
	}
	if h.Nodes != 1 || h.Connected != 0 {
		t.Fatalf("degraded health: %+v", h)
	}

	// Same port comes back — the outage heals without operator action.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv2 := &http.Server{Handler: node.handler()}
	go srv2.Serve(ln2)
	defer srv2.Close()
	waitFor(t, "recover", func() bool { return healthCode() == http.StatusOK })
}

// TestAggregatorLiveReplay exercises the fused /api/live catch-up: a
// late subscriber with ?since= replays the fused ledger before
// tailing, and a node restart replay publishes nothing new on the
// feed.
func TestAggregatorLiveReplay(t *testing.T) {
	node := &fakeNode{}
	node.set([]serving.Event{detEvent(1, 1_000_000), detEvent(2, 2_000_000), detEvent(3, 3_000_000)})
	ts := httptest.NewServer(node.handler())
	defer ts.Close()

	reg := metrics.NewRegistry()
	agg := newTestAggregator(reg, 5*time.Second)
	defer agg.Close()
	agg.Add("lab1", strings.TrimPrefix(ts.URL, "http://"))

	api := httptest.NewServer(agg.Handler())
	defer api.Close()
	waitFor(t, "initial consume journaled", func() bool { return journaled(agg) == 3 })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		api.URL+"/api/live?since=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	events := make(chan serving.Event, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev serving.Event
			if json.Unmarshal([]byte(line[len("data: "):]), &ev) == nil {
				events <- ev
			}
		}
	}()
	next := func(what string) serving.Event {
		select {
		case ev := <-events:
			return ev
		case <-time.After(3 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
			return serving.Event{}
		}
	}

	// Catch-up: fused seqs 2 and 3 replay (1 is behind the cursor).
	if ev := next("replay seq 2"); ev.Seq != 2 || ev.Type != "detection" {
		t.Fatalf("first replayed event: %+v", ev)
	}
	if ev := next("replay seq 3"); ev.Seq != 3 {
		t.Fatalf("second replayed event: %+v", ev)
	}

	// A new packet arrives at the node: it must flow through live.
	node.extend(detEvent(4, 9_000_000))
	if ev := next("live seq 4"); ev.Seq != 4 || ev.Detection == nil {
		t.Fatalf("live event: %+v", ev)
	}

	// Evidence from a second sighting of packet 4 arrives (same span,
	// other detector): published as detection-update, never as a second
	// "detection" — subscribers counting packets stay exact. The update
	// is its own WAL record (seq 5) pointing back at fused id 4.
	upd := detEvent(5, 9_000_000)
	upd.Detection.Detector = "phase"
	node.extend(upd)
	ev := next("detection-update")
	if ev.Type != "detection-update" || ev.Seq != 5 {
		t.Fatalf("merge event: %+v", ev)
	}
	if ev.Detection == nil || ev.Detection.Fused != 4 || !ev.Detection.Merge {
		t.Fatalf("merge event record: %+v", ev.Detection)
	}
}

// TestAggregatorStreamsStalledNode wedges one node's /api/streams and
// asserts the fan-out contract: the merged view still returns within
// StreamsTimeout carrying the healthy node's streams, and the stalled
// node surfaces in the per-node "errors" map instead of hanging — or
// silently truncating — the response.
func TestAggregatorStreamsStalledNode(t *testing.T) {
	good := &fakeNode{}
	good.set([]serving.Event{detEvent(1, 1_000_000)})
	tsGood := httptest.NewServer(withStreams(good, server.StreamInfo{ID: 1, Remote: "radioA"}))
	defer tsGood.Close()

	stalled := &fakeNode{}
	stalled.set(nil)
	mux := http.NewServeMux()
	mux.Handle("/", stalled.handler())
	mux.HandleFunc("/api/streams", func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // wedged: never answers the inventory poll
	})
	tsStalled := httptest.NewServer(mux)
	defer tsStalled.Close()

	reg := metrics.NewRegistry()
	agg, err := NewAggregator(AggregatorConfig{
		SSEQueue: 64, EvictAfter: -1,
		StallAfter:     5 * time.Second,
		StreamsTimeout: 100 * time.Millisecond,
		MinBackoff:     time.Millisecond,
		MaxBackoff:     10 * time.Millisecond,
		Seed:           1,
		Registry:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	agg.Add("labA", strings.TrimPrefix(tsGood.URL, "http://"))
	agg.Add("labB", strings.TrimPrefix(tsStalled.URL, "http://"))

	api := httptest.NewServer(agg.Handler())
	defer api.Close()
	waitFor(t, "both nodes subscribed", func() bool { return agg.Manager().Connected() == 2 })

	var body struct {
		Streams []struct {
			ID   uint64 `json:"id"`
			Node string `json:"node"`
		} `json:"streams"`
		Errors map[string]string `json:"errors"`
	}
	begin := time.Now()
	getJSON(t, api.URL+"/api/streams", &body)
	if elapsed := time.Since(begin); elapsed > 2*time.Second {
		t.Fatalf("merged view took %v; the stalled node must not hang it past StreamsTimeout", elapsed)
	}
	if len(body.Streams) != 1 || body.Streams[0].Node != "labA" {
		t.Fatalf("healthy node's streams missing from partial result: %+v", body.Streams)
	}
	if msg, ok := body.Errors["labB"]; !ok || msg == "" {
		t.Fatalf("stalled node not reported in errors map: %+v", body.Errors)
	}
	if _, ok := body.Errors["labA"]; ok {
		t.Fatalf("healthy node wrongly reported failed: %+v", body.Errors)
	}
}

// TestAggregatorRecordFlattening pins the fused→flat record mapping
// the compatibility surfaces rely on.
func TestAggregatorRecordFlattening(t *testing.T) {
	fd := FusedDetection{
		Seq: 7, Family: "wifi", Channel: 6, TimeS: 0.25,
		AbsStart: 5_000_000, AbsEnd: 5_020_000, Confidence: 0.9, Sensors: 2,
		Evidence: []Evidence{
			{Node: "labA", Stream: 3, Detector: "timing", Confidence: 0.8},
			{Node: "labB", Stream: 4, Detector: "phase", Confidence: 0.9},
		},
	}
	rec := fd.record()
	want := history.DetectionRecord{
		Seq: 7, Stream: 3, TimeS: 0.25, Family: "wifi", Detector: "timing",
		AbsStart: 5_000_000, AbsEnd: 5_020_000, Confidence: 0.9, Channel: 6,
	}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("flattened record:\n got %+v\nwant %+v", rec, want)
	}
}
