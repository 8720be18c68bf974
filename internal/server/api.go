package server

import (
	"fmt"
	"net/http"
	"time"

	"rfdump/internal/protocols"
	"rfdump/internal/report"
	"rfdump/internal/serving"
)

// APIHandler returns the daemon's HTTP surface. The node-specific
// routes:
//
//	GET /api/streams     — every ingest stream with wire + pipeline counters
//	GET /api/detections  — recent fast-detector verdicts (?stream=, ?limit=);
//	                       under the per-host query quota
//	GET /api/packets     — recent decoded packets, trace.PacketRecord
//	                       schema; same quota
//	GET /api/waterfall   — spectrogram of a stream's recent samples
//	GET /api/protocols   — the protocol module registry: every registered
//	                       module with its detectors and capabilities
//
// plus the shared serving core (identical on rfdumpd and rfdumpc, so a
// fleet client — or a parent aggregator in a broker tree — cannot tell
// the tiers apart):
//
//	GET /api/live        — server-sent events feed (?types=detection,packet,
//	                       ?since=<seq> replays stored history first)
//	GET /api/history     — store kind, retention, bounds
//	GET /api/metricz     — metrics registry snapshot (?format=text|json)
//	GET /healthz         — liveness: 503 while any active ingest stream
//	                       has been silent past the stall threshold
//	GET /readyz          — readiness: 503 once draining has begun
//
// and the spectrum-DVR query surface (cursor pagination over the
// history store; per-host rate limited, 429 past the quota):
//
//	GET /api/streams/{id}/detections     — ?from=&to=&limit=&cursor=
//	GET /api/streams/{id}/packets        — same pagination
//	GET /api/streams/{id}/tiles          — persisted waterfall columns
//	GET /api/streams/{id}/snippets/{det} — captured IQ burst behind
//	                                       detection seq {det}; JSON with
//	                                       base64 IQ, or ?format=trace for
//	                                       RFDT bytes rfdump can replay
func (d *Daemon) APIHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/streams", d.handleStreams)
	mux.HandleFunc("/api/detections", d.quota.Limit(recentHandler("detections", d.hub.Detections)))
	mux.HandleFunc("/api/packets", d.quota.Limit(recentHandler("packets", d.hub.Packets)))
	mux.HandleFunc("/api/waterfall", d.handleWaterfall)
	mux.HandleFunc("/api/protocols", d.handleProtocols)
	d.core().Register(mux)
	return mux
}

// core assembles the shared serving surface over the hub's ledger: live
// events are published under store sequence numbers, so the SSE
// catch-up replay and the live tail meet without duplicates.
func (d *Daemon) core() *serving.Core {
	return &serving.Core{
		Ledger:      d.hub.ledger,
		Quota:       d.quota,
		Registry:    d.reg,
		Refresh:     d.refreshGauges,
		FeedComment: ": rfdumpd live feed",
		Health:      d.healthProbe,
		Ready:       d.readyProbe,
	}
}

// healthResponse is the JSON body of /healthz and /readyz: ingest
// liveness, session counts, and the resilience ledger at a glance.
type healthResponse struct {
	Status        string      `json:"status"`
	Draining      bool        `json:"draining"`
	ActiveStreams int64       `json:"active_streams"`
	Connections   int64       `json:"connections"`
	Stalled       []StallInfo `json:"stalled,omitempty"`
	// Resilience counters: reconnects stitched, gap samples accounted,
	// slow SSE consumers evicted, idle-reaped ingest connections.
	Reconnects       int64 `json:"reconnects"`
	GapSamples       int64 `json:"gap_samples"`
	ConnsEvicted     int64 `json:"conns_evicted"`
	HeartbeatsMissed int64 `json:"heartbeats_missed"`
}

// health builds the shared health snapshot.
func (d *Daemon) health() healthResponse {
	resp := healthResponse{
		Status:           "ok",
		Draining:         d.draining.Load(),
		ActiveStreams:    d.hub.countActive(),
		Connections:      d.conns.Load(),
		Reconnects:       d.reg.Counter("wire/reconnects").Load(),
		GapSamples:       d.reg.Counter("wire/gap_samples").Load(),
		ConnsEvicted:     d.reg.Counter("server/conns_evicted").Load(),
		HeartbeatsMissed: d.hbMissed.Load(),
	}
	if d.opt.StallAfter > 0 {
		resp.Stalled = d.hub.Stalled(d.opt.StallAfter, time.Now())
	}
	return resp
}

// healthProbe backs /healthz: not-ok (503) the moment any active
// stream has gone silent past the stall threshold. A reconnect that
// stitches the stream back brings it back to 200 — the probe an
// orchestrator should restart the daemon on, not the one it should
// route traffic by.
func (d *Daemon) healthProbe() (any, bool) {
	resp := d.health()
	if len(resp.Stalled) > 0 {
		resp.Status = "stalled"
		return resp, false
	}
	return resp, true
}

// readyProbe backs /readyz: not-ok (503) once a drain has begun
// (existing sessions still flush, but new ingest is refused).
func (d *Daemon) readyProbe() (any, bool) {
	resp := d.health()
	if resp.Draining {
		resp.Status = "draining"
		return resp, false
	}
	return resp, true
}

// protocolInfo is the JSON shape of one registered module.
type protocolInfo struct {
	Key          string             `json:"key"`
	Label        string             `json:"label"`
	Family       string             `json:"family"`
	Aliases      []string           `json:"aliases,omitempty"`
	Capabilities []string           `json:"capabilities"`
	Detectors    []protocolDetector `json:"detectors,omitempty"`
}

type protocolDetector struct {
	Name    string `json:"name"`
	Class   string `json:"class"`
	Default bool   `json:"default"`
}

// handleProtocols serves the module registry: which protocols this
// daemon knows, how each is detected, and what else it can do with
// them. A module registered out of tree appears here automatically.
func (d *Daemon) handleProtocols(w http.ResponseWriter, r *http.Request) {
	var out []protocolInfo
	for _, m := range protocols.Modules() {
		info := protocolInfo{
			Key:          m.Key,
			Label:        m.Label,
			Family:       m.ID.FamilyName(),
			Aliases:      m.Aliases,
			Capabilities: m.Capabilities(),
		}
		for _, s := range m.Detectors() {
			info.Detectors = append(info.Detectors, protocolDetector{
				Name: s.Name, Class: s.Class.String(), Default: s.Default,
			})
		}
		out = append(out, info)
	}
	serving.WriteJSON(w, map[string]any{"protocols": out})
}

func (d *Daemon) handleStreams(w http.ResponseWriter, r *http.Request) {
	serving.WriteJSON(w, map[string]any{"streams": d.hub.Streams()})
}

// recentHandler serves the newest records of one type (?stream=,
// ?limit=), oldest first.
func recentHandler[T any](field string, recent func(stream uint64, limit int) []T) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		stream, err := serving.QueryUint(r, "stream")
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		limit, err := serving.QueryUint(r, "limit")
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		serving.WriteJSON(w, map[string]any{field: recent(stream, int(limit))})
	}
}

// waterfallResponse is the JSON shape of /api/waterfall.
type waterfallResponse struct {
	Stream       uint64               `json:"stream"`
	TotalSamples int64                `json:"total_samples"`
	Waterfall    report.WaterfallData `json:"waterfall"`
}

func (d *Daemon) handleWaterfall(w http.ResponseWriter, r *http.Request) {
	id, err := serving.QueryUint(r, "stream")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var (
		st *Stream
		ok bool
	)
	if id != 0 {
		st, ok = d.hub.Stream(id)
	} else {
		st, ok = d.hub.newestStream()
	}
	if !ok {
		http.Error(w, "no streams", http.StatusNotFound)
		return
	}
	if st.ring == nil {
		http.Error(w, "waterfall disabled", http.StatusNotFound)
		return
	}
	rows, err := serving.QueryUint(r, "rows")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cols, err := serving.QueryUint(r, "cols")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if rows == 0 {
		rows = 16
	}
	if cols == 0 {
		cols = 48
	}
	samples := st.ring.Snapshot()
	data, ready := report.WaterfallGrid(samples, d.hub.clock.Rate, int(rows), int(cols))
	if !ready {
		http.Error(w, "stream too short for a waterfall", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "stream %d (%d samples seen)\n%s", st.ID(), st.ring.Total(), data.Render())
		return
	}
	serving.WriteJSON(w, waterfallResponse{Stream: st.ID(), TotalSamples: st.ring.Total(), Waterfall: data})
}
