package serving

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"rfdump/internal/history"
	"rfdump/internal/metrics"
	"rfdump/internal/trace"
)

// Core is the shared serving surface: the routes both tiers export
// from the same handler code, so a fleet client — or a parent
// aggregator in a broker tree — cannot tell a node from an aggregator.
//
//	GET /api/live         — SSE feed (?types=, ?since= store catch-up)
//	GET /api/history      — ledger/store retention snapshot
//	GET /api/metricz      — metrics registry snapshot
//	GET /healthz          — tier-specific liveness body, 503 on not-ok
//	GET /readyz           — tier-specific readiness body, 503 on not-ok
//
// and the quota'd DVR query surface over the ledger's store:
//
//	GET /api/streams/{id}/detections     — ?from=&to=&limit=&cursor=
//	GET /api/streams/{id}/packets        — same pagination
//	GET /api/streams/{id}/tiles          — persisted waterfall columns
//	GET /api/streams/{id}/snippets/{det} — captured IQ burst (404 on a
//	                                       tier that captures none)
type Core struct {
	// Ledger is the tier's record path (required): its broker carries
	// the live feed, its Replay serves the ?since= catch-up, its store
	// backs /api/history and the paged DVR query routes. A tier that
	// persists only detections (the aggregator's WAL) serves empty
	// packet/tile pages and 404s snippets from the same handlers.
	Ledger *Ledger
	// Quota rate-limits the DVR query routes per host (nil = unlimited).
	Quota *Quota
	// Registry backs /api/metricz; Refresh, if set, runs before each
	// scrape (pull-style gauges).
	Registry *metrics.Registry
	Refresh  func()
	// FeedComment is the SSE hello comment (": rfdumpd live feed").
	FeedComment string
	// Health and Ready build the tier-specific probe bodies; ok=false
	// serves the body under 503. Both required.
	Health func() (body any, ok bool)
	Ready  func() (body any, ok bool)
}

// Register installs the shared routes on mux. Tier-specific routes
// (/api/streams, /api/detections, /api/nodes, …) are registered by the
// owning tier on the same mux.
func (c *Core) Register(mux *http.ServeMux) {
	mux.HandleFunc("/api/live", c.handleLive)
	// The ledger's retention snapshot: store kind, counts, bytes, segment
	// count, sequence and time bounds.
	mux.HandleFunc("GET /api/history", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, c.Ledger.Stats())
	})
	mux.Handle("/api/metricz", metrics.Handler(c.Registry, c.Refresh))
	mux.HandleFunc("/healthz", c.probe(c.Health))
	mux.HandleFunc("/readyz", c.probe(c.Ready))
	store := c.Ledger.Store()
	mux.HandleFunc("GET /api/streams/{id}/detections", c.Quota.Limit(pageHandler("detections", store.QueryDetections)))
	mux.HandleFunc("GET /api/streams/{id}/packets", c.Quota.Limit(pageHandler("packets", store.QueryPackets)))
	mux.HandleFunc("GET /api/streams/{id}/tiles", c.Quota.Limit(pageHandler("tiles", store.QueryTiles)))
	mux.HandleFunc("GET /api/streams/{id}/snippets/{det}", c.Quota.Limit(c.handleSnippet))
}

// probe wraps a health builder into the shared 200/503 probe shape.
func (c *Core) probe(build func() (any, bool)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := build()
		code := http.StatusOK
		if !ok {
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		WriteJSON(w, body)
	}
}

// handleLive is the SSE feed. Each subscriber gets a bounded queue; a
// client that stops reading loses events (and shows up in the dropped
// counters) instead of slowing ingest. Events are framed as
//
//	event: <type>
//	data: <Event JSON>
//
// ?since=<seq> replays stored history strictly after that sequence
// number before switching to the live tail — a client that reconnects
// with the last seq it saw misses nothing the store retained. The
// subscription opens before the replay, and live events at or below
// the replay horizon are skipped, so the seam is duplicate-free.
// Seq-less events (node-up/node-down connectivity edges) are never
// part of stored history and always pass the seam filter.
func (c *Core) handleLive(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	var types []string
	if t := r.URL.Query().Get("types"); t != "" {
		types = strings.Split(t, ",")
	}
	since, err := QueryUint(r, "since")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	broker := c.Ledger.Broker()
	sub := broker.Subscribe(types...)
	defer broker.Unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	fmt.Fprintf(w, "%s\n\n", c.FeedComment)

	var replayed uint64
	if r.URL.Query().Has("since") {
		replayed = c.Ledger.Replay(since, sub.wantsType, func(ev Event) {
			if data, err := json.Marshal(ev); err == nil {
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
			}
		})
	}
	fl.Flush()

	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, open := <-sub.Events():
			if !open {
				return
			}
			if ev.Seq != 0 && ev.Seq <= replayed {
				continue // already served by the catch-up replay
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
			fl.Flush()
		}
	}
}

// pageHandler serves one record type's cursor-paginated history for
// the stream in the path: pass next_cursor back as ?cursor= while more
// is true and no record is ever served twice, even across retention
// eviction.
func pageHandler[T any](field string, query func(history.Query) ([]T, uint64, bool, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := PathID(r, "id")
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		q, err := ParseHistoryQuery(r, id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		recs, next, more, err := query(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		WriteJSON(w, map[string]any{field: recs, "next_cursor": next, "more": more})
	}
}

// handleSnippet serves the captured IQ burst behind one detection:
// JSON (SnippetJSON, base64 IQ) by default, or ?format=trace for RFDT
// bytes — a file rfdump -r reads directly, closing the DVR loop.
func (c *Core) handleSnippet(w http.ResponseWriter, r *http.Request) {
	id, err := PathID(r, "id")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	det, err := PathID(r, "det")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	snip, err := c.Ledger.Store().Snippet(id, det)
	if errors.Is(err, history.ErrNotFound) {
		http.Error(w, "no snippet for that detection (not captured, or evicted)", http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if r.URL.Query().Get("format") == "trace" {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf(`attachment; filename="snippet-%d-%d.rfd"`, id, det))
		_ = trace.Write(w, snip.Rate, snip.IQ)
		return
	}
	WriteJSON(w, snip.JSON())
}

// WriteJSON serves v with the standard headers.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// QueryUint parses an optional numeric query parameter (0 when absent).
func QueryUint(r *http.Request, key string) (uint64, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %v", key, err)
	}
	return v, nil
}

// QueryFloat parses an optional float query parameter (0 when absent).
func QueryFloat(r *http.Request, key string) (float64, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %v", key, err)
	}
	return v, nil
}

// PathID parses a numeric path wildcard.
func PathID(r *http.Request, name string) (uint64, error) {
	v, err := strconv.ParseUint(r.PathValue(name), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %v", name, err)
	}
	return v, nil
}

// ParseHistoryQuery reads the shared pagination parameters:
// ?from=/to= (seconds, half-open [from, to)), ?limit= (page size),
// ?cursor= (resume strictly after this sequence number).
func ParseHistoryQuery(r *http.Request, stream uint64) (history.Query, error) {
	q := history.Query{Stream: stream}
	var err error
	if q.From, err = QueryFloat(r, "from"); err != nil {
		return q, err
	}
	if q.To, err = QueryFloat(r, "to"); err != nil {
		return q, err
	}
	limit, err := QueryUint(r, "limit")
	if err != nil {
		return q, err
	}
	q.Limit = int(limit)
	if q.Cursor, err = QueryUint(r, "cursor"); err != nil {
		return q, err
	}
	return q, nil
}
