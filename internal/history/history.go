// Package history is the spectrum DVR behind the daemon: durable,
// queryable storage for everything the live pipeline produces about the
// ether — detection verdicts, decoded packets, waterfall tiles, and the
// raw IQ bursts behind detections. The paper's architecture banks on
// keeping cheap per-packet state around so analysts can drill into the
// spectrum after the fact; this package is that storage capability,
// with two implementations: a bounded in-memory store (fixed-capacity
// overwrite-oldest rings per record type) and an append-only
// segment-file engine that survives restarts.
//
// Records are totally ordered by a store-wide sequence number. Both
// tiers write through serving.Ledger, which owns the allocator for live
// event sequencing and stamps records before appending; a store used
// standalone (tests, offline tools) assigns sequences itself when a
// record arrives with Seq == 0. Queries paginate
// by cursor: a page is "records with Seq > cursor, ascending", so a
// dashboard can walk history without ever seeing a record twice, even
// while retention evicts from below.
package history

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"rfdump/internal/iq"
	"rfdump/internal/trace"
)

// ErrNotFound reports a lookup for a record the store does not hold —
// never written, or already evicted by retention.
var ErrNotFound = errors.New("history: not found")

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("history: store closed")

// DetectionRecord is the JSON form of one fast-detector verdict.
// Start/End are sample offsets relative to the connection (epoch) that
// carried them; AbsStart/AbsEnd place the span on the stream's
// transmit timeline across reconnects, which is what gap accounting
// and cross-epoch comparisons must use.
type DetectionRecord struct {
	// Seq is the store-wide sequence number (0 before the record is
	// appended); it doubles as the pagination cursor.
	Seq        uint64  `json:"seq,omitempty"`
	Stream     uint64  `json:"stream"`
	Epoch      uint32  `json:"epoch,omitempty"`
	TimeS      float64 `json:"t"`
	Family     string  `json:"family"`
	Detector   string  `json:"detector"`
	Start      int64   `json:"start"`
	End        int64   `json:"end"`
	AbsStart   int64   `json:"abs_start"`
	AbsEnd     int64   `json:"abs_end"`
	Confidence float64 `json:"confidence"`
	Channel    int     `json:"channel"`

	// The aggregation-tier provenance fields, zero on single-node
	// records. A fused record written by the cluster WAL sets Fused to
	// the fused-detection id it belongs to, Merge when the record adds
	// evidence to an already-written fused detection (replayed as a
	// "detection-update" event), Node/Origin to the sensor and its
	// node-local stream id the triggering sighting came from, and
	// Evidence to the per-sensor sightings this record contributed —
	// the delta, so replaying the WAL reconstructs the fused ledger
	// without double-counting evidence.
	Fused    uint64           `json:"fused,omitempty"`
	Merge    bool             `json:"merge,omitempty"`
	Node     string           `json:"node,omitempty"`
	Origin   uint64           `json:"origin,omitempty"`
	Evidence []SensorEvidence `json:"evidence,omitempty"`
}

// SensorEvidence is one sensor's sighting of a fused detection: which
// node and stream heard it, the detector that fired, and the
// per-sensor signal measurements (confidence, and the span in that
// sensor's sample clock — sensors disagree by path delay and clock
// skew, which is exactly why the raw spans are kept). It lives here —
// not in the cluster package — because fused records persist through
// the history store and replay byte-identical at every tree level.
type SensorEvidence struct {
	Node   string `json:"node"`
	Stream uint64 `json:"stream"` // fused (aggregator-scoped) stream id
	Seq    uint64 `json:"seq"`    // node-local store seq of the sighting
	Epoch  uint32 `json:"epoch,omitempty"`
	// Detector and Confidence are the node-side detection verdict;
	// confidence is the per-sensor signal-quality proxy (the detection
	// records carry no calibrated RSSI, so the detector's confidence —
	// which scales with SNR at the sensor — is the honest per-sensor
	// strength evidence).
	Detector   string  `json:"detector"`
	Confidence float64 `json:"confidence"`
	// TimeS / AbsStart / AbsEnd are the sighting's time and span in
	// the sensor's own clock.
	TimeS    float64 `json:"t"`
	AbsStart int64   `json:"abs_start"`
	AbsEnd   int64   `json:"abs_end"`
}

// PacketEvent is one decoded packet tagged with its stream — the
// embedded record is trace.PacketRecord, the same schema the offline
// packet log writes, built by the same constructor.
type PacketEvent struct {
	Seq    uint64 `json:"seq,omitempty"`
	Stream uint64 `json:"stream"`
	trace.PacketRecord
}

// Tile is one column of a persisted waterfall: mean linear power over
// SamplesPerBin-sample bins starting at absolute sample Start. Tiles
// are the coarse, cheap spectrogram history; snippets are the
// full-resolution bursts.
type Tile struct {
	Seq           uint64    `json:"seq,omitempty"`
	Stream        uint64    `json:"stream"`
	TimeS         float64   `json:"t"`
	Start         int64     `json:"start"`
	SamplesPerBin int64     `json:"samples_per_bin"`
	Bins          []float32 `json:"bins"`
}

// Snippet is the raw IQ burst captured around one detection — the
// record that closes the replay loop: stored at detection time, served
// by the API, and re-demodulated offline with better settings later.
// Keyed by (Stream, Detection) where Detection is the triggering
// DetectionRecord's Seq.
type Snippet struct {
	Seq       uint64 `json:"seq,omitempty"`
	Stream    uint64 `json:"stream"`
	Detection uint64 `json:"detection"`
	Epoch     uint32 `json:"epoch,omitempty"`
	// Rate is the sample rate of IQ; Start/End the absolute sample span
	// the burst covers on the stream timeline.
	Rate  int   `json:"rate"`
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	IQ    iq.Samples
}

// Bytes returns the snippet's IQ payload size (8 bytes per sample).
func (s *Snippet) Bytes() int64 { return int64(len(s.IQ)) * 8 }

// SnippetJSON is the wire shape of a snippet: the metadata plus the IQ
// payload as base64 little-endian float32 I/Q pairs. It is what
// /api/streams/{id}/snippets/{det} serves and what rfdump
// -replay-snippet reads back.
type SnippetJSON struct {
	Stream    uint64 `json:"stream"`
	Detection uint64 `json:"detection"`
	Epoch     uint32 `json:"epoch,omitempty"`
	Rate      int    `json:"rate"`
	Start     int64  `json:"start"`
	End       int64  `json:"end"`
	Samples   int    `json:"samples"`
	IQ        string `json:"iq_b64"`
}

// JSON converts the snippet to its wire shape.
func (s *Snippet) JSON() SnippetJSON {
	return SnippetJSON{
		Stream:    s.Stream,
		Detection: s.Detection,
		Epoch:     s.Epoch,
		Rate:      s.Rate,
		Start:     s.Start,
		End:       s.End,
		Samples:   len(s.IQ),
		IQ:        base64.StdEncoding.EncodeToString(encodeIQ(s.IQ)),
	}
}

// Snippet converts the wire shape back, validating the payload length.
func (j SnippetJSON) Snippet() (*Snippet, error) {
	raw, err := base64.StdEncoding.DecodeString(j.IQ)
	if err != nil {
		return nil, fmt.Errorf("history: snippet iq_b64: %w", err)
	}
	if len(raw)%8 != 0 {
		return nil, fmt.Errorf("history: snippet payload %d bytes is not a whole number of complex64 samples", len(raw))
	}
	if j.Samples != 0 && j.Samples != len(raw)/8 {
		return nil, fmt.Errorf("history: snippet declares %d samples but payload holds %d", j.Samples, len(raw)/8)
	}
	return &Snippet{
		Stream:    j.Stream,
		Detection: j.Detection,
		Epoch:     j.Epoch,
		Rate:      j.Rate,
		Start:     j.Start,
		End:       j.End,
		IQ:        decodeIQ(raw),
	}, nil
}

// encodeIQ serializes samples as little-endian float32 I/Q pairs.
func encodeIQ(s iq.Samples) []byte {
	out := make([]byte, len(s)*8)
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[i*8:], math.Float32bits(real(v)))
		binary.LittleEndian.PutUint32(out[i*8+4:], math.Float32bits(imag(v)))
	}
	return out
}

// decodeIQ is the inverse of encodeIQ (raw length must be a multiple
// of 8).
func decodeIQ(raw []byte) iq.Samples {
	out := make(iq.Samples, len(raw)/8)
	for i := range out {
		re := math.Float32frombits(binary.LittleEndian.Uint32(raw[i*8:]))
		im := math.Float32frombits(binary.LittleEndian.Uint32(raw[i*8+4:]))
		out[i] = complex(re, im)
	}
	return out
}

// Query selects a page of history. Records match when they belong to
// Stream (0 = every stream) and their timestamp t satisfies
// t >= From && t < To (To <= 0 means no upper bound). Results come back
// ordered by Seq ascending, strictly after Cursor, at most Limit per
// page (Limit <= 0 takes DefaultQueryLimit).
type Query struct {
	Stream uint64
	From   float64
	To     float64
	Limit  int
	Cursor uint64
}

// DefaultQueryLimit bounds a page when the query does not.
const DefaultQueryLimit = 256

// limit resolves the page size.
func (q Query) limit() int {
	if q.Limit <= 0 {
		return DefaultQueryLimit
	}
	return q.Limit
}

// matchTime reports whether a record timestamp falls in the query's
// time range.
func (q Query) matchTime(t float64) bool {
	return t >= q.From && (q.To <= 0 || t < q.To)
}

// matchStream reports whether a record's stream passes the filter.
func (q Query) matchStream(stream uint64) bool {
	return q.Stream == 0 || stream == q.Stream
}

// Walk pages one of a store's Query* methods from cursor (exclusive)
// in sequence order, handing each page to visit, until the store
// reports no more or visit returns false.
func Walk[T any](query func(Query) ([]T, uint64, bool, error), cursor uint64, visit func([]T) bool) error {
	for {
		recs, next, more, err := query(Query{Cursor: cursor})
		if err != nil {
			return err
		}
		if !visit(recs) || !more {
			return nil
		}
		cursor = next
	}
}

// Stats is a store's retention snapshot, served by /api/history and
// mirrored into gauges.
type Stats struct {
	// Kind names the implementation: "memory" or "segment".
	Kind string `json:"kind"`
	// LastSeq is the newest sequence number ever assigned.
	LastSeq uint64 `json:"last_seq"`
	// Retained record counts by type.
	Detections int64 `json:"detections"`
	Packets    int64 `json:"packets"`
	Tiles      int64 `json:"tiles"`
	Snippets   int64 `json:"snippets"`
	// Appended/Evicted are lifetime record totals (evicted = dropped by
	// retention, not by query).
	Appended int64 `json:"appended"`
	Evicted  int64 `json:"evicted"`
	// Bytes approximates retained payload (exact file bytes for the
	// segment store; snippet payload bytes for the memory store).
	Bytes int64 `json:"bytes"`
	// Segments counts live segment files (0 for the memory store).
	Segments int `json:"segments,omitempty"`
	// DetectionCap/PacketCap are the count bounds of the memory rings
	// (0 = not bounded by count).
	DetectionCap int `json:"detection_cap,omitempty"`
	PacketCap    int `json:"packet_cap,omitempty"`
	// OldestTimeS/NewestTimeS bracket retained record timestamps.
	OldestTimeS float64 `json:"oldest_t,omitempty"`
	NewestTimeS float64 `json:"newest_t,omitempty"`
}

// Store is the spectrum DVR contract. Append methods stamp rec.Seq when
// it arrives as 0 (standalone use); a caller that owns its own sequence
// allocator (serving.Ledger) stamps records itself, and stores must
// accept any strictly increasing sequence. Appends run on pipeline
// callback goroutines and must not block on queries; queries run on
// API goroutines concurrently with appends. AppendSnippet must not
// retain s.IQ after returning — the capture path reuses the buffer.
type Store interface {
	AppendDetection(rec *DetectionRecord) error
	AppendPacket(ev *PacketEvent) error
	AppendTile(t *Tile) error
	AppendSnippet(s *Snippet) error

	// RecentDetections/RecentPackets return the newest limit records
	// (oldest first), optionally filtered to one stream — what rfdumpd's
	// /api/detections and /api/packets serve. limit <= 0 takes the
	// store's recent-scan bound.
	RecentDetections(stream uint64, limit int) []DetectionRecord
	RecentPackets(stream uint64, limit int) []PacketEvent

	QueryDetections(q Query) (recs []DetectionRecord, next uint64, more bool, err error)
	QueryPackets(q Query) (recs []PacketEvent, next uint64, more bool, err error)
	QueryTiles(q Query) (recs []Tile, next uint64, more bool, err error)

	// Snippet returns the burst captured for the given detection
	// sequence on the given stream (ErrNotFound when missing/evicted).
	Snippet(stream, detection uint64) (*Snippet, error)

	// LastSeq returns the newest sequence number the store has seen —
	// what a restarting ledger seeds its allocator from.
	LastSeq() uint64
	Stats() Stats
	Close() error
}
