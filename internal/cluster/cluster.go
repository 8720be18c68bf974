// Package cluster is the aggregation tier above rfdumpd: the machinery
// that turns a fleet of independent single-vantage monitors into one
// coherent view of the ether. The RFDump architecture (CoNEXT 2009)
// analyzes what a single radio hears; a campus deployment has many
// radios whose coverage overlaps, so the same packet is heard — and
// detected — by several sensors at once. This package provides the
// three pieces that reconcile those views:
//
//   - discovery: rfdumpd nodes announce themselves with periodic UDP
//     beacons carrying an mDNS-style service record (node id, API
//     address, stream count, sample rate); a Discoverer folds beacons
//     into a live node set with TTL expiry.
//
//   - subscription: a Manager keeps one SSE subscription per node to
//     the rfdumpd /api/live feed, reconnecting with the same jittered
//     exponential backoff the wire transmitter uses, resuming with
//     ?since=<last seq> and detecting node restarts (sequence-number
//     epoch resets) so the dedup ledger holds across them.
//
//   - fusion: a Fuser dedups the same over-the-air packet heard by
//     multiple radios, matching detections by family, channel and
//     time-span overlap in the style of internal/truth's ground-truth
//     matcher, and keeps every sensor's sighting as evidence on the
//     fused record.
//
// The Aggregator composes the three behind the same /api surface
// rfdumpd serves, so existing clients point at a fleet unchanged.
package cluster

import (
	"fmt"

	"rfdump/internal/history"
)

// BeaconMagic versions the discovery datagram; receivers drop anything
// else. Bump it only with the record schema.
const BeaconMagic = "rfdump-cluster/1"

// NodeRecord is the service record a node announces and a Discoverer
// tracks — the minimum a subscriber needs to find and rank a sensor:
// identity, API address, and what it is currently ingesting.
type NodeRecord struct {
	Magic string `json:"magic"`
	// Node is the fleet-unique node id (rfdumpd -node flag; defaults
	// to the hostname).
	Node string `json:"node"`
	// API is the node's HTTP address ("host:port"). An empty or
	// wildcard host is filled in by the receiver from the datagram's
	// source address, mDNS-style, so nodes need not know their own
	// routable IP.
	API string `json:"api"`
	// Rate is the node's ingest sample rate (Hz) and Streams its
	// current stream count — advisory, for operator surfaces.
	Rate    int `json:"rate,omitempty"`
	Streams int `json:"streams,omitempty"`
	// Beacon is a per-node monotone beacon counter (gap = lost
	// datagrams, reset = node restart). Advisory.
	Beacon uint64 `json:"beacon,omitempty"`
}

func (r NodeRecord) validate() error {
	if r.Magic != BeaconMagic {
		return fmt.Errorf("cluster: beacon magic %q (want %q)", r.Magic, BeaconMagic)
	}
	if r.Node == "" {
		return fmt.Errorf("cluster: beacon without node id")
	}
	if r.API == "" {
		return fmt.Errorf("cluster: beacon without api address")
	}
	return nil
}

// Evidence is one sensor's sighting of a fused detection. It is the
// history store's SensorEvidence — fused records persist through the
// store WAL and carry their evidence with them, so the schema lives
// where the persistence does.
type Evidence = history.SensorEvidence

// FusedDetection is one over-the-air event as the cluster understands
// it: every sensor sighting the fuser matched together, under one
// aggregator-wide sequence number.
type FusedDetection struct {
	// Seq is the fused-detection id (the Fused field of its WAL
	// records). It is not a /api/live?since= value: that cursor is the
	// WAL sequence number the feed's events carry.
	Seq uint64 `json:"seq"`
	// Family and Channel are shared by all evidence (the matcher never
	// merges across either).
	Family  string `json:"family"`
	Channel int    `json:"channel"`
	// TimeS is the earliest sighting's timestamp; AbsStart/AbsEnd the
	// first sighting's span (the canonical span other sightings were
	// matched against).
	TimeS    float64 `json:"t"`
	AbsStart int64   `json:"abs_start"`
	AbsEnd   int64   `json:"abs_end"`
	// Confidence is the best sighting's confidence; Sensors the count
	// of distinct nodes in the evidence.
	Confidence float64 `json:"confidence"`
	Sensors    int     `json:"sensors"`
	// Evidence lists every matched sighting, in arrival order.
	Evidence []Evidence `json:"evidence"`
}

// record flattens the fused detection into the single-node
// DetectionRecord schema, so fleet-unaware clients consume the
// aggregator's /api/detections and /api/live exactly as they would a
// single rfdumpd.
func (f *FusedDetection) record() history.DetectionRecord {
	first := f.Evidence[0]
	return history.DetectionRecord{
		Seq:        f.Seq,
		Stream:     first.Stream,
		TimeS:      f.TimeS,
		Family:     f.Family,
		Detector:   first.Detector,
		AbsStart:   f.AbsStart,
		AbsEnd:     f.AbsEnd,
		Confidence: f.Confidence,
		Channel:    f.Channel,
	}
}
