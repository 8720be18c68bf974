package cluster

import (
	"fmt"
	"sync"

	"rfdump/internal/history"
	"rfdump/internal/metrics"
	"rfdump/internal/serving"
)

// LedgerConfig configures a durable fused ledger.
type LedgerConfig struct {
	// Match tunes cross-sensor fusion (zero value = defaults).
	Match MatchConfig
	// Store persists the fused WAL. Nil takes a bounded in-memory store
	// (history dies with the process); a disk-backed store makes the
	// fused ledger, its seq epoch and its dedup state survive SIGKILL.
	// The ledger owns the store and closes it in Close.
	Store history.Store
	// Broker receives one live event per WAL append, under the WAL
	// sequence number (serving.Ledger's one write path). Nil takes a
	// private broker nobody outside the ledger subscribes to.
	Broker *serving.Broker
	// Registry receives cluster/* metrics; nil disables.
	Registry *metrics.Registry
}

// FusedLedger is the aggregator's ledger: content-level fusion (the
// Fuser) journaled through the same serving.Ledger a node's hub writes
// to. Every sighting that changes the fused state — a new fused
// detection, or new evidence merged into one — writes exactly one
// detection record (WAL append + live event, one step):
//
//   - Seq is ledger-assigned (monotone, recovered across restarts), so
//     the aggregator's /api/live and /api/history speak the same
//     sequence discipline a node does;
//   - Fused links the record to its fused-detection id, Merge marks an
//     evidence merge (replayed as "detection-update");
//   - Node/Origin record which sensor's sighting triggered the append
//     (rebuilding the fleet stream-id map on recovery);
//   - Evidence carries the delta — only the sightings this record
//     added — so replaying the WAL front to back reconstructs the
//     fused ledger without double-counting.
//
// Duplicates append nothing: a node's post-restart history replay
// re-offers sightings the ledger already holds, and the store stays
// byte-identical through it. That is the recovery invariant the tree
// smoke test pins down — SIGKILL the aggregator, restart it on the
// same store, and bounds, seqs and dedup state all come back.
type FusedLedger struct {
	fuser   *Fuser
	wal     *serving.Ledger
	walErrs *metrics.Counter

	// mu serializes fuse + WAL write, so WAL order is fusion order (a
	// merge never lands ahead of the create it extends).
	mu      sync.Mutex
	streams map[string]map[uint64]uint64 // node → node stream id → fused id
	nextID  uint64
}

// NewFusedLedger builds the ledger and, when the store already holds a
// fused WAL, recovers the fuser ring, stream-id map and seq epoch from
// it.
func NewFusedLedger(cfg LedgerConfig) (*FusedLedger, error) {
	store := cfg.Store
	if store == nil {
		match := cfg.Match.withDefaults()
		var err error
		store, err = history.NewMemory(history.MemoryConfig{
			// The WAL holds creates + merges; give it headroom over the
			// fuser's own retention so a full ledger still replays.
			DetectionCap: 2 * match.LedgerCap,
			Registry:     cfg.Registry,
		})
		if err != nil {
			return nil, err
		}
	}
	broker := cfg.Broker
	if broker == nil {
		broker = serving.NewBroker(0, 0, cfg.Registry)
	}
	l := &FusedLedger{
		fuser:   NewFuser(cfg.Match, cfg.Registry),
		wal:     serving.NewLedger(store, broker),
		walErrs: cfg.Registry.Counter("cluster/wal_errors"),
		streams: make(map[string]map[uint64]uint64),
	}
	if err := l.recover(); err != nil {
		store.Close()
		return nil, fmt.Errorf("cluster: ledger recovery: %w", err)
	}
	return l, nil
}

// recover replays the persisted WAL: the first record of each fused id
// recreates the fused detection (its canonical span), later ones merge
// their evidence deltas, and Node/Origin rebuild the stream-id map.
func (l *FusedLedger) recover() error {
	var (
		ring     []*FusedDetection
		byID     = make(map[uint64]*FusedDetection)
		maxFused uint64
	)
	err := history.Walk(l.wal.Store().QueryDetections, 0, func(recs []history.DetectionRecord) bool {
		for i := range recs {
			rec := &recs[i]
			if rec.Fused == 0 {
				continue // not a fused WAL record
			}
			if rec.Node != "" {
				byNode := l.streams[rec.Node]
				if byNode == nil {
					byNode = make(map[uint64]uint64)
					l.streams[rec.Node] = byNode
				}
				byNode[rec.Origin] = rec.Stream
			}
			if rec.Stream > l.nextID {
				l.nextID = rec.Stream
			}
			if rec.Fused > maxFused {
				maxFused = rec.Fused
			}
			fd := byID[rec.Fused]
			if fd == nil {
				fd = &FusedDetection{
					Seq: rec.Fused, Family: rec.Family, Channel: rec.Channel,
					TimeS: rec.TimeS, AbsStart: rec.AbsStart, AbsEnd: rec.AbsEnd,
					Confidence: rec.Confidence,
				}
				byID[rec.Fused] = fd
				ring = append(ring, fd)
			}
			fd.Evidence = append(fd.Evidence, rec.Evidence...)
			if rec.Confidence > fd.Confidence {
				fd.Confidence = rec.Confidence
			}
			if rec.TimeS < fd.TimeS {
				fd.TimeS = rec.TimeS
			}
			if fd.Channel < 0 && rec.Channel >= 0 {
				fd.Channel = rec.Channel
			}
		}
		return true
	})
	if err != nil || len(ring) == 0 {
		return err
	}
	for _, fd := range ring {
		fd.Sensors = countSensors(fd.Evidence)
	}
	l.fuser.Restore(ring, maxFused)
	return nil
}

// Fuser exposes the fused in-memory ledger (queries, tests, rfbench).
func (l *FusedLedger) Fuser() *Fuser { return l.fuser }

// WAL exposes the record path the fused ledger journals through (the
// aggregator's serving core runs over it).
func (l *FusedLedger) WAL() *serving.Ledger { return l.wal }

// Close releases the WAL store.
func (l *FusedLedger) Close() error { return l.wal.Close() }

// FusedStream maps a node-local stream id to its fleet-unique id,
// allocating on first sight. Ids are stable for the ledger's lifetime
// and — under a persistent store — across aggregator restarts.
func (l *FusedLedger) FusedStream(node string, stream uint64) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fusedStreamLocked(node, stream)
}

func (l *FusedLedger) fusedStreamLocked(node string, stream uint64) uint64 {
	byNode, ok := l.streams[node]
	if !ok {
		byNode = make(map[uint64]uint64)
		l.streams[node] = byNode
	}
	if id, ok := byNode[stream]; ok {
		return id
	}
	l.nextID++
	byNode[stream] = l.nextID
	return l.nextID
}

// Streams counts fleet-unique stream ids allocated so far.
func (l *FusedLedger) Streams() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.nextID)
}

// Ingest feeds one sighting from a node (or a child aggregator) into
// the ledger. A record that carries Evidence — an already-fused record
// from one tree level down — is ingested entry by entry, which is what
// makes fusion idempotent across levels: entries the ledger already
// holds are duplicates, new ones merge. A raw single-node record
// synthesizes its one evidence entry.
//
// It returns the WAL record written (nil when the sighting was a pure
// duplicate, or on a WAL write error) and what the fuser did. The WAL
// record is also what the broker published — read-only from here on —
// so a caller chaining ledgers (rfbench's tree row) can feed it
// straight into the next level.
func (l *FusedLedger) Ingest(node string, stream uint64, rec *history.DetectionRecord) (*history.DetectionRecord, IngestResult) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fusedStream := l.fusedStreamLocked(node, stream)

	evs := rec.Evidence
	if len(evs) == 0 {
		evs = []Evidence{{
			Node: node, Stream: fusedStream, Seq: rec.Seq, Epoch: rec.Epoch,
			Detector: rec.Detector, Confidence: rec.Confidence,
			TimeS: rec.TimeS, AbsStart: rec.AbsStart, AbsEnd: rec.AbsEnd,
		}}
	} else {
		// Re-scope the provenance stream ids into this ledger's id
		// space but keep the leaf node names: cross-level dedup matches
		// on (node, detector, span), so a diamond topology — two
		// aggregators both feeding the same leaves upward — still
		// counts each sighting once.
		evs = append([]Evidence(nil), evs...)
		for i := range evs {
			evs[i].Stream = fusedStream
		}
	}

	var (
		fd    FusedDetection
		res   = Duplicate
		delta []Evidence
	)
	for _, ev := range evs {
		got, r := l.fuser.IngestEvidence(rec.Family, rec.Channel, ev)
		switch r {
		case Created:
			fd = got
			res = Created
			delta = append(delta, ev)
		case Merged:
			fd = got
			if res != Created {
				res = Merged
			}
			delta = append(delta, ev)
		case Duplicate:
			if res == Duplicate {
				fd = got
			}
		}
	}
	if len(delta) == 0 {
		return nil, Duplicate // nothing new: no WAL append, no event
	}

	out := &history.DetectionRecord{
		Stream:     fusedStream,
		TimeS:      fd.TimeS,
		Family:     fd.Family,
		Detector:   fd.Evidence[0].Detector,
		AbsStart:   fd.AbsStart,
		AbsEnd:     fd.AbsEnd,
		Confidence: fd.Confidence,
		Channel:    fd.Channel,
		Fused:      fd.Seq,
		Merge:      res == Merged,
		Node:       node,
		Origin:     stream,
		Evidence:   delta,
	}
	if err := l.wal.Detection(out); err != nil {
		l.walErrs.Inc()
		return nil, res
	}
	return out, res
}
