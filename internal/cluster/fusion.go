package cluster

import (
	"sync"

	"rfdump/internal/history"
	"rfdump/internal/metrics"
)

// MatchConfig tunes the cross-sensor matcher.
type MatchConfig struct {
	// MinOverlap is the fraction of the shorter span two sightings
	// must overlap to be the same over-the-air event (default 0.5).
	// The same packet heard by two radios overlaps almost completely —
	// their clocks disagree by path delay and skew, a few dozen ticks
	// against bursts tens of thousands of ticks long — while distinct
	// back-to-back packets (a data frame and its ACK, 10 µs apart)
	// never reach half overlap.
	MinOverlap float64
	// SlackTicks widens each candidate span by ±SlackTicks before the
	// overlap test, absorbing cross-sensor clock skew on short bursts
	// (default 64).
	SlackTicks int64
	// Lookback is how many recent fused detections the matcher scans
	// (default 512). It bounds matching cost and sets the reorder
	// horizon: a sighting arriving later than Lookback fused events
	// after its peers starts a new record instead of merging.
	Lookback int
	// LedgerCap bounds retained fused detections (default 65536,
	// oldest evicted first).
	LedgerCap int
}

func (c MatchConfig) withDefaults() MatchConfig {
	if c.MinOverlap <= 0 {
		c.MinOverlap = 0.5
	}
	if c.SlackTicks <= 0 {
		c.SlackTicks = 64
	}
	if c.Lookback <= 0 {
		c.Lookback = 512
	}
	if c.LedgerCap <= 0 {
		c.LedgerCap = 65536
	}
	return c
}

// Fuser matches per-sensor detections into fused cluster detections
// and keeps the fused ledger. The matching rule follows
// internal/truth's ground-truth matcher — interval overlap within a
// family — hardened for the cluster case:
//
//   - same family, always: a WiFi sighting never merges with a
//     Bluetooth one whatever the timing;
//   - compatible channel: two sightings with known channels merge only
//     if the channels are equal, so near-coincident packets on
//     adjacent channels stay distinct; an unknown channel (<0) defers
//     to the time test;
//   - span overlap ≥ MinOverlap of the shorter sighting, with
//     ±SlackTicks of skew allowance.
//
// The matcher is deliberately node- and detector-agnostic: the same
// burst seen by two nodes merges (cross-sensor dedup), and so do two
// detectors firing on the same burst within one node (timing + phase
// on one packet is one event, not two). Every sighting is retained as
// Evidence, so nothing a sensor measured is lost by fusion.
type Fuser struct {
	cfg MatchConfig

	fused  *metrics.Counter
	merged *metrics.Counter
	size   *metrics.Gauge

	mu   sync.Mutex
	seq  uint64
	ring []*FusedDetection // ascending seq, capped at LedgerCap
}

// NewFuser returns a fuser with the given matching rules. reg may be
// nil.
func NewFuser(cfg MatchConfig, reg *metrics.Registry) *Fuser {
	return &Fuser{
		cfg:    cfg.withDefaults(),
		fused:  reg.Counter("cluster/detections_fused"),
		merged: reg.Counter("cluster/evidence_merged"),
		size:   reg.Gauge("cluster/ledger_size"),
	}
}

// IngestResult says what the fuser did with a sighting.
type IngestResult int

const (
	// Created: the sighting started a new fused detection.
	Created IngestResult = iota
	// Merged: the sighting joined an existing fused detection as new
	// evidence.
	Merged
	// Duplicate: the sighting was already held (a node's post-restart
	// history replay re-offering evidence); nothing changed.
	Duplicate
)

// Ingest feeds one sensor sighting into the fuser. stream is the
// aggregator-scoped stream id the sighting maps to. It returns the
// fused record the sighting landed in (a copy, safe to retain) and
// what happened to it.
func (f *Fuser) Ingest(node string, stream uint64, rec *history.DetectionRecord) (FusedDetection, IngestResult) {
	ev := Evidence{
		Node: node, Stream: stream, Seq: rec.Seq, Epoch: rec.Epoch,
		Detector: rec.Detector, Confidence: rec.Confidence,
		TimeS: rec.TimeS, AbsStart: rec.AbsStart, AbsEnd: rec.AbsEnd,
	}
	return f.IngestEvidence(rec.Family, rec.Channel, ev)
}

// IngestEvidence is Ingest at the evidence granularity: one sighting
// already in Evidence form, matched under the given family and
// channel. This is what makes fusion idempotent across broker-tree
// levels — an already-fused record arriving from a child aggregator is
// ingested evidence entry by evidence entry, each passing the same
// duplicate guard a raw sighting does, so evidence the parent already
// holds is recognized instead of double-counted.
func (f *Fuser) IngestEvidence(family string, channel int, ev Evidence) (FusedDetection, IngestResult) {
	f.mu.Lock()
	defer f.mu.Unlock()

	if fd := f.matchLocked(family, channel, ev.AbsStart, ev.AbsEnd); fd != nil {
		// Duplicate evidence guard: a node whose history replayed after
		// a restart re-offers sightings we already hold. Same node +
		// same detector + near-identical span = the same sighting, not
		// a new vantage.
		for _, have := range fd.Evidence {
			if have.Node == ev.Node && have.Detector == ev.Detector &&
				abs64(have.AbsStart-ev.AbsStart) <= f.cfg.SlackTicks &&
				abs64(have.AbsEnd-ev.AbsEnd) <= f.cfg.SlackTicks {
				return f.snapshotLocked(fd), Duplicate
			}
		}
		fd.Evidence = append(fd.Evidence, ev)
		if ev.Confidence > fd.Confidence {
			fd.Confidence = ev.Confidence
		}
		if ev.TimeS < fd.TimeS {
			fd.TimeS = ev.TimeS
		}
		if fd.Channel < 0 && channel >= 0 {
			fd.Channel = channel
		}
		fd.Sensors = countSensors(fd.Evidence)
		f.merged.Inc()
		return f.snapshotLocked(fd), Merged
	}

	f.seq++
	fd := &FusedDetection{
		Seq: f.seq, Family: family, Channel: channel,
		TimeS: ev.TimeS, AbsStart: ev.AbsStart, AbsEnd: ev.AbsEnd,
		Confidence: ev.Confidence, Sensors: 1,
		Evidence: []Evidence{ev},
	}
	f.ring = append(f.ring, fd)
	if len(f.ring) > f.cfg.LedgerCap {
		f.ring = f.ring[len(f.ring)-f.cfg.LedgerCap:]
	}
	f.fused.Inc()
	f.size.Set(int64(len(f.ring)))
	return f.snapshotLocked(fd), Created
}

// Restore replaces the ledger with records reconstructed from a
// persisted WAL (ascending fused seq) and seeds the seq allocator —
// the recovery half of the durable fused ledger. The ring is trimmed
// to LedgerCap (oldest first), mirroring what live ingestion would
// have retained.
func (f *Fuser) Restore(ring []*FusedDetection, seq uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(ring) > f.cfg.LedgerCap {
		ring = ring[len(ring)-f.cfg.LedgerCap:]
	}
	f.ring = ring
	if len(ring) > 0 && ring[len(ring)-1].Seq > seq {
		seq = ring[len(ring)-1].Seq
	}
	f.seq = seq
	f.size.Set(int64(len(f.ring)))
}

// matchLocked scans the lookback window, newest first, for a fused
// record a sighting with the given family/channel/span belongs to.
func (f *Fuser) matchLocked(family string, channel int, absStart, absEnd int64) *FusedDetection {
	lo := len(f.ring) - f.cfg.Lookback
	if lo < 0 {
		lo = 0
	}
	for i := len(f.ring) - 1; i >= lo; i-- {
		fd := f.ring[i]
		if fd.Family != family {
			continue
		}
		if fd.Channel >= 0 && channel >= 0 && fd.Channel != channel {
			continue
		}
		if f.overlaps(fd, absStart, absEnd) {
			return fd
		}
	}
	return nil
}

// overlaps applies the span test against every sighting already in the
// record (any vantage may be the closest clock to the new one).
func (f *Fuser) overlaps(fd *FusedDetection, absStart, absEnd int64) bool {
	for i := range fd.Evidence {
		e := &fd.Evidence[i]
		if spanOverlap(e.AbsStart, e.AbsEnd, absStart, absEnd,
			f.cfg.SlackTicks, f.cfg.MinOverlap) {
			return true
		}
	}
	return false
}

// spanOverlap is the core rule: widen each span by the skew slack,
// then require the intersection to cover MinOverlap of the shorter
// original span.
func spanOverlap(aStart, aEnd, bStart, bEnd, slack int64, minFrac float64) bool {
	ov := min(aEnd+slack, bEnd+slack) - max(aStart-slack, bStart-slack)
	if ov <= 0 {
		return false
	}
	short := min(aEnd-aStart, bEnd-bStart)
	if short <= 0 {
		short = 1
	}
	return float64(ov) >= minFrac*float64(short)
}

// Recent returns up to limit newest fused detections, newest first
// (limit ≤ 0 = all retained).
func (f *Fuser) Recent(limit int) []FusedDetection {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.ring)
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]FusedDetection, 0, n)
	for i := len(f.ring) - 1; i >= len(f.ring)-n; i-- {
		out = append(out, f.snapshotLocked(f.ring[i]))
	}
	return out
}

// Len returns the retained ledger size.
func (f *Fuser) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.ring)
}

func (f *Fuser) snapshotLocked(fd *FusedDetection) FusedDetection {
	cp := *fd
	cp.Evidence = append([]Evidence(nil), fd.Evidence...)
	return cp
}

func countSensors(evs []Evidence) int {
	seen := make(map[string]struct{}, len(evs))
	for _, e := range evs {
		seen[e.Node] = struct{}{}
	}
	return len(seen)
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
