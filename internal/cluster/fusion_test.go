package cluster

import (
	"testing"

	"rfdump/internal/history"
)

// det builds a sighting; spans are in ticks, channel -1 means unknown.
func det(detector string, start, end int64, channel int, conf float64) *history.DetectionRecord {
	return &history.DetectionRecord{
		Family: "wifi", Detector: detector,
		TimeS: float64(start) / 20e6, AbsStart: start, AbsEnd: end,
		Confidence: conf, Channel: channel,
	}
}

func TestFuseCrossSensor(t *testing.T) {
	f := NewFuser(MatchConfig{SlackTicks: 64}, nil)

	fd, res := f.Ingest("lab1", 1, det("timing", 10_000, 30_000, 6, 0.8))
	if res != Created || fd.Sensors != 1 {
		t.Fatalf("first sighting: res=%v sensors=%d", res, fd.Sensors)
	}
	// Same burst at a second sensor: 40 ticks of clock skew, heard a
	// little weaker but detected with higher confidence.
	fd, res = f.Ingest("lab2", 2, det("timing", 10_040, 30_040, 6, 0.9))
	if res != Merged {
		t.Fatalf("skewed second sighting: res=%v, want Merged", res)
	}
	if fd.Sensors != 2 || len(fd.Evidence) != 2 {
		t.Fatalf("fused: sensors=%d evidence=%d, want 2/2", fd.Sensors, len(fd.Evidence))
	}
	if fd.Confidence != 0.9 {
		t.Fatalf("fused confidence %v, want the max 0.9", fd.Confidence)
	}
	if fd.AbsStart != 10_000 {
		t.Fatalf("fused span start %d, want the first sighting's 10000", fd.AbsStart)
	}
	if f.Len() != 1 {
		t.Fatalf("ledger holds %d records, want 1", f.Len())
	}
}

func TestFuseAdjacentChannelsStayDistinct(t *testing.T) {
	f := NewFuser(MatchConfig{}, nil)
	// Perfectly coincident spans on channels 6 and 7: two different
	// packets that happen to overlap in time, never one event.
	f.Ingest("lab1", 1, det("timing", 10_000, 30_000, 6, 0.8))
	fd, res := f.Ingest("lab2", 2, det("timing", 10_000, 30_000, 7, 0.8))
	if res != Created {
		t.Fatalf("adjacent-channel sighting: res=%v, want Created", res)
	}
	if fd.Sensors != 1 || f.Len() != 2 {
		t.Fatalf("adjacent channels merged: sensors=%d ledger=%d", fd.Sensors, f.Len())
	}
}

func TestFuseUnknownChannelDefersToTime(t *testing.T) {
	f := NewFuser(MatchConfig{}, nil)
	f.Ingest("lab1", 1, det("timing", 10_000, 30_000, -1, 0.8))
	fd, res := f.Ingest("lab2", 2, det("timing", 10_000, 30_000, 6, 0.8))
	if res != Merged {
		t.Fatalf("unknown-channel sighting refused to merge: res=%v", res)
	}
	if fd.Channel != 6 {
		t.Fatalf("fused channel %d, want backfilled 6", fd.Channel)
	}
}

func TestFuseOneSensorOnly(t *testing.T) {
	f := NewFuser(MatchConfig{}, nil)
	// A packet only one sensor was in range of stands alone, untouched
	// by unrelated traffic elsewhere on the timeline.
	f.Ingest("lab1", 1, det("timing", 10_000, 30_000, 6, 0.8))
	f.Ingest("lab2", 2, det("timing", 500_000, 520_000, 6, 0.7))
	if f.Len() != 2 {
		t.Fatalf("ledger holds %d, want 2 isolated detections", f.Len())
	}
	for _, fd := range f.Recent(0) {
		if fd.Sensors != 1 || len(fd.Evidence) != 1 {
			t.Fatalf("isolated detection gained evidence: %+v", fd)
		}
	}
}

func TestFuseOutOfOrderArrival(t *testing.T) {
	f := NewFuser(MatchConfig{}, nil)
	// Sensor A reports two packets in order; sensor B's sighting of the
	// FIRST packet arrives after A's second — a slow node or a longer
	// network path. It must still find and join the older record.
	f.Ingest("lab1", 1, det("timing", 10_000, 30_000, 6, 0.8))
	f.Ingest("lab1", 1, det("timing", 100_000, 120_000, 6, 0.8))
	fd, res := f.Ingest("lab2", 2, det("timing", 10_030, 30_030, 6, 0.9))
	if res != Merged || fd.Sensors != 2 {
		t.Fatalf("late sighting: res=%v sensors=%d, want Merged/2", res, fd.Sensors)
	}
	if fd.AbsStart != 10_000 {
		t.Fatalf("late sighting merged into wrong record (start %d)", fd.AbsStart)
	}
	if f.Len() != 2 {
		t.Fatalf("ledger holds %d, want 2", f.Len())
	}
}

func TestFuseReplayDuplicateGuard(t *testing.T) {
	f := NewFuser(MatchConfig{SlackTicks: 64}, nil)
	f.Ingest("lab1", 1, det("timing", 10_000, 30_000, 6, 0.8))
	// A restarted lab1 re-streams the same trace: same node, same
	// detector, same span (modulo a few ticks) — the identical sighting
	// re-offered, not a new vantage.
	fd, res := f.Ingest("lab1", 1, det("timing", 10_002, 30_002, 6, 0.8))
	if res != Duplicate {
		t.Fatalf("replayed sighting: res=%v, want Duplicate", res)
	}
	if len(fd.Evidence) != 1 || fd.Sensors != 1 {
		t.Fatalf("duplicate grew the record: evidence=%d sensors=%d", len(fd.Evidence), fd.Sensors)
	}
}

func TestFuseDetectorAgnostic(t *testing.T) {
	f := NewFuser(MatchConfig{}, nil)
	// Timing and phase detectors firing on the same burst within one
	// node are one over-the-air event with two pieces of evidence.
	f.Ingest("lab1", 1, det("timing", 10_000, 30_000, 6, 0.8))
	fd, res := f.Ingest("lab1", 1, det("phase", 10_005, 29_990, 6, 0.85))
	if res != Merged || len(fd.Evidence) != 2 {
		t.Fatalf("phase sighting: res=%v evidence=%d, want Merged/2", res, len(fd.Evidence))
	}
	if fd.Sensors != 1 {
		t.Fatalf("one node counted as %d sensors", fd.Sensors)
	}
}

func TestFuseFamiliesNeverCross(t *testing.T) {
	f := NewFuser(MatchConfig{}, nil)
	f.Ingest("lab1", 1, det("timing", 10_000, 30_000, 6, 0.8))
	bt := det("hop", 10_000, 30_000, 6, 0.8)
	bt.Family = "bluetooth"
	_, res := f.Ingest("lab2", 2, bt)
	if res != Created || f.Len() != 2 {
		t.Fatalf("cross-family merge: res=%v ledger=%d", res, f.Len())
	}
}

func TestFuseBackToBackPacketsDistinct(t *testing.T) {
	f := NewFuser(MatchConfig{SlackTicks: 64}, nil)
	// A data frame and the ACK that follows it: adjacent spans on the
	// same channel. Slack widening must not glue them together.
	f.Ingest("lab1", 1, det("timing", 10_000, 30_000, 6, 0.8))
	_, res := f.Ingest("lab1", 1, det("timing", 30_200, 31_200, 6, 0.8))
	if res != Created || f.Len() != 2 {
		t.Fatalf("back-to-back packets fused: res=%v ledger=%d", res, f.Len())
	}
}

func TestFuseLedgerCapAndCursors(t *testing.T) {
	f := NewFuser(MatchConfig{LedgerCap: 8, Lookback: 4}, nil)
	for i := 0; i < 20; i++ {
		start := int64(i) * 1_000_000
		f.Ingest("lab1", 1, det("timing", start, start+10_000, 6, 0.8))
	}
	if f.Len() != 8 {
		t.Fatalf("ledger holds %d, want cap 8", f.Len())
	}
	recent := f.Recent(3)
	if len(recent) != 3 || recent[0].Seq != 20 || recent[2].Seq != 18 {
		t.Fatalf("Recent(3) newest-first broke: %+v", recent)
	}
}

func TestFuseSnapshotIsolation(t *testing.T) {
	f := NewFuser(MatchConfig{}, nil)
	fd1, _ := f.Ingest("lab1", 1, det("timing", 10_000, 30_000, 6, 0.8))
	fd2, _ := f.Ingest("lab2", 2, det("timing", 10_020, 30_020, 6, 0.9))
	// The first snapshot must not observe the later merge: callers hold
	// copies, not windows into the ledger.
	if len(fd1.Evidence) != 1 {
		t.Fatalf("earlier snapshot grew: evidence=%d", len(fd1.Evidence))
	}
	fd2.Evidence[0].Node = "mutated"
	if got := f.Recent(1)[0].Evidence[0].Node; got == "mutated" {
		t.Fatal("mutating a returned snapshot reached the ledger")
	}
}
