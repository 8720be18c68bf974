package cluster

import (
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"rfdump/internal/history"
	"rfdump/internal/metrics"
	"rfdump/internal/serving"
)

// openLedger builds a FusedLedger over a disk store in dir.
func openLedger(t *testing.T, dir string, reg *metrics.Registry) *FusedLedger {
	t.Helper()
	store, err := history.OpenDisk(history.DiskConfig{Dir: dir, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := NewFusedLedger(LedgerConfig{Store: store, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	return ledger
}

// sighting builds a raw node detection record for ledger tests.
func sighting(seq uint64, detector string, start int64, conf float64) *history.DetectionRecord {
	return &history.DetectionRecord{
		Seq: seq, Stream: 1, Family: "wifi", Detector: detector,
		TimeS: float64(start) / 20e6, AbsStart: start, AbsEnd: start + 20_000,
		Confidence: conf, Channel: 6,
	}
}

// fusedByID indexes a fused-ledger snapshot by fused id.
func fusedByID(fuser *Fuser) map[uint64]FusedDetection {
	out := make(map[uint64]FusedDetection)
	for _, fd := range fuser.Recent(0) {
		out[fd.Seq] = fd
	}
	return out
}

// dumpWAL pages the whole store — the byte-identity witness for the
// SIGKILL recovery invariant.
func dumpWAL(t *testing.T, store history.Store) []history.DetectionRecord {
	t.Helper()
	var out []history.DetectionRecord
	var cursor uint64
	for {
		recs, next, more, err := store.QueryDetections(history.Query{Cursor: cursor})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, recs...)
		cursor = next
		if !more {
			return out
		}
	}
}

// TestFusedLedgerDiskRecovery is the SIGKILL half of the tentpole: a
// ledger journaled to disk segments is dropped without any shutdown
// (only the abandoned store's file handle survives, as after a kill
// -9) and reopened — fused detections, stream-id map, seq epoch and
// dedup state must all come back, and a full fleet replay must append
// nothing.
func TestFusedLedgerDiskRecovery(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	led := openLedger(t, dir, reg)

	// Two sensors hear the shared packet (create + merge), one packet
	// is near-only (create): three WAL records, two fused detections.
	feed := func(l *FusedLedger) []IngestResult {
		var out []IngestResult
		for _, in := range []struct {
			node string
			rec  *history.DetectionRecord
		}{
			{"near", sighting(1, "timing", 5_000_000, 0.8)},
			{"far", sighting(1, "timing", 5_000_030, 0.95)}, // 30 ticks of skew
			{"near", sighting(2, "phase", 9_000_000, 0.7)},
		} {
			_, res := l.Ingest(in.node, 1, in.rec)
			out = append(out, res)
		}
		return out
	}
	if got := feed(led); !reflect.DeepEqual(got, []IngestResult{Created, Merged, Created}) {
		t.Fatalf("first ingest results: %v", got)
	}

	before := fusedByID(led.Fuser())
	walBefore := dumpWAL(t, led.WAL().Store())
	lastSeq := led.WAL().Store().LastSeq()
	streams := led.Streams()
	nearID := led.FusedStream("near", 1)
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same segments.
	led2 := openLedger(t, dir, reg)
	defer led2.Close()

	if got := led2.WAL().Store().LastSeq(); got != lastSeq {
		t.Fatalf("seq epoch after recovery: %d, want %d", got, lastSeq)
	}
	if got := led2.Streams(); got != streams {
		t.Fatalf("stream-id map size after recovery: %d, want %d", got, streams)
	}
	if got := led2.FusedStream("near", 1); got != nearID {
		t.Fatalf("stream id (near,1) after recovery: %d, want %d (must not re-allocate)", got, nearID)
	}
	after := fusedByID(led2.Fuser())
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("fused ledger after recovery:\n got %+v\nwant %+v", after, before)
	}

	// The fleet replays its history in full (what the manager does after
	// its restart probe): every sighting is a content-level duplicate,
	// so the recovered ledger appends nothing and the WAL stays
	// identical record for record.
	if got := feed(led2); !reflect.DeepEqual(got, []IngestResult{Duplicate, Duplicate, Duplicate}) {
		t.Fatalf("replay ingest results: %v, want all duplicates", got)
	}
	if got := dumpWAL(t, led2.WAL().Store()); !reflect.DeepEqual(got, walBefore) {
		t.Fatalf("WAL changed across recovery + replay:\n got %+v\nwant %+v", got, walBefore)
	}
	if got := led2.WAL().Store().LastSeq(); got != lastSeq {
		t.Fatalf("replay advanced the seq epoch: %d, want %d", got, lastSeq)
	}

	// New traffic after recovery continues the epoch, never reuses seqs.
	wal, res := led2.Ingest("near", 1, sighting(3, "timing", 13_000_000, 0.6))
	if res != Created || wal == nil {
		t.Fatalf("post-recovery ingest: res=%v wal=%+v", res, wal)
	}
	if wal.Seq != lastSeq+1 {
		t.Fatalf("post-recovery WAL seq %d, want %d", wal.Seq, lastSeq+1)
	}
}

// TestFusedLedgerTreeIdempotence chains two ledgers the way a broker
// tree chains aggregators: the mid ledger's WAL records (evidence
// deltas attached) feed the root ledger. The root must count each leaf
// sighting exactly once — including through a diamond, where a second
// mid-tier re-offers evidence the root already holds.
func TestFusedLedgerTreeIdempotence(t *testing.T) {
	reg := metrics.NewRegistry()
	mid, err := NewFusedLedger(LedgerConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer mid.Close()
	root, err := NewFusedLedger(LedgerConfig{Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()

	// Leaf sightings into the mid tier; its WAL chains upward.
	var walUp []*history.DetectionRecord
	for _, in := range []struct {
		node string
		rec  *history.DetectionRecord
	}{
		{"near", sighting(1, "timing", 5_000_000, 0.8)},
		{"far", sighting(1, "timing", 5_000_030, 0.95)},
		{"near", sighting(2, "phase", 9_000_000, 0.7)},
	} {
		if wal, _ := mid.Ingest(in.node, 1, in.rec); wal != nil {
			walUp = append(walUp, wal)
		}
	}
	if len(walUp) != 3 {
		t.Fatalf("mid tier produced %d WAL records, want 3", len(walUp))
	}

	for _, wal := range walUp {
		root.Ingest("mid", wal.Stream, wal)
	}
	if got := root.Fuser().Len(); got != 2 {
		t.Fatalf("root fused %d detections, want 2 (fusion must be idempotent across levels)", got)
	}

	// The root's evidence keeps leaf provenance — node names survive the
	// extra level, which is exactly what makes the diamond dedup work.
	for _, fd := range root.Fuser().Recent(0) {
		for _, ev := range fd.Evidence {
			if ev.Node != "near" && ev.Node != "far" {
				t.Fatalf("root evidence lost leaf provenance: %+v", ev)
			}
		}
	}

	// Diamond: a second mid-tier heard the same leaves and offers the
	// same evidence under its own WAL. Nothing may double-count.
	mid2, err := NewFusedLedger(LedgerConfig{Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer mid2.Close()
	for _, in := range []struct {
		node string
		rec  *history.DetectionRecord
	}{
		{"near", sighting(1, "timing", 5_000_000, 0.8)},
		{"far", sighting(1, "timing", 5_000_030, 0.95)},
	} {
		if wal, _ := mid2.Ingest(in.node, 1, in.rec); wal != nil {
			if _, res := root.Ingest("mid2", wal.Stream, wal); res != Duplicate {
				t.Fatalf("diamond re-offer fused as %v, want Duplicate", res)
			}
		}
	}
	if got := root.Fuser().Len(); got != 2 {
		t.Fatalf("diamond double-counted: root ledger %d, want 2", got)
	}
	shared := root.Fuser().Recent(0)
	var twoSensor *FusedDetection
	for i := range shared {
		if shared[i].Sensors == 2 {
			twoSensor = &shared[i]
		}
	}
	if twoSensor == nil || len(twoSensor.Evidence) != 2 {
		t.Fatalf("shared packet evidence wrong after diamond: %+v", shared)
	}
}

// TestBrokerTreeEndToEnd stands up a two-level tree over real HTTP —
// leaf node → mid aggregator → root aggregator — with nothing but the
// public serving surface between the tiers, and checks exactly-once
// delivery at the root through live traffic, a merge, and a leaf
// restart replay.
func TestBrokerTreeEndToEnd(t *testing.T) {
	leaf := &fakeNode{}
	leaf.set([]serving.Event{detEvent(1, 1_000_000), detEvent(2, 5_000_000)})
	leafTS := httptest.NewServer(leaf.handler())
	defer leafTS.Close()

	midReg := metrics.NewRegistry()
	mid := newTestAggregator(midReg, 5*time.Second)
	defer mid.Close()
	mid.Add("leaf1", strings.TrimPrefix(leafTS.URL, "http://"))
	midTS := httptest.NewServer(mid.Handler())
	defer midTS.Close()

	rootReg := metrics.NewRegistry()
	root := newTestAggregator(rootReg, 5*time.Second)
	defer root.Close()
	root.Add("mid", strings.TrimPrefix(midTS.URL, "http://"))

	// The root journals a record only after the mid tier journaled and
	// published it, so the root's journal is the whole tree's.
	waitFor(t, "tree converged", func() bool { return journaled(root) == 2 })

	// Evidence at the root names the leaf node, not the mid tier.
	for _, fd := range root.Fuser().Recent(0) {
		for _, ev := range fd.Evidence {
			if ev.Node != "leaf1" {
				t.Fatalf("root evidence lost leaf provenance: %+v", ev)
			}
		}
	}

	// A second sighting of packet 1 (other detector) merges at the mid
	// tier and propagates to the root as a merge — never as a new
	// detection at either level.
	upd := detEvent(3, 1_000_000)
	upd.Detection.Detector = "phase"
	leaf.extend(upd)
	waitFor(t, "merge propagated to root", func() bool {
		return rootReg.Counter("cluster/evidence_merged").Load() == 1 && journaled(root) == 3
	})
	if got := root.Fuser().Len(); got != 2 {
		t.Fatalf("merge created a new root detection: ledger %d, want 2", got)
	}

	// Leaf restarts and replays the same packets under fresh seqs: the
	// mid tier dedups by content, so the root sees nothing at all.
	midWAL, rootWAL := journaled(mid), journaled(root)
	leaf.set([]serving.Event{detEvent(1, 1_000_000), detEvent(2, 5_000_000)})
	waitFor(t, "leaf replay consumed", func() bool {
		return midReg.Counter("cluster/node_resets").Load() == 1 &&
			midReg.Counter("cluster/events_received").Load() >= 5
	})
	time.Sleep(50 * time.Millisecond) // let any (wrong) propagation surface
	if got := journaled(mid); got != midWAL {
		t.Fatalf("leaf replay appended to the mid WAL: seq %d, want %d", got, midWAL)
	}
	if got := journaled(root); got != rootWAL {
		t.Fatalf("leaf replay reached the root WAL: seq %d, want %d", got, rootWAL)
	}
	if got := root.Fuser().Len(); got != 2 {
		t.Fatalf("exactly-once broken at root: ledger %d, want 2", got)
	}

	// New over-the-air traffic after the restart still flows the whole
	// tree.
	leaf.extend(detEvent(3, 9_000_000))
	waitFor(t, "post-restart packet at root", func() bool { return journaled(root) == rootWAL+1 })
	if got := root.Fuser().Len(); got != 3 {
		t.Fatalf("post-restart packet at root: ledger %d, want 3", got)
	}
}
