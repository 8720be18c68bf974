package server

import (
	"testing"

	"rfdump/internal/history"
	"rfdump/internal/metrics"
	"rfdump/internal/serving/conformance"
)

// TestServingConformance runs the shared-surface contract suite
// against a primed rfdumpd daemon — the node tier's half of the
// guarantee that both tiers serve an identical API (the aggregator
// runs the same suite in internal/cluster).
func TestServingConformance(t *testing.T) {
	res := testTrace(t)
	reg := metrics.NewRegistry()
	// Quota sized so the suite's pagination walk fits in the burst but
	// its hammer loop does not.
	_, ln, ts := newTestDaemon(t, res.Clock, reg, Options{QueryRPS: 50, QueryBurst: 50})
	streamTrace(t, ln, ts, res, 1)

	var recent struct {
		Detections []history.DetectionRecord `json:"detections"`
	}
	getJSON(t, ts.URL+"/api/detections", &recent)
	if len(recent.Detections) == 0 {
		t.Fatal("no detections; trace too quiet")
	}

	conformance.Run(t, ts.URL, conformance.Options{
		MinDetections: len(recent.Detections),
		StreamID:      0,
		Quota:         true,
	})
}
