package cluster

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rfdump/internal/metrics"
	"rfdump/internal/server"
	"rfdump/internal/serving"
	"rfdump/internal/serving/conformance"
)

// TestServingConformance runs the shared-surface contract suite
// against a primed aggregator — the fleet tier's half of the guarantee
// that both tiers serve an identical API (rfdumpd runs the same suite
// in internal/server). This symmetry is what makes broker trees work:
// a parent aggregator subscribes to whatever passes this suite.
func TestServingConformance(t *testing.T) {
	node := &fakeNode{}
	node.set([]serving.Event{
		detEvent(1, 1_000_000),
		detEvent(2, 5_000_000),
		detEvent(3, 9_000_000),
	})
	ts := httptest.NewServer(withStreams(node, server.StreamInfo{ID: 1, Remote: "radio"}))
	defer ts.Close()

	reg := metrics.NewRegistry()
	agg, err := NewAggregator(AggregatorConfig{
		SSEQueue: 64, EvictAfter: -1,
		StallAfter: 5 * time.Second,
		MinBackoff: time.Millisecond,
		MaxBackoff: 10 * time.Millisecond,
		// Quota sized so the suite's pagination walk fits in the burst
		// but its hammer loop does not.
		QueryRPS: 50, QueryBurst: 50,
		Seed:     1,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	agg.Add("lab1", strings.TrimPrefix(ts.URL, "http://"))

	api := httptest.NewServer(agg.Handler())
	defer api.Close()
	waitFor(t, "fleet consumed and journaled", func() bool {
		return journaled(agg) == 3 && agg.Manager().Connected() == 1
	})

	conformance.Run(t, api.URL, conformance.Options{
		MinDetections: 3,
		StreamID:      1, // the fleet id the ledger minted for (lab1, 1)
		Quota:         true,
	})
}
