package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rfdump/internal/experiments"
)

// TestBenchJSONRoundTrip generates a small-scale report, writes it via
// runJSON, reads it back, and validates the schema — the same check the
// CI schema-validation step runs against the committed BENCH_*.json.
func TestBenchJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a trace and times demodulators")
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := runJSON(experiments.Options{Scale: 0.05}, "test", out); err != nil {
		t.Fatal(err)
	}
	report := validateFile(t, out)
	// What the current generator emits, beyond what every document owes.
	if len(report.Scaling) == 0 {
		t.Error("generated report has no scaling matrix")
	}
	for _, name := range []string{
		experiments.BenchRowIngestQuery, experiments.BenchRowFusedIngest, experiments.BenchRowTreeIngest,
	} {
		if !slices.ContainsFunc(report.Table1, func(rec experiments.BenchRecord) bool { return rec.Name == name }) {
			t.Errorf("generated report has no %q table1 row", name)
		}
	}
}

// TestBenchJSONValidatesFile checks an existing document named by
// RFBENCH_JSON (the CI step points this at the committed BENCH_*.json).
func TestBenchJSONValidatesFile(t *testing.T) {
	path := os.Getenv("RFBENCH_JSON")
	if path == "" {
		t.Skip("RFBENCH_JSON not set")
	}
	validateFile(t, path)
}

func validateFile(t *testing.T, path string) experiments.BenchReport {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report experiments.BenchReport
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&report); err != nil {
		t.Fatalf("%s: decode: %v", path, err)
	}
	if err := report.Validate(); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(report.Figure9) != 9 {
		t.Errorf("%s: figure9 has %d rows, want 9 architectures", path, len(report.Figure9))
	}
	return report
}
