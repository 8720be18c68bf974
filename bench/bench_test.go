package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// smokeScale is every workload at a tiny fixed size: a quarter-second
// base trace, three quarters of a second paced, half a second of flood.
var smokeScale = scale{
	baseFrames: 488,
	warmup:     250 * time.Millisecond,
	pDur:       750 * time.Millisecond,
	fDur:       500 * time.Millisecond,
	setups:     1,
}

// TestSmoke runs each workload end to end at smoke scale and asserts the
// correctness gate and that every declared metric is produced and
// printed. It asserts no timing, so it cannot flake on a slow machine.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon end-to-end runs in -short")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			// The staged replay does not depend on the tiers; one sparse
			// and one dense trace cover it.
			traced := !w.dvr && !w.tree
			var out bytes.Buffer
			r, err := runOnce(w, defaultSeed, smokeScale, traced, t.TempDir(), &out)
			if err != nil {
				t.Fatal(err)
			}
			for _, msg := range r.failures {
				t.Error("correctness gate:", msg)
			}
			if r.attempted == 0 {
				t.Error("no ground-truth transmission was attempted")
			}
			want := append(append([]metricDef(nil), endToEnd...), layerFromRun...)
			if traced {
				want = append(want, layerFromReplay...)
			}
			for _, m := range want {
				if _, ok := r.values[m.name]; !ok {
					t.Errorf("metric %s was not measured", m.name)
				}
				if !strings.Contains(out.String(), "\n"+m.name+" ") {
					t.Errorf("metric %s was not printed", m.name)
				}
			}
			if t.Failed() {
				t.Log(out.String())
			}
		})
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the names, units,
// directions and bounds the code reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 20 {
		t.Errorf("run_seconds %d: neither phase may drop below 10 s", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the code has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, the code has %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, the code has %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: %+v, the code has %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.bound) {
				t.Errorf("%s %s: bound %v, the code has %v", kind, m.name, g.Bound, m.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
