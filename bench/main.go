// Command bench is the repository's end-to-end and per-layer benchmark
// of the monitoring path: samples enter a wire decoder, events leave an
// SSE socket — for one rfdumpd, for a DVR node under query load, and for
// a two-level rfdumpc tree. See README.md beside this file.
//
//	bash bench/run.sh --workload node-sparse --seed 1 --seconds 20
//	bash bench/run.sh --workload node-dvr --seed 1 --trace 1   # + staged replay, spans
//	bash bench/run.sh --repeat 10 --sets 2                     # repeatability report
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, metrics. With -trace 0 the metrics are the
// end-to-end ones, with -trace 1 the per-layer ones. The exit code is
// non-zero when the correctness gate fails (metrics are still printed).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed the documentation's figures use. README.md
// names the held-out seed, which is never used while tuning.
const defaultSeed = 1

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seedArg = flag.String("seed", strconv.Itoa(defaultSeed), "ether seed, any 64-bit integer: the same seed gives the same trace and ground truth")
		seconds = flag.Int("seconds", 20, "measured seconds: half paced (after a 2 s warm-up), half flood")
		trace   = flag.Int("trace", 0, "1 adds the traced staged replay, writes spans, and makes the final JSON carry the per-layer metrics")
		scratch = flag.String("scratch", ".bench_out", "directory for the DVR store and the spans files (created; safe to delete)")
		repeat  = flag.Int("repeat", 0, "repeatability mode: run every workload this many times per set and report the spread")
		sets    = flag.Int("sets", 2, "interleaved sets in repeatability mode")
	)
	flag.Parse()
	seed, err := parseSeed(*seedArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -seed:", err)
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatability(*repeat, *sets, seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "bench: need -workload (%s) and -seconds ≥ 1\n", workloadNames())
		os.Exit(2)
	}
	r, err := runOnce(w, seed, defaultScale(*seconds), *trace == 1, *scratch, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	fmt.Println(r.jsonLine(defs))
	if len(r.failures) > 0 {
		os.Exit(1)
	}
}

// parseSeed takes what a driver may pass: unsigned up to 2⁶⁴−1, or a
// negative number, which maps to its two's complement.
func parseSeed(s string) (uint64, error) {
	if u, err := strconv.ParseUint(s, 10, 64); err == nil {
		return u, nil
	}
	i, err := strconv.ParseInt(s, 10, 64)
	return uint64(i), err
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runOnce runs one workload end to end (and, traced, the staged replay)
// and prints the environment stamp and every metric to out.
func runOnce(w workload, seed uint64, sc scale, traced bool, scratch string, out io.Writer) (*report, error) {
	printStamp(out, w, seed, sc)
	d, err := runE2E(w, seed, sc, scratch)
	if err != nil {
		return nil, err
	}
	r := analyze(d)
	shown := append(append([]metricDef(nil), endToEnd...), layerFromRun...)
	if traced {
		spans := filepath.Join(scratch, "spans-"+w.name+".json")
		if err := stagedReplay(d.base, scratch, spans, r); err != nil {
			r.failf("staged replay: %v", err)
		} else {
			fmt.Fprintf(out, "spans: %s\n", spans)
			shown = append(shown, layerFromReplay...)
		}
	}
	fmt.Fprintf(out, "ops_attempted %d  ops_failed %d\n", r.attempted, r.failed)
	for _, m := range shown {
		fmt.Fprintf(out, "%-34s %14.4f %s\n", m.name, r.values[m.name], m.unit)
	}
	for _, msg := range r.warnings {
		fmt.Fprintln(out, "WARNING:", msg)
	}
	for _, msg := range r.failures {
		fmt.Fprintln(out, "FAIL:", msg)
	}
	return r, nil
}

// printStamp records what the numbers were taken on.
func printStamp(out io.Writer, w workload, seed uint64, sc scale) {
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	load := "unknown"
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.Join(strings.Fields(string(b))[:3], " ")
	}
	fmt.Fprintf(out, "bench %s seed=%d paced=%s(+%s warm-up) flood=%s setups=%d\n",
		w, seed, sc.pDur, sc.warmup, sc.fDur, sc.setups)
	fmt.Fprintf(out, "env commit=%s %s nproc=%d GOMAXPROCS=%d loadavg=%s at=%s\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), load, time.Now().UTC().Format(time.RFC3339))
}

// result is the driver-facing JSON object a run prints as its last line
// (and repeatability mode reads back from its children).
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonLine renders the result object over the given metrics.
func (r *report) jsonLine(defs []metricDef) string {
	out := result{len(r.failures) == 0, r.attempted, r.failed, make(map[string]metricValue)}
	for _, m := range defs {
		v := r.values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no spelling for it; the gate has already failed the run
		}
		out.Metrics[m.name] = metricValue{v, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings only
	}
	return string(b)
}
