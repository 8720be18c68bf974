package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runChild runs one workload in a fresh process (a fresh heap, GC state
// and socket set, as the driver does) and parses its last line.
func runChild(w workload, seed uint64, seconds int) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%s seed %d: %w\n%s", w.name, seed, err, out)
	}
	last := ""
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("%s seed %d: last line is not a result: %w", w.name, seed, err)
	}
	return res, nil
}

// quartiles is Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is what the driver computes spreads with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		j = max(1, min(j, ld-1))
		delta := i*(ld+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// repeatability runs sets interleaved sets of n runs of every workload
// (run i of every set uses seed+i) and prints, per workload and
// end-to-end metric, each set's median and quartiles, the run-to-run
// spread, and whether the sets agree within the metric's bound.
func repeatability(n, sets int, seed uint64, seconds int) error {
	type key struct {
		w   string
		set int
	}
	values := make(map[key]map[string][]float64)
	ops := make(map[key][]string) // "failed/attempted" per run, for the same-seed check
	for i := 0; i < n; i++ {
		for set := 0; set < sets; set++ {
			for _, w := range workloads {
				res, err := runChild(w, seed+uint64(i), seconds)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: run failed its correctness gate", w.name, seed+uint64(i))
				}
				k := key{w.name, set}
				if values[k] == nil {
					values[k] = make(map[string][]float64)
				}
				for name, m := range res.Metrics {
					values[k][name] = append(values[k][name], m.Value)
				}
				ops[k] = append(ops[k], fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
				fmt.Fprintf(os.Stderr, "run %d/%d set %d %s done\n", i+1, n, set, w.name)
			}
		}
	}

	fmt.Printf("Repeatability: %d sets × %d runs per workload, seeds %d…%d, -seconds %d.\n", sets, n, seed, seed+uint64(n)-1, seconds)
	fmt.Println("`iqr/med` is the driver's spread (quartile distance ÷ median, worst set); `range/med` is (max−min) ÷ median over all runs;")
	fmt.Println("`Δmed` is the largest distance between two sets' medians ÷ the first's. A row agrees when `Δmed` ≤ bound; it is quiet when `iqr/med` ≤ bound ÷ 3.")
	for _, w := range workloads {
		fmt.Printf("\n### %s\n\n", w.name)
		same := true
		for set := 1; set < sets; set++ {
			same = same && strings.Join(ops[key{w.name, set}], " ") == strings.Join(ops[key{w.name, 0}], " ")
		}
		fmt.Printf("ops_failed/ops_attempted per seed: %s — identical across sets: %v\n\n", strings.Join(ops[key{w.name, 0}], " "), same)
		fmt.Print("| metric | unit | bound |")
		for set := 0; set < sets; set++ {
			fmt.Printf(" set %d median [q1, q3] |", set)
		}
		fmt.Println(" iqr/med | range/med | Δmed | agrees | quiet |")
		fmt.Println("|---|---|---|" + strings.Repeat("---|", sets) + "---|---|---|---|---|")
		for _, m := range endToEnd {
			fmt.Printf("| %s | %s | %.3g |", m.name, m.unit, m.bound)
			var all, medians []float64
			worst := 0.0
			for set := 0; set < sets; set++ {
				xs := values[key{w.name, set}][m.name]
				q1, q2, q3 := quartiles(xs)
				fmt.Printf(" %.4g [%.4g, %.4g] |", q2, q1, q3)
				worst = math.Max(worst, (q3-q1)/q2)
				medians = append(medians, q2)
				all = append(all, xs...)
			}
			sort.Float64s(all)
			_, med, _ := quartiles(all)
			delta := 0.0
			for _, a := range medians {
				for _, b := range medians {
					delta = math.Max(delta, math.Abs(a-b)/medians[0])
				}
			}
			fmt.Printf(" %.4f | %.4f | %.4f | %v | %v |\n", worst, (all[len(all)-1]-all[0])/med, delta, delta <= m.bound, worst <= m.bound/3)
		}
	}
	return nil
}
