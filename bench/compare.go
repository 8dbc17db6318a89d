package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// minRunsPerSide is the fewest saved runs -compare accepts on each side.
const minRunsPerSide = 5

// bound is one end-to-end metric's regression bound from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBounds reads the end-to-end bounds from the BENCHMARK.json in the
// working directory or the nearest parent that has one.
func loadBounds() ([]bound, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var spec struct {
				EndToEnd []bound `json:"end_to_end"`
			}
			if err := json.Unmarshal(raw, &spec); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return spec.EndToEnd, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("no BENCHMARK.json in the working directory or its parents")
		}
		dir = parent
	}
}

// loadRuns reads every "result <workload> <json>" line of the files in dir:
// values[workload][metric] lists one reading per run.
func loadRuns(dir string) (map[string]map[string][]float64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	values := map[string]map[string][]float64{}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		if err := readRun(path, values); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return values, nil
}

func readRun(path string, values map[string]map[string][]float64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "result ")
		if !ok {
			continue
		}
		name, raw, _ := strings.Cut(rest, " ")
		var o outcome
		if err := json.Unmarshal([]byte(raw), &o); err != nil {
			return fmt.Errorf("result line for %s: %w", name, err)
		}
		if !o.Correct {
			return fmt.Errorf("run of %s failed its correctness checks", name)
		}
		if values[name] == nil {
			values[name] = map[string][]float64{}
		}
		for k, v := range o.Metrics {
			values[name][k] = append(values[name][k], v.Value)
		}
	}
	return sc.Err()
}

// side summarizes one side's runs of one metric.
type side struct {
	n               int
	med, q1, q3     float64
	spread          float64 // (q3-q1)/median
	lowest, highest float64
}

func summarize(xs []float64) side {
	s := side{n: len(xs), med: median(xs)}
	if len(xs) > 0 {
		s.lowest, s.highest = slices.Min(xs), slices.Max(xs)
	}
	s.q1, s.q3, _ = quartiles(xs) // fewer than 2 runs: verdict reports unresolved
	s.spread = ratio(s.q3-s.q1, s.med)
	return s
}

// verdict judges B (the change) against A (the parent) for one metric:
// unresolved when either side's interquartile spread is wider than the
// bound, unless every run of B beats every run of A; regressed when B's
// median is worse by more than the bound; improved when it is better by more
// than A's interquartile range; otherwise unchanged.
func verdict(a, b side, bd bound) (worse float64, v string) {
	lower := bd.Better == "lower"
	worse = ratio(b.med-a.med, a.med)
	if !lower {
		worse = -worse
	}
	allBetter := b.highest < a.lowest
	if !lower {
		allBetter = b.lowest > a.highest
	}
	switch {
	case a.n < minRunsPerSide || b.n < minRunsPerSide:
		return worse, "unresolved"
	case a.spread > bd.Bound || b.spread > bd.Bound:
		if allBetter {
			return worse, "improved"
		}
		return worse, "unresolved"
	case worse > bd.Bound:
		return worse, "regressed"
	case -worse*a.med > a.q3-a.q1:
		return worse, "improved"
	}
	return worse, "unchanged"
}

// compareMain is -compare A B. It exits 1 when any metric regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes two directories: A (parent) and B (change)")
		return 2
	}
	bounds, err := loadBounds()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	var runs [2]map[string]map[string][]float64
	for i, dir := range args {
		if runs[i], err = loadRuns(dir); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	var names []string
	for w := range runs[0] {
		if runs[1][w] != nil {
			names = append(names, w)
		}
	}
	sort.Slice(names, func(i, j int) bool { return workloadOrder(names[i]) < workloadOrder(names[j]) })
	if len(names) == 0 {
		fmt.Fprintln(stderr, "bench: the two directories share no workload")
		return 1
	}
	fmt.Fprintf(stdout, "%-14s %-17s %-34s %-34s %8s %6s  %s\n", "workload", "metric",
		"A median [q1, q3] (n)", "B median [q1, q3] (n)", "B worse", "bound", "verdict")
	counts := map[string]int{}
	for _, w := range names {
		for _, bd := range bounds {
			a, b := summarize(runs[0][w][bd.Name]), summarize(runs[1][w][bd.Name])
			worse, v := verdict(a, b, bd)
			counts[v]++
			fmt.Fprintf(stdout, "%-14s %-17s %-34s %-34s %+7.2f%% %5.0f%%  %s\n", w, bd.Name,
				sideString(a), sideString(b), 100*worse, 100*bd.Bound, v)
		}
	}
	fmt.Fprintf(stdout, "compare: %d improved, %d unchanged, %d regressed, %d unresolved\n",
		counts["improved"], counts["unchanged"], counts["regressed"], counts["unresolved"])
	if counts["regressed"] > 0 {
		return 1
	}
	return 0
}

func sideString(s side) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", s.med, s.q1, s.q3, s.n)
}

// workloadOrder sorts workloads in run order, unknown names last.
func workloadOrder(name string) int {
	for i, w := range workloads {
		if w.name == name {
			return i
		}
	}
	return len(workloads)
}
