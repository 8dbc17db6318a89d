package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strings"
	"testing"

	"schedact/internal/scenario"
)

// testExpectedEnv, when set in a child process of the test binary, replaces
// the recorded expected values, so a test can feed a wrong fingerprint.
const testExpectedEnv = "SCHEDACT_BENCH_TEST_EXPECTED"

// TestMain lets the test binary stand in for the benchmark binary: the
// command re-executes itself for every workload, and in a test that is this
// binary.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		if e := os.Getenv(testExpectedEnv); e != "" {
			expectedJSON = []byte(e)
		}
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runBench runs the command and returns its exit code, its output, and the
// result line of every workload.
func runBench(t *testing.T, args ...string) (int, string, map[string]outcome) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	results := map[string]outcome{}
	for _, line := range strings.Split(stdout.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "result "); ok {
			name, raw, _ := strings.Cut(rest, " ")
			var o outcome
			if err := json.Unmarshal([]byte(raw), &o); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			results[name] = o
		}
	}
	if t.Failed() || code != 0 {
		t.Logf("bench %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
	}
	return code, stdout.String(), results
}

// checkPrinted asserts that every metric is in the workload's result line
// with its unit and on a text line of the report with its unit.
func checkPrinted(t *testing.T, out, workload string, res outcome, metrics []bound) {
	t.Helper()
	for _, m := range metrics {
		v, ok := res.Metrics[m.Name]
		if !ok || v.Unit != m.Unit {
			t.Errorf("%s: result line has %s = %+v, want unit %q", workload, m.Name, v, m.Unit)
		}
		line := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(m.Name) + ` +\S+ +` + regexp.QuoteMeta(m.Unit) + `( |$)`)
		if !line.MatchString(out) {
			t.Errorf("%s: no report line for %s in %s", workload, m.Name, m.Unit)
		}
	}
}

// checkPassed asserts that every workload ran and passed its checks.
func checkPassed(t *testing.T, out string, results map[string]outcome, spec benchmarkSpec) {
	t.Helper()
	for _, w := range spec.Workloads {
		res, ok := results[w.Name]
		switch {
		case !ok:
			t.Errorf("no result line for workload %s", w.Name)
		case !res.Correct || res.Failed != 0 || res.Attempted < 1:
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.Name, res.Correct, res.Failed, res.Attempted)
		}
	}
	if n := strings.Count(out, "\n  fail_frac "); n != len(spec.Workloads) {
		t.Errorf("fail_frac printed %d times, want once per workload", n)
	}
	if regexp.MustCompile(`(?m)^  fail_frac +[^0 ]`).MatchString(out) {
		t.Error("a workload reports fail_frac above 0")
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced: four
// chaos seeds, one N-body pass of 16 bodies and 2 steps, one micro
// iteration.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)

	code, out, results := runBench(t, "-smoke")
	if code != 0 {
		t.Fatalf("untraced smoke run exited %d", code)
	}
	checkPassed(t, out, results, spec)
	for name, res := range results {
		checkPrinted(t, out, name, res, spec.EndToEnd)
	}

	if raceBuild() {
		t.Skip("traced half skipped: the race detector's own frames dominate the profile of an instrumented binary")
	}
	dir := t.TempDir()
	code, out, results = runBench(t, "-smoke", "-trace", dir)
	if code != 0 {
		t.Fatalf("traced smoke run exited %d", code)
	}
	checkPassed(t, out, results, spec)
	for name, res := range results {
		checkPrinted(t, out, name, res, spec.PerLayer)
	}
	files := []string{"spans.json", "layers.json"}
	for _, w := range spec.Workloads {
		files = append(files, w.Name+".pprof")
	}
	for _, f := range files {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Error(err)
		}
	}
}

// raceBuild reports whether this binary was built with -race.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestWrongFingerprintFails feeds a wrong expected fingerprint for the one
// pass of the N-body smoke run: the command must exit nonzero and count
// every job of that pass as failed.
func TestWrongFingerprintFails(t *testing.T) {
	t.Setenv(testExpectedEnv, `{"fingerprints": {"fig1-smoke/1": "0123456789abcdef"}}`)
	code, out, results := runBench(t, "-smoke", "-workload", "nbody-speedup")
	if code == 0 {
		t.Error("exit code 0 despite a fingerprint mismatch")
	}
	res := results["nbody-speedup"]
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
		t.Errorf("correct=%v failed=%d attempted=%d, want every job failed", res.Correct, res.Failed, res.Attempted)
	}
	if !regexp.MustCompile(`(?m)^  fail_frac +1 +ratio`).MatchString(out) {
		t.Error("report does not show fail_frac 1")
	}
	if !strings.Contains(out, "expected 0123456789abcdef") {
		t.Error("report does not name the expected fingerprint")
	}
}

// TestSeedMapping pins how -seed generates inputs: seed 0's first pass of
// each N-body workload is the built-in spec itself and seed 1 moves it,
// while chaos sweeps the built-in chaos spec's seeds 1..1024 at any seed.
func TestSeedMapping(t *testing.T) {
	for _, c := range []struct {
		workload string
		builtin  scenario.Spec
		seeded   bool
	}{
		{"nbody-speedup", scenario.Fig1(), true},
		{"nbody-memory", scenario.Fig2(), true},
		{"chaos", scenario.ChaosSpec(1, 1024), false},
	} {
		w, _ := lookupWorkload(c.workload)
		if got := w.passes(0, 1, false)[0].specHash(); got != scenario.Hash(c.builtin) {
			t.Errorf("%s seed 0 pass 0: spec hash %016x, want the built-in %s's %016x", c.workload, got, c.builtin.Name, scenario.Hash(c.builtin))
		}
		if got := w.passes(1, 1, false)[0].specHash(); (got != scenario.Hash(c.builtin)) != c.seeded {
			t.Errorf("%s seed 1 pass 0: spec hash %016x; seed-dependent inputs %v", c.workload, got, c.seeded)
		}
	}
	for name, want := range map[string]int{"chaos": 1024, "nbody-speedup": 216, "nbody-memory": 104, "micro": 2500} {
		w, _ := lookupWorkload(name)
		if got := jobCount(w.passes(3, 1, false)); got != want {
			t.Errorf("%s: %d jobs at the default size, want %d", name, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles(xs, n=4)[0] and [2]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3, err := quartiles(c.xs)
		if err != nil || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, err, c.q1, c.q3)
		}
	}
	if got := percentile([]float64{10, 20, 30, 40, 50}, 90); got != 46 {
		t.Errorf("p90 = %v, want 46", got)
	}
}

// TestCompareVerdicts writes two sets of saved run outputs and checks the
// verdict of each metric against BENCHMARK.json's bounds.
func TestCompareVerdicts(t *testing.T) {
	write := func(dir string, jobsPerS []float64) {
		for i, v := range jobsPerS {
			o := outcome{Correct: true, Attempted: 1, Metrics: map[string]value{}}
			for _, m := range endToEnd {
				o.Metrics[m.name] = value{1 + float64(i)/1000, m.unit}
			}
			o.Metrics["jobs_per_s"] = value{v, "jobs/s"}
			raw, _ := json.Marshal(o)
			line := "result chaos " + string(raw) + "\n"
			if err := os.WriteFile(filepath.Join(dir, "run"+string(rune('0'+i))), []byte(line), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, same, slower, noisy := t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()
	write(a, []float64{100, 101, 99, 100, 100.5})
	write(same, []float64{100.2, 99.8, 100.1, 100, 99.9})
	write(slower, []float64{60, 61, 59, 60, 60.5})
	write(noisy, []float64{60, 140, 100, 70, 130})

	for _, c := range []struct {
		b       string
		code    int
		verdict string
	}{
		{same, 0, "unchanged"},
		{slower, 1, "regressed"},
		{noisy, 0, "unresolved"},
	} {
		var out bytes.Buffer
		if code := compareMain([]string{a, c.b}, &out, &out); code != c.code {
			t.Errorf("exit %d, want %d\n%s", code, c.code, out.String())
		}
		if !regexp.MustCompile(`(?m)^chaos +jobs_per_s .* ` + c.verdict + `$`).MatchString(out.String()) {
			t.Errorf("jobs_per_s not %s:\n%s", c.verdict, out.String())
		}
	}
}
