// Command bench is the repository's benchmark. It drives four workloads
// through the program's public entry points, checks the simulated results,
// and reports host-side end-to-end metrics; a traced run adds a CPU profile
// folded by layer, the stats-sink work counts, and the benchmark's own
// spans. See README.md for the workloads, metrics and seed semantics.
//
//	bash bench/run.sh                          all four workloads, untraced
//	bash bench/run.sh -workload chaos -seed 3  one workload, another seed
//	bash bench/run.sh -trace DIR               the traced run, files in DIR
//	bash bench/run.sh -compare A B             verdicts over saved run outputs
//
// Each workload runs in fresh child processes of this binary, one at a
// time: set-up is timed from exec to the first job line over several
// processes, and the timed phase is one closed loop with a single client at
// fleet width 1.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// setupProcs is how many processes set-up time is the median of: one
	// sample varied 20-40%.
	setupProcs = 5
	// workloadBudget bounds one workload's child processes.
	workloadBudget = 170 * time.Second
	// defaultTraceDir is where "-trace 1" writes, relative to the working
	// directory (the checkout's root under run.sh).
	defaultTraceDir = ".bench_build/trace"
	// childEnv marks a child process; a test binary uses it to act as the
	// benchmark instead of running tests.
	childEnv = "SCHEDACT_BENCH_CHILD"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the parent's settings, passed on to every child.
type options struct {
	seed     int64
	seconds  float64
	tiny     bool
	traceDir string
}

// passes generates a workload's inputs.
func (o options) passes(w workload) []pass { return w.passes(o.seed, o.seconds/10, o.tiny) }

func (o options) childArgs(w workload) []string {
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64)}
	if o.tiny {
		args = append(args, "-smoke")
	}
	return args
}

// run is the command; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all of them, in order)")
	seed := fs.Int64("seed", 0, "input seed: selects the N-body body seeds (the chaos and micro inputs are fixed)")
	seconds := fs.Float64("seconds", 10, "run length: job counts are scaled to about this much host time on the 2-core reference host")
	traceArg := fs.String("trace", "0", `"0": untraced end-to-end run; "1" or a directory: traced per-layer run, files in the directory (default `+defaultTraceDir+")")
	compare := fs.Bool("compare", false, "compare two directories of saved run outputs: -compare A B")
	smoke := fs.Bool("smoke", false, "tiny sizes for the smoke test; the numbers are not comparable")
	childMode := fs.Bool("child", false, "internal: run one workload in this process")
	setupOnly := fs.Bool("setup-only", false, "internal: with -child, exit at the first job line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if !(*seconds > 0 && *seconds <= 60) {
		fmt.Fprintf(stderr, "bench: -seconds %v out of range (0, 60]\n", *seconds)
		return 2
	}
	if *seed < 0 {
		fmt.Fprintf(stderr, "bench: -seed %d must not be negative\n", *seed)
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, tiny: *smoke}
	switch *traceArg {
	case "0":
	case "1":
		opt.traceDir = defaultTraceDir
	default:
		opt.traceDir = *traceArg
	}
	ws := workloads
	if *name != "" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, workloadNames())
			return 2
		}
		ws = []workload{w}
	}
	if *childMode {
		if len(ws) != 1 {
			fmt.Fprintln(stderr, "bench: -child needs -workload")
			return 2
		}
		expected, err := loadExpected()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		res, err := runChild(childConfig{options: opt, workload: ws[0], setupOnly: *setupOnly, expected: expected}, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", ws[0].name, err)
			return 1
		}
		raw, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s%s\n", resultPrefix, raw)
		return 0
	}
	if opt.traceDir != "" {
		if err := os.MkdirAll(opt.traceDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return drive(ws, opt, stdout, stderr)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// outcome is one workload's result line.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// drive runs each workload in child processes and prints its report, a
// "result <workload> <json>" line, and finally the summary JSON line.
func drive(ws []workload, opt options, stdout, stderr io.Writer) int {
	mode := "untraced"
	if opt.traceDir != "" {
		mode = "traced into " + opt.traceDir
	}
	fmt.Fprintf(stdout, "bench: seed %d, %gs per workload, closed loop with 1 client at fleet width 1, GOMAXPROCS=%d, %s\n",
		opt.seed, opt.seconds, runtime.GOMAXPROCS(0), mode)
	all := outcome{Correct: true, Metrics: map[string]value{}}
	var events []chromeEvent
	layerJSON := map[string]map[string]value{}
	for i, w := range ws {
		var o outcome
		if opt.traceDir == "" {
			o = measure(w, opt, stdout, stderr)
		} else {
			var spans []span
			o, spans = measureTraced(w, opt, stdout, stderr)
			events = append(events, spanEvents(i, fmt.Sprintf("%s-seed%d", w.name, opt.seed), spans)...)
			layerJSON[w.name] = o.Metrics
		}
		raw, _ := json.Marshal(o)
		fmt.Fprintf(stdout, "result %s %s\n", w.name, raw)
		all.Correct = all.Correct && o.Correct
		all.Attempted += o.Attempted
		all.Failed += o.Failed
		for k, v := range o.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
		if len(ws) == 1 { // a single workload's summary is its own result line
			all = o
		}
	}
	if opt.traceDir != "" {
		if err := writeTraceFiles(opt.traceDir, events, layerJSON); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			all.Correct = false
		}
	}
	raw, _ := json.Marshal(all)
	fmt.Fprintf(stdout, "%s\n", raw)
	if !all.Correct {
		return 1
	}
	return 0
}

// measure is the untraced run of one workload: setupProcs-1 processes that
// stop at their first job line, then the timed process, which is the last
// set-up sample too.
func measure(w workload, opt options, stdout, stderr io.Writer) outcome {
	ctx, cancel := context.WithTimeout(context.Background(), workloadBudget)
	defer cancel()
	o := outcome{Attempted: jobCount(opt.passes(w))}
	var setups []float64
	for i := 0; i < setupProcs-1; i++ {
		setup, _, err := spawn(ctx, append(opt.childArgs(w), "-setup-only"), stderr)
		if err != nil {
			return failed(w, o, err, stdout)
		}
		setups = append(setups, setup.Seconds())
	}
	setup, res, err := spawn(ctx, opt.childArgs(w), stderr)
	if err != nil {
		return failed(w, o, err, stdout)
	}
	setups = append(setups, setup.Seconds())
	o.Failed = res.Failed
	o.Correct = res.Failed == 0
	o.Metrics = e2eMetrics(w, *res, setups)
	samples := make([]string, len(setups))
	for i, s := range setups {
		samples[i] = strconv.FormatFloat(s, 'f', 4, 64)
	}
	report(w, opt, o, *res, map[string]string{
		"job_ms_p50":  fmt.Sprintf("geometric mean of the medians of %d job classes, %d jobs", len(res.Classes), len(res.JobNs)),
		"job_ms_tail": fmt.Sprintf("p%g of %d jobs", w.tail, len(res.JobNs)),
		"setup_s":     fmt.Sprintf("median of %d processes, exec to first job line: %s", setupProcs, strings.Join(samples, " ")),
	}, stdout)
	return o
}

// measureTraced is the traced run of one workload: an untraced timed process
// for the overhead baseline, then the traced one, whose profile is folded by
// layer.
func measureTraced(w workload, opt options, stdout, stderr io.Writer) (outcome, []span) {
	ctx, cancel := context.WithTimeout(context.Background(), workloadBudget)
	defer cancel()
	o := outcome{Attempted: jobCount(opt.passes(w))}
	_, base, err := spawn(ctx, opt.childArgs(w), stderr)
	if err != nil {
		return failed(w, o, err, stdout), nil
	}
	_, res, err := spawn(ctx, append(opt.childArgs(w), "-trace", opt.traceDir), stderr)
	if err == nil && res.Trace == nil {
		err = errors.New("traced child returned no trace data")
	}
	if err != nil {
		return failed(w, o, err, stdout), nil
	}
	folded, err := foldProfile(profilePath(opt.traceDir, w.name))
	if err != nil {
		return failed(w, o, err, stdout), nil
	}
	rep := layerMetrics(*res, folded, base.jobsPerS())
	o.Failed = res.Failed
	o.Correct = res.Failed == 0 && base.Failed == 0
	o.Metrics = rep.metrics
	report(w, opt, o, *res, rep.bases, stdout)
	if u := rep.metrics["unattributed_pct"].Value; u > maxUnattributedPct && rep.profiled >= minProfiled {
		o.Correct = false
		fmt.Fprintf(stdout, "  FAIL unattributed_pct %.2f%% exceeds %d%%: the folding rules miss part of the profile\n", u, maxUnattributedPct)
	}
	if w.name == "chaos" {
		fmt.Fprintln(stdout, "  note: chaos runs on warm run contexts that never reach the stats sink; its engine counts wait for tracing inside the program")
	}
	return o, res.Trace.Spans
}

// failed reports a workload whose child process could not finish: every
// job counts as failed.
func failed(w workload, o outcome, err error, stdout io.Writer) outcome {
	fmt.Fprintf(stdout, "== %s: FAILED: %v\n", w.name, err)
	o.Failed = o.Attempted
	o.Metrics = map[string]value{}
	return o
}

// report prints one workload's metrics by name and unit, each with its base
// from ann where it has one, then the checks' notes.
func report(w workload, opt options, o outcome, res childResult, ann map[string]string, stdout io.Writer) {
	fmt.Fprintf(stdout, "== %s: %d jobs (%d timed after the first), seed %d\n", w.name, o.Attempted, len(res.JobNs), opt.seed)
	names := make([]string, 0, len(o.Metrics))
	for k := range o.Metrics {
		names = append(names, k)
	}
	order := map[string]int{}
	for i, m := range append(endToEnd, perLayer()...) {
		order[m.name] = i
	}
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	for _, k := range names {
		v := o.Metrics[k]
		fmt.Fprintf(stdout, "  %-40s %14.6g %-9s %s\n", k, v.Value, v.Unit, ann[k])
	}
	fmt.Fprintf(stdout, "  %-40s %14.6g %-9s %d of %d jobs failed\n", "fail_frac", ratio(float64(o.Failed), float64(o.Attempted)), "ratio", o.Failed, o.Attempted)
	if w.paperRef {
		fmt.Fprintf(stdout, "  %-40s %14.6g %-9s mean over %d paper values\n", "paper_err_pct", 100*mean(res.PaperErr), "%", len(res.PaperErr))
	} else {
		fmt.Fprintf(stdout, "  %-40s %14s %-9s no reference in repo: unvalidated\n", "paper_err_pct", "-", "%")
	}
	if res.Trace == nil {
		fmt.Fprintf(stdout, "  %-40s %14.6g %-9s peak resident set (VmHWM); printed, not bounded\n", "rss_mb_max", float64(res.RSSKB)*1024/1e6, "MB")
	}
	for _, n := range res.Notes {
		fmt.Fprintf(stdout, "  %s\n", n)
	}
}

// spawn runs one child process of this binary. It returns the time from
// starting the process to its first-job marker, and its result line unless
// the child only measured set-up.
func spawn(ctx context.Context, args []string, stderr io.Writer) (time.Duration, *childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	var setup time.Duration
	var res *childResult
	var parseErr error
	rd := bufio.NewReader(pipe)
	for {
		line, err := rd.ReadString('\n')
		line = strings.TrimSuffix(line, "\n")
		switch {
		case line == firstJobMarker:
			setup = time.Since(start)
		case strings.HasPrefix(line, resultPrefix):
			res = new(childResult)
			parseErr = json.Unmarshal([]byte(strings.TrimPrefix(line, resultPrefix)), res)
		}
		if err != nil {
			break
		}
	}
	if err := cmd.Wait(); err != nil {
		return 0, nil, fmt.Errorf("child %v: %w", args, err)
	}
	switch {
	case parseErr != nil:
		return 0, nil, fmt.Errorf("child result: %w", parseErr)
	case setup == 0:
		return 0, nil, errors.New("child produced no job line")
	case res == nil && !slices.Contains(args, "-setup-only"):
		return 0, nil, errors.New("child printed no result")
	}
	return setup, res, nil
}
