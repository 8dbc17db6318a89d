package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"
)

// expectedJSON holds the simulated results the benchmark checks, recorded at
// seed 0: program and fleet fingerprints keyed like pass.key, and the values
// each micro experiment must reproduce (these do not depend on the seed).
//
//go:embed expected.json
var expectedJSON []byte

type expectedValues struct {
	Fingerprints map[string]string    `json:"fingerprints"`
	Micro        map[string][]float64 `json:"micro"`
}

func loadExpected() (expectedValues, error) {
	var e expectedValues
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return e, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
}

// Child protocol: a child process writes the marker line the moment its
// first job line arrives, then, unless it only measures set-up, one result
// line at the end. Nothing else goes to its standard output.
const (
	firstJobMarker = "bench-first-job"
	resultPrefix   = "bench-result "
)

// childConfig is one child process's assignment; options.traceDir is
// non-empty for the traced run.
type childConfig struct {
	options
	workload  workload
	setupOnly bool
	expected  expectedValues
}

// childResult is what a child reports to its parent.
type childResult struct {
	Attempted  int        `json:"attempted"`
	Failed     int        `json:"failed"`
	JobNs      []int64    `json:"job_ns"`      // host time of every job after the first
	JobClass   []int      `json:"job_class"`   // each of those jobs' index in Classes
	Classes    []string   `json:"classes"`     // job classes: a cell of a spec, a micro experiment, or chaos
	TimedNs    int64      `json:"timed_ns"`    // first job line to the end of the workload
	AllocBytes uint64     `json:"alloc_bytes"` // runtime TotalAlloc over the same window
	RSSKB      uint64     `json:"rss_kb"`      // peak resident set (VmHWM)
	PaperErr   []float64  `json:"paper_err"`   // |measured-paper|/paper, one per paper value
	Notes      []string   `json:"notes"`       // fingerprints and failed checks
	Trace      *traceData `json:"trace,omitempty"`
}

// jobsPerS is the timed phase's throughput: jobs after the first per second
// from the first job line to the end of the workload.
func (r childResult) jobsPerS() float64 {
	return ratio(float64(len(r.JobNs)), float64(r.TimedNs)/1e9)
}

// profilePath is where the traced run of a workload writes its CPU profile.
func profilePath(dir, workload string) string { return filepath.Join(dir, workload+".pprof") }

// traceData is the traced run's extra output.
type traceData struct {
	Counters  map[string]uint64 `json:"counters"` // stats-sink totals
	CompileUs float64           `json:"compile_us"`
	SeedSum   seedLine          `json:"seed_sum"` // chaos results lines, summed
	Sweep     sweepTotals       `json:"sweep"`
	Spans     []span            `json:"spans"`
}

// span is one interval of the benchmark's own trace, in nanoseconds since
// the child started. Workload, pass and job spans nest by Parent.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// child runs one workload in this process.
type child struct {
	cfg    childConfig
	out    io.Writer
	res    childResult
	origin time.Time       // spans' time zero
	first  time.Time       // first job line
	last   time.Time       // previous job boundary
	alloc0 uint64          // TotalAlloc at the first job line
	noted  map[string]bool // report lines already added

	paperDone map[string]bool // micro experiments whose paper errors are in
	classes   map[string]int  // job class -> index in res.Classes

	nextID     int // span ids, traced run only
	workloadID int
}

// runChild executes cfg's workload, writing the protocol lines to out.
func runChild(cfg childConfig, out io.Writer) (childResult, error) {
	c := &child{cfg: cfg, out: out, origin: time.Now(), noted: map[string]bool{}, paperDone: map[string]bool{}, classes: map[string]int{}}
	c.last = c.origin
	c.workloadID = c.newID()
	passes := cfg.passes(cfg.workload)
	c.res.Attempted = jobCount(passes)

	var sink *counterSink
	var results string
	var compile []float64
	if cfg.traceDir != "" {
		prof, err := os.Create(profilePath(cfg.traceDir, cfg.workload.name))
		if err != nil {
			return c.res, err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return c.res, err
		}
		defer pprof.StopCPUProfile()
		sink = installCounterSink()
		c.res.Trace = &traceData{}
		if cfg.workload.name == "chaos" {
			results = filepath.Join(cfg.traceDir, "chaos.results.jsonl")
			if err := os.Remove(results); err != nil && !os.IsNotExist(err) {
				return c.res, err
			}
		}
	}

	for _, p := range passes {
		if c.res.Trace != nil && p.spec != nil {
			compile = append(compile, float64(p.compileTime().Nanoseconds())/1e3)
		}
		c.runPass(p, results)
	}
	end := time.Now()
	if c.first.IsZero() {
		return c.res, fmt.Errorf("workload %s produced no job line", cfg.workload.name)
	}
	c.res.TimedNs = end.Sub(c.first).Nanoseconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.res.AllocBytes = ms.TotalAlloc - c.alloc0
	c.res.RSSKB = peakRSSKB()

	if tr := c.res.Trace; tr != nil {
		pprof.StopCPUProfile()
		c.span(c.workloadID, cfg.workload.name, 0, c.origin, end)
		tr.Counters = sink.snapshot()
		tr.CompileUs = median(compile)
		if results != "" {
			sum, err := readSeedLines(results)
			if err != nil {
				return c.res, err
			}
			tr.SeedSum = sum
		}
	}
	return c.res, nil
}

// runPass runs one pass under recover and folds its verdict into the result:
// a panic, an error, a missing job line, or a fingerprint that moved fails
// every job of the pass.
func (c *child) runPass(p pass, results string) {
	id := c.newID()
	start := time.Now()
	if p.spec == nil {
		c.last = start // micro calls are timed around the call
	}
	lc := &lineClock{c: c, p: p, parent: id}
	out, err := protect(func() (passOutput, error) { return p.run(lc, results) })
	if p.spec == nil && err == nil {
		lc.job()
	}
	c.span(id, p.key, c.workloadID, start, time.Now())
	if err == nil && lc.lines != p.jobs {
		err = fmt.Errorf("%d job lines, want %d", lc.lines, p.jobs)
	}
	if err != nil {
		msg, _, _ := strings.Cut(err.Error(), "\n") // a panic carries its stack
		c.fail(p.jobs, "%s: %s", p.key, msg)
		return
	}
	c.check(p, out)
}

// protect converts a panic in fn into an error.
func protect(fn func() (passOutput, error)) (out passOutput, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// fail counts jobs as failed and reports why.
func (c *child) fail(jobs int, format string, args ...any) {
	c.res.Failed += jobs
	c.note("FAIL " + fmt.Sprintf(format, args...))
}

// note adds a line to the report once, however many passes repeat it.
func (c *child) note(s string) {
	if !c.noted[s] {
		c.noted[s] = true
		c.res.Notes = append(c.res.Notes, s)
	}
}

// check compares one pass's simulated output with what it must be.
func (c *child) check(p pass, out passOutput) {
	if out.Fingerprint != "" {
		want, recorded := c.cfg.expected.Fingerprints[p.key]
		switch {
		case recorded && want != out.Fingerprint:
			c.fail(p.jobs, "%s: fingerprint %s, expected %s", p.key, out.Fingerprint, want)
			return
		case recorded:
			c.note(fmt.Sprintf("fingerprint %s %s (matches expected)", p.key, out.Fingerprint))
		default:
			c.note(fmt.Sprintf("fingerprint %s %s (not recorded: compare with the parent commit)", p.key, out.Fingerprint))
		}
	}
	if sw := out.Sweep; sw != nil {
		if sw.Failed > 0 {
			c.fail(int(sw.Failed), "%s: %d chaos seeds failed", p.key, sw.Failed)
		}
		if tr := c.res.Trace; tr != nil {
			tr.Sweep.UpcallDispatch += sw.UpcallDispatch
			tr.Sweep.ReadyWait += sw.ReadyWait
			tr.Sweep.BlockUnblock += sw.BlockUnblock
		}
	}
	for _, cl := range out.Cells {
		if !cellFinished(cl) {
			c.fail(1, "%s: %s P=%d mem=%g%% reported no result", p.key, cl.System, cl.Procs, cl.MemPct)
		}
	}
	if strings.HasPrefix(p.key, "table5/") && out.Baseline > 0 {
		for _, cl := range out.Cells {
			if paper, ok := table5Paper[cl.System]; ok && cellFinished(cl) {
				c.res.PaperErr = append(c.res.PaperErr, relErr(out.Baseline/mean(cl.Els), paper))
			}
		}
	}
	if p.micro != "" {
		got := make([]float64, len(out.Micro))
		for i, v := range out.Micro {
			got[i] = v.Measured
			if !c.paperDone[p.key] { // the micro values do not vary from call to call
				c.res.PaperErr = append(c.res.PaperErr, relErr(v.Measured, v.Paper))
			}
		}
		c.paperDone[p.key] = true
		if want := c.cfg.expected.Micro[p.key]; !slices.Equal(got, want) {
			c.fail(p.jobs, "%s: measured %v, expected %v", p.key, got, want)
		}
	}
}

// cellFinished reports whether an application job produced a result: an
// elapsed time for every N-body copy, or re-allocation counts for the
// bursty workload.
func cellFinished(cl cell) bool {
	if len(cl.Els) == 0 {
		return cl.Takes+cl.Upcalls > 0
	}
	for _, el := range cl.Els {
		if el <= 0 {
			return false
		}
	}
	return true
}

func relErr(measured, paper float64) float64 { return math.Abs(measured-paper) / paper }

// job records one finished job of the given class at the current instant.
func (c *child) job(parent int, class string) {
	now := time.Now()
	if c.first.IsZero() {
		c.first = now
		fmt.Fprintln(c.out, firstJobMarker)
		if c.cfg.setupOnly {
			os.Exit(0)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		c.alloc0 = ms.TotalAlloc
	} else {
		c.res.JobNs = append(c.res.JobNs, now.Sub(c.last).Nanoseconds())
		c.res.JobClass = append(c.res.JobClass, c.classIndex(class))
	}
	c.span(c.newID(), "job", parent, c.last, now)
	c.last = time.Now() // the marker and the MemStats read belong to no job
}

// classIndex returns the index of a job class in the result's class list.
func (c *child) classIndex(class string) int {
	i, ok := c.classes[class]
	if !ok {
		i = len(c.res.Classes)
		c.classes[class] = i
		c.res.Classes = append(c.res.Classes, class)
	}
	return i
}

// newID allocates a span id; ids start at 1, and parent 0 means none.
func (c *child) newID() int {
	c.nextID++
	return c.nextID
}

// span records an interval in the traced run.
func (c *child) span(id int, name string, parent int, start, end time.Time) {
	if tr := c.res.Trace; tr != nil {
		tr.Spans = append(tr.Spans, span{Name: name, ID: id, Parent: parent,
			Start: start.Sub(c.origin).Nanoseconds(), End: end.Sub(c.origin).Nanoseconds()})
	}
}

// lineClock is the io.Writer a spec pass streams into: every job line marks
// the end of one job. RunSpec writes each line with a single Write call.
type lineClock struct {
	c      *child
	p      pass
	parent int
	lines  int
}

func (lc *lineClock) Write(b []byte) (int, error) {
	if lc.p.spec != nil && lc.p.isJobLine(b) {
		lc.job()
	}
	return len(b), nil
}

func (lc *lineClock) job() {
	lc.c.job(lc.parent, lc.p.jobClass(lc.lines))
	lc.lines++
}

// peakRSSKB reads this process's peak resident set size from /proc; 0 where
// that is unavailable.
func peakRSSKB() uint64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 { // "<n> kB"
				kb, _ := strconv.ParseUint(f[0], 10, 64)
				return kb
			}
		}
	}
	return 0
}
