package main

import (
	"fmt"
	"math"
	"slices"
)

// metric names one reported number and its unit.
type metric struct{ name, unit string }

// endToEnd are the untraced run's bounded metrics, all host-side: what a
// user of the simulator waits for and pays for.
var endToEnd = []metric{
	{"jobs_per_s", "jobs/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_tail", "ms"},
	{"setup_s", "s"},
	{"alloc_mb_per_job", "MB"},
}

// layers are the modules host CPU time is charged to, named after their
// packages; sim is split by receiver (see fold.go).
var layers = []string{
	"scenario", "exp", "fleet", "sim.queue", "sim.coroutine", "sim.hooks", "sim.engine",
	"machine", "kernel", "core", "uthread", "nbody", "micro", "trace", "chaos", "stats",
	"runtime.sched", "runtime.gc", "bench",
}

// workCounters are the stats-sink counters reported per job.
var workCounters = []string{
	"sim.events", "sim.scheduled", "sim.cancels", "sim.overflows", "sim.resumes", "sim.physical_switches",
	"machine.dispatches", "machine.preempts", "machine.disk_ios",
	"kernel.dispatches", "kernel.blocks", "kernel.preemptions",
	"core.upcalls", "core.rebalances", "core.takes", "core.blocks",
	"uthread.switches", "uthread.forks", "uthread.steals", "uthread.recoveries",
}

// perLayer lists the traced run's metrics in report order.
func perLayer() []metric {
	var ms []metric
	for _, l := range layers {
		ms = append(ms, metric{l + ".host_us_per_job", "us"})
	}
	ms = append(ms, metric{"unattributed_pct", "%"})
	for _, c := range workCounters {
		ms = append(ms, metric{c + "_per_job", "count/job"})
	}
	return append(ms,
		metric{"sim.elision_ratio", "ratio"},
		metric{"core.act_reuse_ratio", "ratio"},
		metric{"sim.events_per_host_s", "events/s"},
		metric{"chaos.preempts_per_job", "count/job"},
		metric{"chaos.threads_per_job", "count/job"},
		metric{"chaos.virtual_ms_per_job", "ms/job"},
		metric{"trace.upcall_dispatch_samples_per_job", "count/job"},
		metric{"trace.ready_wait_samples_per_job", "count/job"},
		metric{"trace.block_unblock_samples_per_job", "count/job"},
		metric{"scenario.compile_us", "us"},
		metric{"bench.trace_overhead_pct", "%"},
	)
}

// value is one metric reading as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eMetrics computes the end-to-end metrics from a timed child and the
// set-up samples.
func e2eMetrics(w workload, r childResult, setups []float64) map[string]value {
	jobs := float64(len(r.JobNs))
	ms := make([]float64, len(r.JobNs))
	byClass := make([][]float64, len(r.Classes))
	for i, ns := range r.JobNs {
		ms[i] = float64(ns) / 1e6
		byClass[r.JobClass[i]] = append(byClass[r.JobClass[i]], ms[i])
	}
	vals := map[string]float64{
		"jobs_per_s":       r.jobsPerS(),
		"job_ms_p50":       classMedian(byClass),
		"job_ms_tail":      percentile(ms, w.tail),
		"setup_s":          median(setups),
		"alloc_mb_per_job": ratio(float64(r.AllocBytes)/1e6, jobs),
	}
	out := make(map[string]value, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = value{vals[m.name], m.unit}
	}
	return out
}

// classMedian is the typical job's host time on a mix of job classes: the
// geometric mean of each class's median. A median pooled over the mix lands
// between classes, where run-to-run noise moves it by twice as much.
func classMedian(byClass [][]float64) float64 {
	logSum, n := 0.0, 0
	for _, xs := range byClass {
		if len(xs) > 0 {
			logSum += math.Log(median(xs))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median is Python's statistics.median; 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile interpolates linearly between the closest ranks of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles is Python's statistics.quantiles(xs, n=4) (the default
// exclusive method), which the benchmark's acceptance check uses.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", len(xs))
	}
	s := slices.Sorted(slices.Values(xs))
	ld, m := len(s), len(s)+1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3), nil
}
