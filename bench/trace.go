package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// A traced run fails when more than maxUnattributedPct of its profile
// escapes the folding rules, judged once the profile holds at least
// minProfiled of samples (the smoke test's profiles hold a handful).
const (
	maxUnattributedPct = 5
	minProfiled        = time.Second
)

// layerReport is one workload's per-layer metrics and the base of every
// ratio, for the text report.
type layerReport struct {
	metrics  map[string]value
	bases    map[string]string
	profiled time.Duration
}

// foldProfile runs `go tool pprof -traces` on a CPU profile and folds it.
func foldProfile(path string) (map[string]time.Duration, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	return foldTraces(string(out))
}

// layerMetrics assembles the per-layer metrics of one traced run.
// untracedJobsPerS is the same workload's untraced throughput.
func layerMetrics(r childResult, folded map[string]time.Duration, untracedJobsPerS float64) layerReport {
	tr := r.Trace
	jobs := float64(r.Attempted)
	vals := make(map[string]float64)
	bases := make(map[string]string)

	var total time.Duration
	for _, d := range folded {
		total += d
	}
	for _, l := range layers {
		vals[l+".host_us_per_job"] = ratio(float64(folded[l])/1e3, jobs)
	}
	vals["unattributed_pct"] = 100 * ratio(float64(folded[unattributed]), float64(total))
	bases["unattributed_pct"] = fmt.Sprintf("%v of %v profiled", folded[unattributed], total)

	ctr := tr.Counters
	for _, c := range workCounters {
		vals[c+"_per_job"] = ratio(float64(ctr[c]), jobs)
	}
	resumes, phys := float64(ctr["sim.resumes"]), float64(ctr["sim.physical_switches"])
	if resumes > 0 {
		vals["sim.elision_ratio"] = 1 - phys/resumes
	}
	bases["sim.elision_ratio"] = fmt.Sprintf("1 - %d physical_switches / %d resumes", ctr["sim.physical_switches"], ctr["sim.resumes"])
	recycles, creates := ctr["core.act_recycles"], ctr["core.act_creates"]
	vals["core.act_reuse_ratio"] = ratio(float64(recycles), float64(recycles+creates))
	bases["core.act_reuse_ratio"] = fmt.Sprintf("%d act_recycles / (%d + %d act_creates)", recycles, recycles, creates)

	var jobNs int64
	for _, ns := range r.JobNs {
		jobNs += ns
	}
	vals["sim.events_per_host_s"] = ratio(float64(ctr["sim.events"]), float64(jobNs)/1e9)
	bases["sim.events_per_host_s"] = fmt.Sprintf("%d events / %.3f s of job time", ctr["sim.events"], float64(jobNs)/1e9)

	vals["chaos.preempts_per_job"] = ratio(float64(tr.SeedSum.Preempts), jobs)
	vals["chaos.threads_per_job"] = ratio(float64(tr.SeedSum.Total), jobs)
	vals["chaos.virtual_ms_per_job"] = ratio(float64(tr.SeedSum.EndMs), jobs)
	vals["trace.upcall_dispatch_samples_per_job"] = ratio(float64(tr.Sweep.UpcallDispatch), jobs)
	vals["trace.ready_wait_samples_per_job"] = ratio(float64(tr.Sweep.ReadyWait), jobs)
	vals["trace.block_unblock_samples_per_job"] = ratio(float64(tr.Sweep.BlockUnblock), jobs)
	vals["scenario.compile_us"] = tr.CompileUs

	traced := r.jobsPerS()
	vals["bench.trace_overhead_pct"] = 100 * (ratio(untracedJobsPerS, traced) - 1)
	bases["bench.trace_overhead_pct"] = fmt.Sprintf("untraced %.2f jobs/s vs traced %.2f jobs/s", untracedJobsPerS, traced)

	rep := layerReport{metrics: make(map[string]value), bases: bases, profiled: total}
	for _, m := range perLayer() {
		rep.metrics[m.name] = value{vals[m.name], m.unit}
	}
	return rep
}

// chromeEvent is one complete event in Chrome trace_event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// spanEvents converts one workload's spans; every span carries the
// workload id, its own id and its parent's.
func spanEvents(workloadIdx int, workloadID string, spans []span) []chromeEvent {
	evs := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		cat := "pass"
		switch {
		case s.Parent == 0:
			cat = "workload"
		case s.Name == "job":
			cat = "job"
		}
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: cat, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: workloadIdx + 1,
			Args: map[string]any{"workload_id": workloadID, "id": s.ID, "parent": s.Parent},
		})
	}
	return evs
}

// writeJSON writes v as indented JSON to path.
func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// writeTraceFiles writes spans.json and layers.json into dir.
func writeTraceFiles(dir string, events []chromeEvent, layerJSON map[string]map[string]value) error {
	if err := writeJSON(filepath.Join(dir, "spans.json"), map[string]any{"traceEvents": events}); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "layers.json"), layerJSON)
}
