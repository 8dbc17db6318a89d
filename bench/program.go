package main

// This file is the benchmark's only door into the program. Every call into a
// schedact package is here, and it uses only the surface meant to outlive
// the entry-point cleanup: scenario specs run through exp.RunSpec with
// RunOptions, the micro experiments, and the stats sink. An API change there
// touches this file alone; the rest of the benchmark sees plain values.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"schedact/internal/exp"
	"schedact/internal/scenario"
	"schedact/internal/stats"
)

// defaultBodySeed is nbody.DefaultConfig().Seed. A pass with this body seed
// leaves the spec's nbody override unset, so it is the built-in spec itself
// (same scenario.Hash, same program fingerprint).
const defaultBodySeed = 1

// table5Paper is the paper's Table 5 speedup column, by system id.
var table5Paper = map[string]float64{"topaz": 1.29, "orig-ft": 1.26, "new-ft": 2.45}

// pass is one call into the program: one RunSpec, or one micro experiment.
type pass struct {
	key   string // expected-value key: "<spec>/<body seed>", "chaos/<first>+<n>", or the micro name
	jobs  int    // jobs the pass runs (job lines for a spec, 1 for a micro call)
	spec  *scenario.Spec
	micro string // "table4", "cs" or "upcall" when spec is nil
}

// nbodyPass is one run of a built-in N-body spec ("fig1", "fig2", "table5"
// or "alloc") with the given body seed. tiny shrinks the problem to 16
// bodies and 2 steps for the smoke test.
func nbodyPass(name string, bodySeed int64, tiny bool) pass {
	sp := builtin(name)
	key := fmt.Sprintf("%s/%d", name, bodySeed)
	if bodySeed != defaultBodySeed || tiny {
		sp.Workload.Nbody = &scenario.NbodyOverrides{Seed: bodySeed}
		if tiny {
			sp.Workload.Nbody.N, sp.Workload.Nbody.Steps = 16, 2
			key = fmt.Sprintf("%s-smoke/%d", name, bodySeed)
		}
	}
	return specPass(key, sp)
}

// chaosPass is the built-in chaos spec over seeds first..first+n-1.
func chaosPass(first, n int64) pass {
	return specPass(fmt.Sprintf("chaos/%d+%d", first, n), scenario.ChaosSpec(first, n))
}

// hysteresisPass is the built-in §4.2 hysteresis pair.
func hysteresisPass() pass { return specPass("hysteresis", builtin("hysteresis")) }

// microPass is one call of a micro experiment.
func microPass(name string) pass { return pass{key: name, jobs: 1, micro: name} }

// builtin returns a built-in spec; the names are the benchmark's own
// constants, so a missing one is a bug.
func builtin(name string) scenario.Spec {
	sp, ok := scenario.Lookup(name)
	if !ok {
		panic("bench: no built-in spec " + name)
	}
	return sp
}

func specPass(key string, sp scenario.Spec) pass {
	prog, err := scenario.Compile(sp)
	if err != nil {
		panic("bench: built-in spec " + sp.Name + ": " + err.Error())
	}
	return pass{key: key, jobs: len(prog.Jobs), spec: &sp}
}

// specHash is the spec's identity; the seed-mapping test compares it with
// the built-in's.
func (p pass) specHash() uint64 { return scenario.Hash(*p.spec) }

// compileTime times scenario.Compile on the pass's spec.
func (p pass) compileTime() time.Duration {
	start := time.Now()
	_, _ = scenario.Compile(*p.spec)
	return time.Since(start)
}

// cell is one application job's outcome.
type cell struct {
	System  string
	Procs   int
	MemPct  float64
	Els     []float64 // virtual seconds, one per multiprogrammed copy
	Takes   uint64
	Upcalls uint64
}

// sweepTotals is a chaos pass's aggregate: failed seeds and the latency
// samples the trace stream's deriver observed in the seeds' first runs.
type sweepTotals struct {
	Failed                                  int64
	UpcallDispatch, ReadyWait, BlockUnblock uint64
}

// microValue is one measured value of a micro experiment beside the paper's.
type microValue struct{ Measured, Paper float64 }

// passOutput is everything a pass reports back for checking.
type passOutput struct {
	Fingerprint string       // program or fleet fingerprint; "" for micro calls
	Baseline    float64      // sequential virtual seconds, when the spec asks for one
	Cells       []cell       // application passes, in job order
	Sweep       *sweepTotals // chaos passes
	Micro       []microValue // micro calls
}

// run executes the pass. Spec passes stream their job lines into w; the
// caller times a micro call around run. results, when non-empty, is the
// JSONL file a chaos pass appends one line per seed to.
func (p pass) run(w io.Writer, results string) (passOutput, error) {
	switch p.micro {
	case "table4":
		var out []microValue
		for _, r := range exp.Table4() {
			out = append(out, microValue{r.NullForkUs, r.PaperNullFork}, microValue{r.SignalWaitUs, r.PaperSignalWait})
		}
		return passOutput{Micro: out}, nil
	case "cs":
		r := exp.CSAblation()
		var out []microValue
		for _, row := range []exp.MicroRow{r.ZeroOverhead, r.ExplicitFlag} {
			out = append(out, microValue{row.NullForkUs, row.PaperNullFork}, microValue{row.SignalWaitUs, row.PaperSignalWait})
		}
		return passOutput{Micro: out}, nil
	case "upcall":
		r := exp.UpcallLatency()
		return passOutput{Micro: []microValue{{r.PrototypeMs, r.PaperMs}, {r.MeasuredRatio, r.PaperFactor}}}, nil
	case "":
	default:
		return passOutput{}, fmt.Errorf("unknown micro experiment %q", p.micro)
	}
	pr, err := exp.RunSpec(w, *p.spec, exp.RunOptions{Workers: 1, Results: results})
	if err != nil {
		return passOutput{}, err
	}
	out := passOutput{Fingerprint: fmt.Sprintf("%016x", pr.Fingerprint), Baseline: pr.Baseline.Seconds()}
	if ag := pr.Sweep; ag != nil {
		out.Sweep = &sweepTotals{Failed: ag.Failed, UpcallDispatch: ag.UpcallDispatch.N,
			ReadyWait: ag.ReadyWait.N, BlockUnblock: ag.BlockUnblock.N}
		return out, nil
	}
	for i, j := range pr.Prog.Jobs {
		o := pr.Outcomes[i]
		c := cell{System: j.System, Procs: j.Procs, MemPct: j.MemPct, Takes: o.Takes, Upcalls: o.Upcalls}
		for _, el := range o.Els {
			c.Els = append(c.Els, el.Seconds())
		}
		out.Cells = append(out.Cells, c)
	}
	return out, nil
}

// isJobLine reports whether one line RunSpec streamed is a finished job:
// "  seed ..." for a chaos seed, an indented cell line for an application
// job. Headers, the sweep tail, and violation reports are not.
func (p pass) isJobLine(line []byte) bool {
	if p.spec.Workload.Kind == scenario.KindMix {
		return bytes.HasPrefix(line, []byte("  seed "))
	}
	return bytes.HasPrefix(line, []byte("  ")) && !bytes.HasPrefix(line, []byte("  resuming"))
}

// jobClass names the class of the pass's i-th job, for per-class medians:
// every chaos seed is one class, an application job's class is its cell of
// the spec, and a micro call's is the experiment.
func (p pass) jobClass(i int) string {
	switch {
	case p.spec == nil:
		return p.micro
	case p.spec.Workload.Kind == scenario.KindMix:
		return "chaos"
	}
	return fmt.Sprintf("%s#%d", p.spec.Name, i)
}

// seedLine is the part of a chaos results line the per-layer report reads.
type seedLine struct {
	Total    uint64 `json:"total"`
	EndMs    uint64 `json:"end_ms"`
	Preempts uint64 `json:"preempts"`
}

// readSeedLines sums the per-seed chaos results in a JSONL file.
func readSeedLines(path string) (sum seedLine, err error) {
	f, err := os.Open(path)
	if err != nil {
		return sum, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		var l seedLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return sum, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		sum.Total += l.Total
		sum.EndMs += l.EndMs
		sum.Preempts += l.Preempts
	}
	return sum, sc.Err()
}

// counterSink sums every closed engine's counters by name. Per-space and
// duplicate-name suffixes fold away: uthread.<space>.switches adds into
// uthread.switches, and kernel.dispatches#2 into kernel.dispatches.
type counterSink struct {
	mu     sync.Mutex
	totals map[string]uint64
}

// installCounterSink attaches a new sink to every engine the harness builds
// from now on. Chaos sweeps run on warm contexts that never reach it.
func installCounterSink() *counterSink {
	cs := &counterSink{totals: make(map[string]uint64)}
	exp.SetStatsSink(func(_ string, reg *stats.Registry) {
		snap := reg.Snapshot()
		cs.mu.Lock()
		defer cs.mu.Unlock()
		for _, s := range snap {
			cs.totals[foldCounterName(s.Name)] += s.Value
		}
	})
	return cs
}

// snapshot copies the totals.
func (cs *counterSink) snapshot() map[string]uint64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := make(map[string]uint64, len(cs.totals))
	for k, v := range cs.totals {
		out[k] = v
	}
	return out
}

func foldCounterName(name string) string {
	if i := strings.IndexByte(name, '#'); i >= 0 {
		name = name[:i]
	}
	if rest, ok := strings.CutPrefix(name, "uthread."); ok {
		if i := strings.LastIndexByte(rest, '.'); i >= 0 {
			return "uthread." + rest[i+1:]
		}
	}
	return name
}
