package main

import (
	"bufio"
	"fmt"
	"strings"
	"time"
)

// Folding a CPU profile into layers. The input is the text of
// `go tool pprof -traces`: one block per distinct stack, its sample time on
// the first line, frames listed leaf first. Each stack is charged whole to
// one layer:
//
//   - the innermost program frame wins: a schedact/internal/<pkg> frame
//     goes to <pkg> (apps/nbody and apps/micro to nbody and micro), and a
//     frame of the benchmark's own main package to bench;
//   - runtime and standard-library frames (mallocgc, channel operations,
//     fmt) are skipped, so they are charged to the program frame that
//     called them;
//   - sim is split by receiver: queue (timeline, wheel, slotList, bitmap,
//     eventHeap), coroutine (Coroutine, Pool, spare, and engineBase.Go and
//     retire), hooks (Hooks), and engine for the rest;
//   - a stack with no program frame goes to runtime.gc when it is collector
//     work (mark workers, sweep, scavenge), to runtime.sched when it is the
//     scheduler on g0 (at width 1 these are the coroutine hand-off's
//     goroutine switches), and otherwise stays unattributed.

// unattributed is the pseudo-layer of stacks no rule claims.
const unattributed = "unattributed"

const programPrefix = "schedact/internal/"

// foldTraces sums the sample time of `go tool pprof -traces` output by layer.
func foldTraces(text string) (map[string]time.Duration, error) {
	out := make(map[string]time.Duration)
	var (
		val    time.Duration
		frames []string
		inBody bool
	)
	flush := func() {
		if len(frames) > 0 {
			out[layerOf(frames)] += val
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody = true
			continue
		}
		if !inBody || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(frames) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value in %q", line)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: no frame in %q", line)
			}
			val = d
			fields = fields[1:]
		}
		frames = append(frames, fields[0]) // drops the "(inline)" marker
	}
	flush()
	return out, sc.Err()
}

// layerOf charges one stack, leaf first, to a layer.
func layerOf(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
		rest, ok := strings.CutPrefix(f, programPrefix)
		if !ok {
			continue
		}
		pkg, fn, _ := strings.Cut(rest, ".")
		pkg = strings.TrimPrefix(pkg, "apps/")
		if pkg == "sim" {
			return simLayer(fn)
		}
		return pkg
	}
	for _, f := range frames {
		if isGCFrame(f) {
			return "runtime.gc"
		}
	}
	for _, f := range frames {
		if isSchedFrame(f) {
			return "runtime.sched"
		}
	}
	return unattributed
}

// simLayer splits a sim function ("(*timeline).popUpTo", "eventHeap.up",
// "(*engineBase).Go.func1") by receiver.
func simLayer(fn string) string {
	recv, method, _ := strings.Cut(strings.NewReplacer("(*", "", ")", "").Replace(fn), ".")
	switch recv {
	case "timeline", "wheel", "slotList", "bitmap", "eventHeap":
		return "sim.queue"
	case "Coroutine", "Pool", "spare":
		return "sim.coroutine"
	case "Hooks":
		return "sim.hooks"
	case "engineBase":
		name, _, _ := strings.Cut(method, ".")
		if name == "Go" || name == "retire" {
			return "sim.coroutine"
		}
	}
	return "sim.engine"
}

func isGCFrame(f string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.sweepone", "runtime._GC"} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

func isSchedFrame(f string) bool {
	switch f {
	case "runtime.mcall", "runtime.mstart", "runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.goexit0", "runtime.gosched_m", "runtime.sysmon", "runtime._System":
		return true
	}
	return false
}
