package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

// TestFoldTraces folds a canned `go tool pprof -traces` listing, one stack
// per folding rule.
func TestFoldTraces(t *testing.T) {
	raw, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := foldTraces(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	want := map[string]time.Duration{
		"core":          10 * ms,                 // the innermost program frame wins
		"trace":         20 * ms,                 // mallocgc is charged to its caller
		"sim.coroutine": 30*ms + 90*ms + 1010*ms, // Coroutine, engineBase.Go (and its closure), spare
		"runtime.sched": 40*ms + 700*ms,          // the scheduler on g0
		"runtime.gc":    50 * ms,                 // a mark worker
		"sim.queue":     60*ms + 70*ms,           // wheel, and eventHeap by value receiver
		"sim.hooks":     80 * ms,
		"sim.engine":    100 * ms,
		"bench":         110 * ms, // the benchmark's own writer, inside fmt
		"nbody":         120 * ms, // apps/nbody is the nbody layer
		unattributed:    130 * ms, // the profiler's own goroutine
	}
	if len(got) != len(want) {
		t.Errorf("folded into %d layers, want %d: %v", len(got), len(want), got)
	}
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("%s: %v, want %v", layer, got[layer], d)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack string // leaf first
		want  string
	}{
		{"schedact/internal/fleet.Run[...] schedact/internal/exp.RunSpec", "fleet"},
		{"runtime.selectgo schedact/internal/uthread.(*Sched).schedLoop", "uthread"},
		{"schedact/internal/sim.(*Pool).launch schedact/internal/sim.(*engineBase).Go", "sim.coroutine"},
		{"schedact/internal/sim.(*engineBase).retire", "sim.coroutine"},
		{"schedact/internal/sim.(*bitmap).next schedact/internal/sim.(*wheel).nextL0", "sim.queue"},
		{"schedact/internal/sim.(*slotList).insertSorted", "sim.queue"},
		{"schedact/internal/sim.(*engineBase).alloc schedact/internal/sim.(*SeqEngine).schedule", "sim.engine"},
		{"schedact/internal/apps/micro.Run", "micro"},
		{"runtime.bgsweep runtime.goexit", "runtime.gc"},
		{"runtime._GC", "runtime.gc"},
		{"runtime._System", "runtime.sched"},
		{"syscall.Syscall os.(*File).Write", unattributed},
	} {
		if got := layerOf(strings.Fields(c.stack)); got != c.want {
			t.Errorf("layerOf(%s) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestFoldTracesRejectsGarbage(t *testing.T) {
	if _, err := foldTraces("-----------+---\n  not-a-duration   main.main\n"); err == nil {
		t.Error("a bad sample value folded without error")
	}
}
