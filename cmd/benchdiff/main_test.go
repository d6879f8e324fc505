package main

import (
	"io"
	"testing"

	"github.com/quartz-dcn/quartz/internal/experiments"
)

// baseReport is a small run report: two simulator experiments and one
// analytic table.
func baseReport() *experiments.Report {
	return &experiments.Report{Experiments: []experiments.ExperimentReport{
		{Name: "fig17", WallSecs: 2.0, Events: 8_000_000, EventsPerSec: 4_000_000},
		{Name: "stack", WallSecs: 0.01, Events: 20_000, EventsPerSec: 2_000_000},
		{Name: "table9", WallSecs: 0.005},
	}}
}

func TestCompareIdenticalPasses(t *testing.T) {
	if compare(io.Discard, baseReport(), baseReport(), "old", "new", 25) {
		t.Fatal("identical reports flagged as a regression")
	}
}

func TestCompareWallSlowdownFails(t *testing.T) {
	newRep := baseReport()
	e := &newRep.Experiments[0]
	e.WallSecs *= 1.3
	e.EventsPerSec = float64(e.Events) / e.WallSecs
	if !compare(io.Discard, baseReport(), newRep, "old", "new", 25) {
		t.Fatal("a 30% wall-time slowdown passed the 25% gate")
	}
}

// TestCompareFewerEventsPasses: removing events at the same wall time
// lowers events/sec but is not a regression.
func TestCompareFewerEventsPasses(t *testing.T) {
	newRep := baseReport()
	for i := range newRep.Experiments {
		e := &newRep.Experiments[i]
		e.Events = e.Events * 6 / 10
		if e.WallSecs > 0 {
			e.EventsPerSec = float64(e.Events) / e.WallSecs
		}
	}
	if compare(io.Discard, baseReport(), newRep, "old", "new", 25) {
		t.Fatal("40% fewer events at equal wall time flagged as a regression")
	}
}
