// Command benchdiff compares two quartzbench -json run reports and
// fails when any simulator experiment's wall time regressed beyond a
// threshold. `make bench-diff` runs a fresh smoke-scale report and
// diffs it against the committed BENCH_quartz.json, which is how CI
// catches hot-path regressions before they land.
//
// Usage:
//
//	benchdiff -old BENCH_quartz.json -new /tmp/bench.json [-threshold 25]
//
// Wall time is compared, not events/sec, so a change that removes
// events reads as the speed-up it is. Experiments that drive no
// simulator events (analytic tables) are skipped, and so is an
// experiment present in only one of the two reports — reports from
// different revisions of the registry stay comparable; the skips are
// listed so a shrinking registry is visible. Exit status 1 signals a
// regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/quartz-dcn/quartz/internal/experiments"
)

var (
	oldPath   = flag.String("old", "BENCH_quartz.json", "baseline run report")
	newPath   = flag.String("new", "", "candidate run report")
	threshold = flag.Float64("threshold", 25, "allowed wall-time regression, percent")
)

func readReport(path string) (*experiments.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r experiments.Report
	if err := json.NewDecoder(f).Decode(&r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// cpuLabel renders a report's recorded host parallelism, tolerating
// reports written before the field existed.
func cpuLabel(r *experiments.Report) string {
	if r.NumCPU == 0 {
		return "unrecorded"
	}
	return fmt.Sprintf("%d CPU / GOMAXPROCS %d", r.NumCPU, r.GoMaxProcs)
}

func main() {
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -new is required")
		os.Exit(2)
	}
	oldRep, err := readReport(*oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	newRep, err := readReport(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	// Differing host parallelism skews every wall-clock column (cell
	// parallelism scales with cores) but does not make the code under
	// test slower — warn, never gate. Reports that predate the
	// num_cpu field carry 0 and are not comparable either way.
	if oldRep.NumCPU != newRep.NumCPU {
		fmt.Fprintf(os.Stderr,
			"benchdiff: warning: CPU counts differ (%s: %s, %s: %s); wall-clock columns are not comparable\n",
			*oldPath, cpuLabel(oldRep), *newPath, cpuLabel(newRep))
	}
	if compare(os.Stdout, oldRep, newRep, *oldPath, *newPath, *threshold) {
		fmt.Fprintf(os.Stderr, "benchdiff: wall time regressed more than %.0f%% vs %s\n", *threshold, *oldPath)
		os.Exit(1)
	}
	fmt.Printf("ok: no experiment regressed more than %.0f%%\n", *threshold)
}

// compare prints the per-experiment wall-time table to w and reports
// whether any simulator experiment's wall time grew by more than
// threshold percent. Wall time, not events/sec, is the measure: a
// change that removes events without slowing the run would read as an
// events/sec regression. Analytic experiments (no simulator events in
// the baseline) take microseconds to milliseconds and are not gated.
func compare(w io.Writer, oldRep, newRep *experiments.Report, oldName, newName string, threshold float64) (regressed bool) {
	byName := make(map[string]experiments.ExperimentReport, len(newRep.Experiments))
	for _, e := range newRep.Experiments {
		byName[e.Name] = e
	}
	inOld := make(map[string]bool, len(oldRep.Experiments))

	fmt.Fprintf(w, "%-10s %12s %12s %8s\n", "experiment", "old wall s", "new wall s", "delta")
	var skipped []string
	for _, oldE := range oldRep.Experiments {
		inOld[oldE.Name] = true
		if oldE.Events == 0 || oldE.WallSecs <= 0 {
			continue // analytic experiment: not a simulator run
		}
		newE, ok := byName[oldE.Name]
		if !ok {
			// Present only in the baseline — a registry that moved on,
			// not a regression in the code under test.
			fmt.Fprintf(w, "%-10s %12.4f %12s %8s\n", oldE.Name, oldE.WallSecs, "-", "skipped")
			skipped = append(skipped, oldE.Name)
			continue
		}
		deltaPct := 100 * (newE.WallSecs - oldE.WallSecs) / oldE.WallSecs
		mark := ""
		if deltaPct > threshold {
			mark = "  << regression"
			regressed = true
		}
		fmt.Fprintf(w, "%-10s %12.4f %12.4f %+7.1f%%%s\n",
			oldE.Name, oldE.WallSecs, newE.WallSecs, deltaPct, mark)
	}
	// New-only experiments have no baseline to diff against; list them
	// so the skip is deliberate rather than silent.
	var added []string
	for _, newE := range newRep.Experiments {
		if !inOld[newE.Name] && newE.Events > 0 && newE.WallSecs > 0 {
			added = append(added, newE.Name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Fprintf(w, "%-10s %12s %12.4f %8s\n", name, "-", byName[name].WallSecs, "skipped")
	}
	if len(skipped) > 0 {
		fmt.Fprintf(w, "skipped %d experiment(s) absent from %s: %s\n",
			len(skipped), newName, strings.Join(skipped, ", "))
	}
	if len(added) > 0 {
		fmt.Fprintf(w, "skipped %d experiment(s) with no baseline in %s: %s\n",
			len(added), oldName, strings.Join(added, ", "))
	}
	return regressed
}
