// Command perfbench is the repository's benchmark. It runs one named
// workload against this checkout's packages, checks every output, and
// prints the workload's metrics. README.md in this directory explains
// the workloads, the metrics and which layer moves which end-to-end
// number.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload pkt-ring|paper-eval|quartzd-mix --seed N --seconds S --trace 0|1
//
// The workload sets up several times (setup_s is the median), then
// measures for S seconds. With --trace 1 it measures once untraced and
// once traced, with spans around every call into a layer, and reports
// the per-layer metrics of the traced run plus the tracing overhead;
// the trace is written to .bench_build/ and checked with
// cmd/tracecheck. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
// Exit status: 0 when every output check passed, 1 when one failed,
// 2 on a usage or set-up error, 3 when the run is invalid and not
// scored (the load generator lagged, or too few samples for a
// percentile).
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/quartz-dcn/quartz/internal/sim"
)

const (
	// setupRounds is how many times a run sets up; setup_s is the median.
	setupRounds = 5
	// minReps is the least number of repetitions of a fixed input.
	minReps = 3
	// outDir holds traces and run records, and tracecheck is the trace
	// checker run.sh builds there from cmd/tracecheck; both paths are
	// relative to the repository root perfbench runs from.
	outDir     = ".bench_build"
	tracecheck = ".bench_build/tracecheck"
)

// metric is one named, measured value.
type metric struct {
	name  string
	value float64
	unit  string
}

// e2eMetrics and layerMetrics name, in the order of BENCHMARK.json,
// the metrics every workload's result line carries: the end-to-end
// block, and with --trace 1 the per-layer block. Each workload measures
// every one of them; a run that misses one fails its checks. Whatever
// else a workload measures is printed and recorded beside them.
var (
	e2eMetrics   = []string{"setup_s", "op_p50_ms", "cpu_ms_per_op", "rss_peak_mb"}
	layerMetrics = []string{
		"sim.events_per_op", "sim.ns_per_event", "go.alloc_kb_per_op",
		"go.gc_cycles", "go.gc_pause_ms",
		"core.build_ms", "netsim.new_ms", "scenario.decode_us", "scenario.compile_us",
		"experiments.cpu_busy_frac", "trace.overhead_frac",
	}
)

// phase is what one measured phase of a workload produced.
type phase struct {
	// metrics holds everything the phase measured: the common metrics
	// meter.finish adds and the workload's own.
	metrics  []metric
	tally    tally
	digest   string // output digest of the phase's fixed input
	problems []string
	notes    []string
	// cost is the phase's host cost per unit of work, the base of
	// trace.overhead_frac.
	cost float64
	// lateP99 is the generator's p99 lateness in ms (0 without one).
	lateP99 float64
	// invalid, when set, says why the phase may not be scored.
	invalid string
}

func (p *phase) problem(format string, args ...interface{}) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

func (p *phase) note(format string, args ...interface{}) {
	p.notes = append(p.notes, fmt.Sprintf(format, args...))
}

// sameOutput records the digest of one repetition's output and checks
// it equals the first repetition's; a difference counts as a mismatch.
func (p *phase) sameOutput(rep int, digest string) bool {
	if p.digest == "" {
		p.digest = digest
		return true
	}
	if digest == p.digest {
		return true
	}
	p.tally.mismatched++
	p.problem("repetition %d: output digest %.12s differs from %.12s", rep, digest, p.digest)
	return false
}

// bench is one workload.
type bench interface {
	// setUp prepares a measured phase (traced into tr when non-nil);
	// each call replaces the previous set-up.
	setUp(tr *tracer) error
	// measure runs the measured phase for d.
	measure(d time.Duration, tr *tracer) (*phase, error)
	// tracedLayers derives per-layer metrics from a traced set-up and
	// phase.
	tracedLayers(tr *tracer) []metric
	// spanNames are the spans a traced run must contain.
	spanNames() []string
	// tearDown stops whatever setUp started and waits for it.
	tearDown()
}

// workloads maps the workload names to their constructors.
var workloads = map[string]func(seed int64) bench{
	"pkt-ring":    func(seed int64) bench { return &pktRing{seed: seed} },
	"paper-eval":  func(seed int64) bench { return &paperEval{seed: seed} },
	"quartzd-mix": func(seed int64) bench { return &quartzdMix{seed: seed} },
}

func main() {
	workload := flag.String("workload", "", "workload to run: pkt-ring, paper-eval or quartzd-mix")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 25, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1: run untraced, then traced, and report per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload pkt-ring|paper-eval|quartzd-mix, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	os.Exit(run(*workload, mk(*seed), *seed, *seconds, *traced == 1))
}

// run executes one benchmark run and prints its report; it returns the
// exit status.
func run(name string, b bench, seed int64, seconds float64, traced bool) int {
	defer b.tearDown()
	die := func(err error) int {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", name, err)
		return 2
	}
	d := time.Duration(seconds * float64(time.Second))

	var setups []float64
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		if err := b.setUp(nil); err != nil {
			return die(fmt.Errorf("set-up: %w", err))
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	ph, err := b.measure(d, nil)
	if err != nil {
		return die(err)
	}
	untraced := append([]metric{{"setup_s", median(setups), "s"}}, ph.metrics...)
	untraced = append(untraced, metric{"rss_peak_mb", peakRSSMB(), "MB"})
	final, measured, names := ph, untraced, e2eMetrics
	if traced {
		tr := newTracer()
		if err := b.setUp(tr); err != nil {
			return die(fmt.Errorf("traced set-up: %w", err))
		}
		var gc0, gc1 runtime.MemStats
		runtime.ReadMemStats(&gc0)
		tph, err := b.measure(d, tr)
		if err != nil {
			return die(err)
		}
		runtime.ReadMemStats(&gc1)
		if tph.digest != ph.digest {
			tph.tally.mismatched++
			tph.problem("traced output digest %.12s differs from untraced %.12s", tph.digest, ph.digest)
		}
		tph.tally.add(ph.tally)
		tph.problems = append(ph.problems, tph.problems...)
		if tph.invalid == "" {
			tph.invalid = ph.invalid
		}
		measured = append(tph.metrics, b.tracedLayers(tr)...)
		measured = append(measured,
			metric{"go.gc_cycles", float64(gc1.NumGC - gc0.NumGC), "count"},
			metric{"go.gc_pause_ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6, "ms"},
			metric{"trace.overhead_frac", tph.cost/ph.cost - 1, "1"},
		)
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
		meta := map[string]string{"workload": name, "seed": fmt.Sprint(seed)}
		if err := tr.export(path, tracecheck, b.spanNames(), meta); err != nil {
			return die(err)
		}
		tph.note("trace: %s (%d spans), tracecheck -require %s passed", path, tr.rec.Len(), strings.Join(b.spanNames(), ","))
		final, names = tph, layerMetrics
	}

	// The result line carries exactly the manifest's block; the rest of
	// what was measured is printed and recorded beside it.
	reported, extra, missing := pick(measured, names)
	for _, n := range missing {
		final.problem("metric %s was not measured", n)
	}
	if traced {
		extra = append(extra, prefixed("untraced.", untraced)...)
	}
	return report(name, seed, seconds, traced, final, reported, extra, setups)
}

// pick splits ms into the metrics named in names, in that order, and
// the rest, and lists the names without a value: absent, or without
// samples (NaN or infinite).
func pick(ms []metric, names []string) (picked, rest []metric, missing []string) {
	byName := map[string]metric{}
	for _, m := range ms {
		byName[m.name] = m
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
		if m, ok := byName[n]; ok && !math.IsNaN(m.value) && !math.IsInf(m.value, 0) {
			picked = append(picked, m)
		} else {
			missing = append(missing, n)
		}
	}
	for _, m := range ms {
		if !want[m.name] {
			rest = append(rest, m)
		}
	}
	return picked, rest, missing
}

// prefixed returns ms with prefix added to every name.
func prefixed(prefix string, ms []metric) []metric {
	out := make([]metric, len(ms))
	for i, m := range ms {
		out[i] = metric{prefix + m.name, m.value, m.unit}
	}
	return out
}

// meter snapshots the process-wide counters a measured phase is
// charged with: wall clock, CPU time, simulated events and bytes
// allocated.
type meter struct {
	start  time.Time
	cpu    float64
	events uint64
	alloc  uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{time.Now(), cpuSeconds(), sim.TotalEvents(), ms.TotalAlloc}
}

// finish adds the metrics every workload reports to ph: opMS are the
// latencies of the phase's operations (a scenario run, a pass over the
// registry entries, a request) and simSecs is the wall time the phase
// spent inside experiment runs. Call it when the phase's operations
// have completed and before any checking work. It returns the bytes
// the phase allocated.
func (m meter) finish(ph *phase, ops int, opMS []float64, simSecs float64) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	wall := time.Since(m.start).Seconds()
	cpu := cpuSeconds() - m.cpu
	events := float64(sim.TotalEvents() - m.events)
	n := float64(ops)
	ph.metrics = append(ph.metrics,
		metric{"op_p50_ms", median(opMS), "ms"},
		metric{"cpu_ms_per_op", 1000 * cpu / n, "ms"},
		metric{"sim.events_per_op", events / n, "count"},
		metric{"sim.ns_per_event", 1e9 * simSecs / events, "ns"},
		metric{"go.alloc_kb_per_op", float64(ms.TotalAlloc-m.alloc) / 1024 / n, "KB"},
		metric{"experiments.cpu_busy_frac", cpu / (wall * float64(runtime.GOMAXPROCS(0))), "1"},
	)
	ph.note("op_p50_ms over %d operations (highest reportable percentile p%.2f)", len(opMS), 100*highestQuantile(len(opMS)))
	return ms.TotalAlloc - m.alloc
}

// report prints the human-readable lines, the run record and the final
// JSON line, writes the record under outDir, and returns the exit
// status.
func report(name string, seed int64, seconds float64, traced bool, ph *phase, reported, extra []metric, setups []float64) int {
	correct := len(ph.problems) == 0 && ph.tally.failed() == 0 && ph.digest != ""
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g trace=%v\n", name, seed, seconds, traced)
	for _, n := range ph.notes {
		fmt.Fprintf(out, "  %s\n", n)
	}
	for _, p := range firstN(ph.problems, 10) {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", p)
	}
	fmt.Fprintf(out, "  output digest %s\n", ph.digest)
	for _, m := range reported {
		fmt.Fprintf(out, "  %-34s %16.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(out, "  %-34s %16.6g %s  (%d of %d failed)\n", "fail_frac", ph.tally.failFrac(), "1", ph.tally.failed(), ph.tally.attempted)
	fmt.Fprintf(out, "  also measured, not in the result line:\n")
	for _, m := range extra {
		fmt.Fprintf(out, "    %-32s %16.6g %s\n", m.name, m.value, m.unit)
	}
	rec := map[string]interface{}{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"commit": commit(), "source_sha256": sourceDigest(),
		"digest": ph.digest, "valid": ph.invalid == "", "invalid_reason": ph.invalid,
		"attempted": ph.tally.attempted, "failed": ph.tally.failed(),
		"rejected": ph.tally.rejected, "errored": ph.tally.errored, "mismatched": ph.tally.mismatched,
		"fail_frac": ph.tally.failFrac(), "setup_s_samples": setups,
		"metrics": metricMap(append(append([]metric{}, reported...), extra...)),
		"notes":   ph.notes, "finished_at": time.Now().UTC().Format(time.RFC3339),
	}
	if name == "quartzd-mix" {
		rec["gen_late_p99_ms"] = ph.lateP99
	}
	recJSON, _ := json.Marshal(rec) // plain data; cannot fail
	fmt.Fprintf(out, "  record %s\n", recJSON)
	recPath := filepath.Join(outDir, "records", fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, boolInt(traced)))
	if err := os.MkdirAll(filepath.Dir(recPath), 0o755); err == nil {
		if err := os.WriteFile(recPath, append(recJSON, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing run record: %v\n", err)
		}
	}

	if ph.invalid != "" {
		fmt.Fprintf(out, "  RUN INVALID, not scored: %s\n", ph.invalid)
		return 3
	}
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, ph.tally.attempted, ph.tally.failed(), metricMap(reported)}
	resJSON, _ := json.Marshal(res) // metricMap dropped NaNs; cannot fail
	fmt.Fprintf(out, "%s\n", resJSON)
	if !correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricMap keys metrics by name, leaving out any without samples
// (NaN), which only a run that already failed a check can have.
func metricMap(ms []metric) map[string]metricValue {
	out := make(map[string]metricValue, len(ms))
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		out[m.name] = metricValue{v, m.unit}
	}
	return out
}

func firstN(xs []string, n int) []string {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// commit names the checked-out commit when the working directory is a
// git checkout; a source export without .git reads "none", and the
// source digest identifies the code instead.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "none"
}

// sourceDigest hashes every Go source and module file of the checkout
// (path and contents, in path order), outside build output, so two
// records of the same code carry the same digest with or without git.
func sourceDigest() string {
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are skipped, not fatal
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
