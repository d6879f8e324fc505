package main

// Benchmark-side spans: one around each call the benchmark makes into a
// layer of the program (scenario decode/compile, architecture build,
// network construction, experiment runs, HTTP calls, job waits). Every
// span carries the request it belongs to and the span that caused it as
// args, so a request's spans can be regrouped in Perfetto and a layer's
// self time is its duration minus its children's.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"github.com/quartz-dcn/quartz/internal/trace"
)

// tracer records spans into rec. A nil *tracer records nothing, so the
// untraced run pays one nil check per layer call.
type tracer struct {
	rec *trace.Recorder
	ids atomic.Int64
}

func newTracer() *tracer { return &tracer{rec: trace.NewRecorder()} }

// span is an open span; end records it.
type span struct {
	t           *tracer
	cat, name   string
	id          int64
	req, parent int64
	start       time.Time
}

// begin opens a span for request req under parent (0 for a root).
func (t *tracer) begin(cat, name string, req, parent int64) span {
	if t == nil {
		return span{}
	}
	return span{t: t, cat: cat, name: name, id: t.ids.Add(1), req: req, parent: parent, start: time.Now()}
}

// end records the span with extra integer args.
func (s span) end(args ...trace.Arg) {
	if s.t == nil {
		return
	}
	sp := trace.Span{
		Name: s.name, Cat: s.cat, Track: int(s.req),
		Wall: s.t.rec.Since(s.start), WallDur: time.Since(s.start).Nanoseconds(),
	}
	sp = sp.Annotate("req", s.req).Annotate("span", s.id).Annotate("parent", s.parent)
	for _, a := range args {
		sp = sp.Annotate(a.Key, a.Val)
	}
	s.t.rec.Add(sp)
}

// durations returns the wall durations, in units of unit, of the
// recorded spans named name whose args include every key/value in
// match.
func (t *tracer) durations(name string, unit time.Duration, match ...trace.Arg) []float64 {
	var out []float64
	for _, s := range t.rec.Spans() {
		if s.Name != name || !hasArgs(s, match) {
			continue
		}
		out = append(out, float64(s.WallDur)/float64(unit))
	}
	return out
}

func hasArgs(s trace.Span, match []trace.Arg) bool {
	for _, m := range match {
		found := false
		for _, a := range s.Args[:s.NArgs] {
			if a == m {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// export writes the spans as Chrome trace-event JSON to path and runs
// the repository's trace checker on it, requiring every name in
// require to appear as a complete span.
func (t *tracer) export(path, tracecheck string, require []string, meta map[string]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.rec.WriteChrome(f, meta); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	cmd := exec.Command(tracecheck, "-require", strings.Join(require, ","), path)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("tracecheck %s: %v: %s", path, err, strings.TrimSpace(string(out)))
	}
	return nil
}
