package main

// paper-eval: the §7 evaluation entries of the experiment registry at
// fixed parameters. These are multi-hop trees and Jellyfish under
// ECMP, VLB and k-shortest-path routing with store-and-forward core
// switches; every cell rebuilds its architecture and routing tables,
// and cells spread over all cores. Build, routing and parallel-cell
// utilisation share the time with the per-packet path, so the same
// layers are weighted differently than in pkt-ring.

import (
	"context"
	"fmt"
	"time"

	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/scenario"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/trace"
)

// paperEntries are the registry entries one pass runs, in order.
var paperEntries = []string{"fig17", "fig18", "fig20", "table8", "ablations"}

// paperWarmup indexes the entry set-up runs once: fig20, the cheapest.
const paperWarmup = 2

// paperDoc is the scenario document that runs registry entry name at
// the fixed parameters of every pass. Only fig17 and fig18 read Tasks;
// trials and rpcs are recorded but unused by these entries, which
// otherwise depend on the seed alone.
func paperDoc(name string, seed int64) []byte {
	return []byte(fmt.Sprintf(`{"schema": %q, "name": "paper-%s", "seed": %d,
 "experiment": {"name": %q, "trials": 500, "tasks": 4, "rpcs": 200}}`, scenario.SchemaV1, name, seed, name))
}

// fig17Topologies are the Figure 17 architectures as scenario
// topologies, built in set-up to time the build split.
var fig17Topologies = []scenario.TopologySpec{
	{Kind: "tree3", Quartz: "none"},
	{Kind: "jellyfish", Quartz: "none"},
	{Kind: "tree3", Quartz: "core"},
	{Kind: "tree3", Quartz: "edge"},
	{Kind: "tree3", Quartz: "both"},
}

type paperEval struct {
	seed   int64
	exps   []experiments.Experiment
	params []experiments.Params
}

func (b *paperEval) setUp(tr *tracer) error {
	root := tr.begin("bench", "setup", 0, 0)
	defer root.end()
	b.exps, b.params = b.exps[:0], b.params[:0]
	for _, name := range paperEntries {
		c, err := compileDoc(tr, 0, root.id, paperDoc(name, b.seed))
		if err != nil {
			return fmt.Errorf("scenario document for %s: %w", name, err)
		}
		if c.Experiment.Name != name {
			return fmt.Errorf("scenario document for %s compiled to %q", name, c.Experiment.Name)
		}
		b.exps = append(b.exps, c.Experiment)
		b.params = append(b.params, c.Params.WithDefaults())
	}
	for _, topo := range fig17Topologies {
		if err := buildSplit(tr, 0, root.id, topo, b.seed); err != nil {
			return fmt.Errorf("building %s/%s: %w", topo.Kind, topo.Quartz, err)
		}
	}
	// Warm up on the cheapest entry so the first pass does not pay for
	// heap growth and first-touch page faults.
	s := tr.begin("experiments", "warmup", 0, root.id)
	_, err := b.exps[paperWarmup].Run(context.Background(), b.params[paperWarmup])
	s.end()
	return err
}

func (b *paperEval) measure(d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{}
	var passMS []float64
	perWall := make([][]float64, len(b.exps))
	perEvents := make([][]float64, len(b.exps))
	var simSecs float64
	m := startMeter()
	deadline := m.start.Add(d)
	pass := 1
	for ; pass <= minReps || time.Now().Before(deadline); pass++ {
		root := tr.begin("bench", "pass", int64(pass), 0)
		texts := make([]string, 0, 2*len(b.exps))
		var wall time.Duration
		ok := true
		for i, e := range b.exps {
			ph.tally.attempted++
			ev0 := sim.TotalEvents()
			s := tr.begin("experiments", "experiments.run", int64(pass), root.id)
			start := time.Now()
			out, err := e.Run(context.Background(), b.params[i])
			w := time.Since(start)
			s.end(trace.Arg{Key: "entry", Val: int64(i)})
			ev := float64(sim.TotalEvents() - ev0)
			simSecs += w.Seconds()
			if err == nil && out.Text == "" {
				err = fmt.Errorf("empty output")
			}
			if err != nil {
				ph.tally.errored++
				ph.problem("pass %d %s: %v", pass, e.Name, err)
				ok = false
				continue
			}
			texts = append(texts, e.Name, out.Text)
			wall += w
			perWall[i] = append(perWall[i], w.Seconds())
			perEvents[i] = append(perEvents[i], ev)
		}
		root.end()
		if !ok || !ph.sameOutput(pass, textDigest(texts...)) {
			continue
		}
		passMS = append(passMS, float64(wall)/float64(time.Millisecond))
	}
	m.finish(ph, pass-1, passMS, simSecs)
	if len(passMS) == 0 {
		return ph, nil
	}
	ph.cost = median(passMS)
	for i, e := range b.exps {
		ph.metrics = append(ph.metrics,
			metric{"experiments." + e.Name + ".wall_s", median(perWall[i]), "s"},
			metric{"experiments." + e.Name + ".events", median(perEvents[i]), "count"})
	}
	p := b.params[0]
	ph.note("passes %d, params seed=%d trials=%d tasks=%d rpcs=%d", len(passMS), p.Seed, p.Trials, p.Tasks, p.RPCs)
	return ph, nil
}

// tracedLayers sums the build split over the five Figure 17
// architectures, one sum per build repetition, and reports the median.
func (b *paperEval) tracedLayers(tr *tracer) []metric {
	sum := func(name string) float64 {
		ds := tr.durations(name, time.Millisecond)
		sums := make([]float64, buildReps)
		for i, v := range ds {
			sums[i%buildReps] += v
		}
		return median(sums)
	}
	us := time.Microsecond
	return []metric{
		{"core.build_ms", sum("core.build_arch"), "ms"},
		{"netsim.new_ms", sum("netsim.new"), "ms"},
		{"scenario.decode_us", median(tr.durations("scenario.decode", us)), "us"},
		{"scenario.compile_us", median(tr.durations("scenario.compile", us)), "us"},
	}
}

func (b *paperEval) spanNames() []string {
	return []string{"setup", "scenario.decode", "scenario.compile", "core.build_arch", "netsim.new", "warmup", "pass", "experiments.run"}
}

func (b *paperEval) tearDown() {}
