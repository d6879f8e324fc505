package main

// pkt-ring: one long single-goroutine scenario run on the paper's
// whole-DCN Quartz ring (16 switches × 4 hosts), global
// scatter/gather of 400-byte packets at a load that drops nothing.
// The ring is a one-hop cut-through mesh, so nearly all host time goes
// to the event calendar and netsim's forward/transmit/deliver path;
// building the network and routing are a negligible share. The
// workload isolates host cost per simulated packet.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"time"

	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/scenario"
	"github.com/quartz-dcn/quartz/internal/sim"
)

// The pkt-ring input. Expected deliveries are 2·tasks·fanout·pps·
// duration (every request packet draws one reply); Poisson arrivals
// put the count within a few tenths of a percent of that.
const (
	ringTasks      = 8
	ringFanout     = 12
	ringPPS        = 20000
	ringPacketSize = 400
	ringDurationMS = 250
	// ringWarmMS is the virtual length of the set-up warm-up run.
	ringWarmMS = 20
	// ringTolerance bounds |delivered − expected| / expected: about
	// eight standard deviations of the Poisson count.
	ringTolerance = 0.01
	// buildReps is how often set-up times the architecture build and
	// network construction (the build split).
	buildReps = 5
)

// ringDoc is the pkt-ring scenario document for seed at the given
// virtual duration.
func ringDoc(seed int64, durationMS int) []byte {
	return []byte(fmt.Sprintf(`{"schema": %q, "name": "pkt-ring", "seed": %d,
 "sim": {"topology": {"kind": "ring", "pods": 4, "tors_per_pod": 4, "hosts_per_tor": 4},
  "workload": {"kind": "scattergather", "tasks": %d, "fanout": %d, "pps": %d, "packet_size": %d},
  "duration_ms": %d}}`, scenario.SchemaV1, seed, ringTasks, ringFanout, ringPPS, ringPacketSize, durationMS))
}

// ringExpected is the delivered-packet count the offered rate implies.
func ringExpected() float64 {
	return 2 * ringTasks * ringFanout * ringPPS * ringDurationMS / 1000.0
}

var deliveredRE = regexp.MustCompile(`delivered (\d+) packets, dropped (\d+)`)

// parseDelivered reads the delivered and dropped counts from a sim
// scenario's rendered output.
func parseDelivered(text string) (delivered, dropped int64, err error) {
	m := deliveredRE.FindStringSubmatch(text)
	if m == nil {
		return 0, 0, fmt.Errorf("no delivered/dropped line in output")
	}
	delivered, _ = strconv.ParseInt(m[1], 10, 64) // \d+: always parses
	dropped, _ = strconv.ParseInt(m[2], 10, 64)
	return delivered, dropped, nil
}

type pktRing struct {
	seed   int64
	exp    experiments.Experiment
	params experiments.Params
}

// compileDoc decodes and compiles a scenario document, with one span
// around each step.
func compileDoc(tr *tracer, req, parent int64, raw []byte) (*scenario.Compiled, error) {
	s := tr.begin("scenario", "scenario.decode", req, parent)
	f, err := scenario.Decode(raw, "doc.json")
	s.end()
	if err != nil {
		return nil, err
	}
	s = tr.begin("scenario", "scenario.compile", req, parent)
	c, err := scenario.Compile(f)
	s.end()
	return c, err
}

// buildSplit times the two constructors a run starts with: the
// architecture (topology plus routing tables) and the network.
func buildSplit(tr *tracer, req, parent int64, topo scenario.TopologySpec, seed int64) error {
	for i := 0; i < buildReps; i++ {
		s := tr.begin("core", "core.build_arch", req, parent)
		arch, err := scenario.BuildArch(topo, nil, rand.New(rand.NewSource(seed)))
		s.end()
		if err != nil {
			return err
		}
		s = tr.begin("netsim", "netsim.new", req, parent)
		_, err = netsim.New(netsim.Config{Graph: arch.Graph, Router: arch.Router, SwitchModel: arch.Model})
		s.end()
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *pktRing) setUp(tr *tracer) error {
	root := tr.begin("bench", "setup", 0, 0)
	defer root.end()
	c, err := compileDoc(tr, 0, root.id, ringDoc(b.seed, ringDurationMS))
	if err != nil {
		return err
	}
	if err := buildSplit(tr, 0, root.id, c.Doc.Sim.Topology, b.seed); err != nil {
		return err
	}
	warm, err := compileDoc(tr, 0, root.id, ringDoc(b.seed, ringWarmMS))
	if err != nil {
		return err
	}
	s := tr.begin("experiments", "warmup", 0, root.id)
	_, err = warm.Experiment.Run(context.Background(), warm.Params.WithDefaults())
	s.end()
	if err != nil {
		return err
	}
	b.exp, b.params = c.Experiment, c.Params.WithDefaults()
	return nil
}

func (b *pktRing) measure(d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{}
	var opMS, pktNS, evPerPkt []float64
	var delivered, dropped int64
	var simSecs float64
	m := startMeter()
	deadline := m.start.Add(d)
	rep := 1
	for ; rep <= minReps || time.Now().Before(deadline); rep++ {
		ev0 := sim.TotalEvents()
		s := tr.begin("experiments", "experiments.run", int64(rep), 0)
		t0 := time.Now()
		out, err := b.exp.Run(context.Background(), b.params)
		wall := time.Since(t0)
		s.end()
		ev := float64(sim.TotalEvents() - ev0)
		simSecs += wall.Seconds()
		ph.tally.attempted++
		if err != nil {
			ph.tally.errored++
			ph.problem("rep %d: %v", rep, err)
			continue
		}
		if !ph.sameOutput(rep, textDigest(out.Text)) {
			continue
		}
		delivered, dropped, err = parseDelivered(out.Text)
		if err != nil {
			ph.tally.mismatched++
			ph.problem("rep %d: %v", rep, err)
			continue
		}
		exp := ringExpected()
		if dropped != 0 || math.Abs(float64(delivered)-exp) > ringTolerance*exp {
			ph.tally.mismatched++
			ph.problem("rep %d: delivered %d dropped %d, want 0 dropped and %.0f ±%.0f%% delivered",
				rep, delivered, dropped, exp, 100*ringTolerance)
			continue
		}
		opMS = append(opMS, float64(wall)/float64(time.Millisecond))
		pktNS = append(pktNS, float64(wall.Nanoseconds())/float64(delivered))
		evPerPkt = append(evPerPkt, ev/float64(delivered))
	}
	alloc := m.finish(ph, rep-1, opMS, simSecs)
	if len(pktNS) == 0 {
		return ph, nil
	}
	ph.cost = median(pktNS)
	ph.metrics = append(ph.metrics,
		metric{"pkt_ns", median(pktNS), "ns"},
		metric{"netsim.delivered", float64(delivered), "count"},
		metric{"netsim.dropped", float64(dropped), "count"},
		metric{"netsim.events_per_pkt", median(evPerPkt), "count"},
		metric{"netsim.alloc_b_per_pkt", float64(alloc) / float64(delivered*int64(len(pktNS))), "B"},
	)
	ph.note("reps %d, delivered %d per rep (expected %.0f), dropped %d", len(pktNS), delivered, ringExpected(), dropped)
	return ph, nil
}

// tracedLayers derives the set-up layer metrics from the traced run's
// spans.
func (b *pktRing) tracedLayers(tr *tracer) []metric {
	return []metric{
		{"core.build_ms", median(tr.durations("core.build_arch", time.Millisecond)), "ms"},
		{"netsim.new_ms", median(tr.durations("netsim.new", time.Millisecond)), "ms"},
		{"scenario.decode_us", median(tr.durations("scenario.decode", time.Microsecond)), "us"},
		{"scenario.compile_us", median(tr.durations("scenario.compile", time.Microsecond)), "us"},
	}
}

func (b *pktRing) spanNames() []string {
	return []string{"setup", "scenario.decode", "scenario.compile", "core.build_arch", "netsim.new", "warmup", "experiments.run"}
}

func (b *pktRing) tearDown() {}

// textDigest is the hex SHA-256 of rendered output.
func textDigest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
