package netsim

import (
	"strings"
	"testing"

	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
	"github.com/quartz-dcn/quartz/internal/trace"
)

func buildMesh(t testing.TB) *topology.Graph {
	t.Helper()
	g, err := topology.NewFullMesh(topology.MeshConfig{Switches: 8, HostsPerSwitch: 2})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// observedRun is one workload execution's comparable output: the
// packet trace, the flow table, the flow-span content, the queue
// samples (when sampling), and the packet counters.
type observedRun struct {
	trace, flows, spans, samples string
	delivered, dropped           uint64
}

// runObservedWorkload drives a deterministic multi-host workload on an
// 8-switch mesh with every observer attached and returns the output.
// Send times are chosen so no two packets tie at a queue (37i + 211j
// are distinct over the host/packet index ranges). eng selects the
// event-queue backend (nil = the default calendar queue); sampleEvery
// > 0 adds a queue sampler.
func runObservedWorkload(t *testing.T, eng *sim.Engine, faults *FaultSchedule, sampleEvery sim.Time) observedRun {
	t.Helper()
	g := buildMesh(t)
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g), Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	opts := ObserveOptions{Trace: true, Flows: true, Spans: rec}
	if sampleEvery > 0 {
		opts.SampleEvery, opts.Until = sampleEvery, 50*sim.Millisecond
	}
	obs := net.Observe(opts)
	hosts := g.Hosts()
	for i, h := range hosts {
		for j := 0; j < 40; j++ {
			dst := hosts[(i+1+j)%len(hosts)]
			at := sim.Time(i*37+j*211) * sim.Microsecond
			flow := routing.FlowID(i*64 + j%8)
			src := h
			net.Engine().Schedule(at, func() {
				net.Send(Packet{Flow: flow, Src: src, Dst: dst, Size: 400, Waypoint: NoWaypoint})
			})
		}
	}
	if faults != nil {
		if err := net.Faults().Apply(*faults); err != nil {
			t.Fatal(err)
		}
	}
	net.RunUntil(60 * sim.Millisecond)
	var traceBuf, flowBuf, sampleBuf strings.Builder
	if err := obs.Trace().WriteCSV(&traceBuf); err != nil {
		t.Fatal(err)
	}
	if err := obs.Flows().WriteCSV(&flowBuf); err != nil {
		t.Fatal(err)
	}
	if obs.FlowSpans() == 0 {
		t.Fatal("FlowSpans recorded nothing")
	}
	if s := obs.Sampler(); s != nil {
		if err := s.WriteCSV(&sampleBuf); err != nil {
			t.Fatal(err)
		}
	}
	return observedRun{
		trace: traceBuf.String(), flows: flowBuf.String(),
		spans: rec.ContentCSV("net"), samples: sampleBuf.String(),
		delivered: net.Delivered(), dropped: net.Dropped(),
	}
}

// requireIdenticalRuns reruns the workload on a binary-heap engine and
// again on a fresh calendar engine and requires byte-identical output:
// the two queue backends are oracles for each other, and the rerun
// pins run-to-run determinism.
func requireIdenticalRuns(t *testing.T, base observedRun, faults *FaultSchedule, sampleEvery sim.Time) {
	t.Helper()
	for _, alt := range []struct {
		name string
		eng  *sim.Engine
	}{{"heap", sim.NewEngine()}, {"calendar rerun", sim.NewCalendarEngine()}} {
		got := runObservedWorkload(t, alt.eng, faults, sampleEvery)
		if got.delivered != base.delivered || got.dropped != base.dropped {
			t.Errorf("%s: delivered/dropped %d/%d, base gave %d/%d",
				alt.name, got.delivered, got.dropped, base.delivered, base.dropped)
		}
		for _, c := range []struct{ what, got, want string }{
			{"flow table", got.flows, base.flows},
			{"trace", got.trace, base.trace},
			{"flow-span content", got.spans, base.spans},
			{"sampler CSV", got.samples, base.samples},
		} {
			if c.got != c.want {
				t.Errorf("%s: %s differs from base (lengths %d vs %d)", alt.name, c.what, len(c.got), len(c.want))
			}
		}
	}
}

// TestObservedDeterminism pins that the trace, flow table, and flow
// spans of a fault-free run are byte-identical across reruns and queue
// backends.
func TestObservedDeterminism(t *testing.T) {
	base := runObservedWorkload(t, nil, nil, 0)
	if base.delivered == 0 {
		t.Fatal("workload delivered nothing")
	}
	if base.dropped != 0 {
		t.Fatalf("fault-free workload dropped %d packets", base.dropped)
	}
	requireIdenticalRuns(t, base, nil, 0)
}

// TestObservedDeterminismUnderFaults repeats the identity check with
// link cuts, a repair, detection delay, and both in-flight policies.
func TestObservedDeterminismUnderFaults(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy ReroutePolicy
	}{{"drop", DropInFlight}, {"detour", DetourInFlight}} {
		t.Run(tc.name, func(t *testing.T) {
			// Links 16+ are the switch-to-switch mesh links (host links
			// come first in creation order).
			faults := &FaultSchedule{
				Events: []FaultEvent{
					{Kind: FaultLink, Link: 20, At: 3 * sim.Millisecond, RepairAt: 10 * sim.Millisecond},
					{Kind: FaultLink, Link: 30, At: 5 * sim.Millisecond},
					{Kind: FaultSwitch, Switch: buildMesh(t).Switches()[6], At: 7 * sim.Millisecond},
				},
				DetectionDelay: 500 * sim.Microsecond,
				Policy:         tc.policy,
			}
			base := runObservedWorkload(t, nil, faults, 0)
			if base.dropped == 0 {
				t.Fatal("fault schedule produced no drops; the test is not exercising faults")
			}
			requireIdenticalRuns(t, base, faults, 0)
		})
	}
}

// TestObservedDeterminismWithSampling adds a queue sampler ticking
// under a fault schedule: the sampler CSV joins the byte-identity check.
func TestObservedDeterminismWithSampling(t *testing.T) {
	faults := &FaultSchedule{
		Events: []FaultEvent{
			{Kind: FaultLink, Link: 20, At: 3 * sim.Millisecond, RepairAt: 10 * sim.Millisecond},
		},
		DetectionDelay: 500 * sim.Microsecond,
		Policy:         DropInFlight,
	}
	base := runObservedWorkload(t, nil, faults, 250*sim.Microsecond)
	if base.delivered == 0 {
		t.Fatal("workload delivered nothing")
	}
	if !strings.Contains(base.samples, "\n") {
		t.Fatal("sampler recorded nothing")
	}
	requireIdenticalRuns(t, base, faults, 250*sim.Microsecond)
}

// TestObserve checks the consolidated observability surface: one call
// attaches the trace and flow views, and the accessors return them.
func TestObserve(t *testing.T) {
	g := buildMesh(t)
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		t.Fatal(err)
	}
	obs := net.Observe(ObserveOptions{Trace: true, Flows: true})
	hosts := g.Hosts()
	net.Unicast(1, hosts[0], hosts[3], 400, 0)
	net.Unicast(2, hosts[5], hosts[9], 400, 0)
	net.Engine().Run()
	flows := obs.Flows().Flows()
	if len(flows) != 2 {
		t.Fatalf("flow table has %d rows, want 2", len(flows))
	}
	for _, f := range flows {
		if f.PacketsDelivered != 1 {
			t.Errorf("flow %d delivered %d, want 1", f.Flow, f.PacketsDelivered)
		}
	}
	if ev := obs.Trace().Events(); len(ev) == 0 {
		t.Fatal("trace is empty")
	}
}
