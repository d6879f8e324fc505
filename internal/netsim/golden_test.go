package netsim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"testing"

	"github.com/quartz-dcn/quartz/internal/core"
	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// The golden tests pin the packet simulator's observable output to
// fixed SHA-256 digests: the raw TraceRecorder CSV (in recording
// order), the QueueSampler CSV, the FlowTracker table, the
// delivered/dropped counts and the per-delivery latency sequence.
// A change to the forwarding path, the port queues or the event
// calendar that moves any timestamp, reorders any tie or changes any
// sampled queue depth changes a digest. Refactors of the hot path must
// leave them alone.

// goldenCase is one deterministic workload on one architecture.
type goldenCase struct {
	arch  *core.Architecture
	model func(topology.Node) netsim.SwitchModel
	host  netsim.HostModel
	// sample is the QueueSampler interval; until is the run horizon.
	sample, until sim.Time
	faults        *netsim.FaultSchedule
	// sends schedules the workload on the network's engine.
	sends func(net *netsim.Network, rng *rand.Rand)
}

// goldenRun executes c and returns the digest of its output, plus the
// counters the caller checks to make sure the case exercises what it
// claims to.
func goldenRun(t *testing.T, c goldenCase) (digest string, delivered, dropped, marked uint64, samples int) {
	t.Helper()
	h := sha256.New()
	cfg := netsim.Config{Graph: c.arch.Graph, Router: c.arch.Router, SwitchModel: c.model, Host: c.host}
	cfg.OnDeliver = func(d netsim.Delivery) {
		if d.Packet.Marked {
			marked++
		}
		fmt.Fprintf(h, "%d,%d,%d,%d,%t\n", d.Packet.ID, d.At, d.Latency, d.Packet.Hops, d.Packet.Marked)
	}
	net, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := netsim.NewTraceRecorder(0)
	ft := netsim.NewFlowTracker()
	qs := netsim.NewQueueSampler(net, c.sample)
	net.SetProbe(netsim.Probes(tr, ft, qs))
	qs.Start(c.until)
	c.sends(net, rand.New(rand.NewSource(1)))
	if c.faults != nil {
		if err := net.Faults().Apply(*c.faults); err != nil {
			t.Fatal(err)
		}
	}
	net.RunUntil(c.until)
	section(t, h, "trace", tr.WriteCSV)
	section(t, h, "samples", qs.WriteCSV)
	section(t, h, "flows", ft.WriteCSV)
	fmt.Fprintf(h, "delivered=%d dropped=%d\n", net.Delivered(), net.Dropped())
	t.Logf("delivered %d, dropped %d, marked %d, %d trace rows, %d samples",
		net.Delivered(), net.Dropped(), marked, len(tr.Events()), len(qs.Samples()))
	return hex.EncodeToString(h.Sum(nil)), net.Delivered(), net.Dropped(), marked, len(qs.Samples())
}

func section(t *testing.T, h hash.Hash, name string, write func(io.Writer) error) {
	t.Helper()
	fmt.Fprintf(h, "== %s\n", name)
	if err := write(h); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// randomSends schedules n packets between random distinct hosts at
// send instants offset + k·step for random k < slots. Sizes and
// priorities are drawn from the given sets.
func randomSends(n, slots int, step, offset sim.Time, sizes []int, prios []uint8) func(*netsim.Network, *rand.Rand) {
	return func(net *netsim.Network, rng *rand.Rand) {
		hosts := net.Graph().Hosts()
		for i := 0; i < n; i++ {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			for dst == src {
				dst = hosts[rng.Intn(len(hosts))]
			}
			p := netsim.Packet{
				Flow: routing.FlowID(rng.Intn(64)), Src: src, Dst: dst,
				Size: sizes[rng.Intn(len(sizes))], Priority: prios[rng.Intn(len(prios))],
				Tag: i, Waypoint: netsim.NoWaypoint,
			}
			at := offset + sim.Time(rng.Intn(slots))*step
			net.Engine().Schedule(at, func() { net.Send(p) })
		}
	}
}

// mustArch fails the test on an architecture build error.
func mustArch(t *testing.T) func(*core.Architecture, error) *core.Architecture {
	return func(a *core.Architecture, err error) *core.Architecture {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
}

// TestGoldenCutThroughRing: a cut-through Quartz ring with 400-byte
// packets sent on a 320 ns grid shifted by 140 ns, so that with the
// 500 ns NIC delay every source-port transmission completes on a
// multiple of 320 ns — exactly when the 320 ns sampler ticks. Sampler
// reads therefore tie with transmit completions at the same instant.
func TestGoldenCutThroughRing(t *testing.T) {
	arch := mustArch(t)(core.QuartzRingArch(core.ArchParams{Pods: 2, ToRsPerPod: 4, HostsPerToR: 2}))
	ser := (10 * sim.Gbps).Serialize(400)
	c := goldenCase{
		arch: arch, model: arch.Model,
		sample: ser, until: 250 * sim.Microsecond,
		sends: randomSends(3000, 600, ser, 140*sim.Nanosecond, []int{400}, []uint8{0}),
	}
	digest, delivered, dropped, _, samples := goldenRun(t, c)
	if dropped != 0 || delivered != 3000 {
		t.Fatalf("delivered %d dropped %d, want 3000/0", delivered, dropped)
	}
	if samples == 0 {
		t.Fatal("sampler recorded nothing")
	}
	const want = "efe8c779ef66d5deb4c77bc86ff8c4384d8f421137719048c0317d2c1455ccba"
	if digest != want {
		t.Errorf("digest %s, want %s", digest, want)
	}
}

// TestGoldenCongestedTree: a store-and-forward three-tier tree with
// small buffers, ECN marking, both priority classes and two frame
// sizes under cross-pod load: the CCS cores' 6 µs service time backs
// queues up until they overflow.
func TestGoldenCongestedTree(t *testing.T) {
	arch := mustArch(t)(core.ThreeTierTree(core.ArchParams{Pods: 2, ToRsPerPod: 2, HostsPerToR: 4}))
	model := func(n topology.Node) netsim.SwitchModel {
		m := arch.Model(n)
		m.BufferBytes = 24 << 10
		m.ECNThresholdBytes = 6 << 10
		return m
	}
	c := goldenCase{
		arch: arch, model: model,
		host:   netsim.HostModel{NICLatency: 500 * sim.Nanosecond, ForwardLatency: 15 * sim.Microsecond, BufferBytes: 64 << 10},
		sample: 6 * sim.Microsecond, until: 2 * sim.Millisecond,
		sends: randomSends(4000, 2000, 500*sim.Nanosecond, 0, []int{400, 1500}, []uint8{0, 1}),
	}
	digest, delivered, dropped, marked, _ := goldenRun(t, c)
	if dropped == 0 || marked == 0 || delivered == 0 {
		t.Fatalf("delivered %d dropped %d marked %d: want all non-zero", delivered, dropped, marked)
	}
	const want = "3bf043064ef5089f1bf5ce16d5b5c9d158384c4f7ef8115217033e3b745e04f1"
	if digest != want {
		t.Errorf("digest %s, want %s", digest, want)
	}
}

// TestGoldenEdgeCoreFaults: Quartz in edge and core under a fault
// schedule (a repaired link cut, a permanent link cut and a switch
// failure) with each in-flight policy.
func TestGoldenEdgeCoreFaults(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy netsim.ReroutePolicy
		want   string
	}{
		{"drop", netsim.DropInFlight, "1e969013ebbb74e18555508469cb46a910d4bbdab8cc1f1d3424d5bce7f5b2a6"},
		{"detour", netsim.DetourInFlight, "64f73012883c34d879cb45aa3bd99c97a6ae9853c4505feccbad5868d43593e7"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arch := mustArch(t)(core.QuartzInEdgeAndCore(core.ArchParams{Pods: 2, ToRsPerPod: 3, HostsPerToR: 2}))
			g := arch.Graph
			// Links in creation order: the core ring (0-5), then per ToR
			// its two hosts and two uplinks, then each pod's mesh — so 21
			// is a congested host link of pod 1 and 34 a pod-1 mesh
			// link. Switch 3 is a core-ring switch.
			sw := g.Switches()
			core01, ok := g.FindLink(sw[0], sw[1])
			if !ok {
				t.Fatal("no core ring link")
			}
			c := goldenCase{
				arch: arch, model: arch.Model,
				sample: 2 * sim.Microsecond, until: 1 * sim.Millisecond,
				faults: &netsim.FaultSchedule{
					Events: []netsim.FaultEvent{
						{Kind: netsim.FaultLink, Link: core01.ID, At: 100 * sim.Microsecond, RepairAt: 400 * sim.Microsecond},
						{Kind: netsim.FaultLink, Link: 21, At: 120 * sim.Microsecond, RepairAt: 160 * sim.Microsecond},
						{Kind: netsim.FaultLink, Link: 34, At: 150 * sim.Microsecond},
						{Kind: netsim.FaultSwitch, Switch: sw[3], At: 300 * sim.Microsecond},
					},
					DetectionDelay: 50 * sim.Microsecond,
					Policy:         tc.policy,
				},
				sends: randomSends(12000, 1500, 500*sim.Nanosecond, 0, []int{400, 1500}, []uint8{0, 1}),
			}
			digest, delivered, dropped, _, _ := goldenRun(t, c)
			if dropped == 0 || delivered == 0 {
				t.Fatalf("delivered %d dropped %d: want both non-zero", delivered, dropped)
			}
			if digest != tc.want {
				t.Errorf("digest %s, want %s", digest, tc.want)
			}
		})
	}
}
