package main

// quartzd-mix: the job service behind a loopback listener, driven open
// loop at one fixed offered rate. Four requests in five are cache
// hits on a pool of scenario documents prefilled during set-up: HTTP,
// scenario decode/compile and the LRU, never the simulator. Every
// fifth is a miss, a small tree3 scenario with a fresh seed: the
// queue, the worker pool and the simulator, never a cached result.
// At 40 misses/s of about 20 ms each, the two workers are about half
// busy. A request's latency runs from its due time to its result;
// misses wait for completion on the job's Done channel, not on a held
// event stream, so two connections suffice.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/metrics"
	"github.com/quartz-dcn/quartz/internal/scenario"
	"github.com/quartz-dcn/quartz/internal/service"
	"github.com/quartz-dcn/quartz/internal/trace"
)

const (
	mixRate      = 200 // offered requests per second
	mixMissEvery = 5   // request i is a miss when i%mixMissEvery == 0
	mixPool      = 32  // distinct hit documents
	mixMissMS    = 10  // virtual milliseconds simulated per document
	mixWorkers   = 2   // service worker pool
	mixConns     = 2   // client connections
	// mixMaxInflight caps concurrent requests; reaching it stalls the
	// generator, which then shows as lateness.
	mixMaxInflight = 256
	// mixJobTimeout bounds the wait for one miss to complete.
	mixJobTimeout = 60 * time.Second
)

// mixDoc is one quartzd-mix scenario document: a small tree3
// scatter/gather. name makes every document a distinct cache entry.
func mixDoc(name string, seed int64) []byte {
	return []byte(fmt.Sprintf(`{"schema": %q, "name": %q, "seed": %d,
 "sim": {"topology": {"kind": "tree3"},
  "workload": {"kind": "scattergather", "tasks": 2, "fanout": 8},
  "duration_ms": %d}}`, scenario.SchemaV1, name, seed, mixMissMS))
}

// mixReq is one request of the schedule and what became of it.
type mixReq struct {
	miss bool
	doc  int // index into pool or misses

	status    reqStatus
	err       string
	cacheHit  bool
	text      string
	latency   time.Duration // due → result
	queueSecs float64       // misses: job View queue wait
	runSecs   float64       // misses: job View run time
}

type reqStatus uint8

const (
	reqOK reqStatus = iota
	reqRejected
	reqErrored
)

type quartzdMix struct {
	seed   int64
	pool   [][]byte
	misses [][]byte

	reg    *metrics.Registry
	svc    *service.Service
	srv    *http.Server
	served chan struct{} // closed when the server's Serve returns
	base   string
	client *http.Client
}

// docs returns the document bytes of a request.
func (b *quartzdMix) docs(miss bool) [][]byte {
	if miss {
		return b.misses
	}
	return b.pool
}

// schedule is the request sequence for n requests: kinds by position,
// hit documents drawn from the pool by the seed.
func (b *quartzdMix) schedule(n int) []mixReq {
	rng := rand.New(rand.NewSource(b.seed))
	reqs := make([]mixReq, n)
	for i := range reqs {
		if i%mixMissEvery == 0 {
			reqs[i] = mixReq{miss: true, doc: i / mixMissEvery}
		} else {
			reqs[i] = mixReq{doc: rng.Intn(mixPool)}
		}
	}
	nMiss := (n + mixMissEvery - 1) / mixMissEvery
	for k := len(b.misses); k < nMiss; k++ {
		b.misses = append(b.misses, mixDoc(fmt.Sprintf("mix-miss-%06d", k), b.seed*1_000_003+int64(k)+mixPool))
	}
	return reqs
}

func (b *quartzdMix) setUp(tr *tracer) error {
	b.tearDown()
	root := tr.begin("bench", "setup", 0, 0)
	defer root.end()
	if b.pool == nil {
		for k := 0; k < mixPool; k++ {
			b.pool = append(b.pool, mixDoc(fmt.Sprintf("mix-hit-%02d", k), b.seed*1_000_003+int64(k)))
		}
	}
	// The build split of the documents' topology: what each miss builds
	// before it simulates.
	c, err := compileDoc(tr, 0, root.id, b.pool[0])
	if err != nil {
		return err
	}
	if err := buildSplit(tr, 0, root.id, c.Doc.Sim.Topology, b.seed); err != nil {
		return err
	}
	b.reg = metrics.NewRegistry()
	b.svc = service.New(service.Config{Workers: mixWorkers, Registry: b.reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.srv = &http.Server{Handler: b.svc.Handler(nil)}
	b.served = make(chan struct{})
	go func() {
		defer close(b.served)
		_ = b.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	b.base = "http://" + ln.Addr().String()
	b.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: mixConns, MaxIdleConnsPerHost: mixConns},
		Timeout:   mixJobTimeout,
	}

	// Prefill the cache through the API, as many at a time as the pool
	// has workers, so the queue never refuses one.
	errs := make(chan error, mixPool)
	sem := make(chan struct{}, mixWorkers)
	var wg sync.WaitGroup
	for k := range b.pool {
		wg.Add(1)
		sem <- struct{}{}
		go func(k int) {
			defer wg.Done()
			defer func() { <-sem }()
			r := mixReq{doc: k}
			b.do(&r, int64(k), root.id, nil)
			if r.status != reqOK {
				errs <- fmt.Errorf("prefilling pool document %d: %s", k, r.err)
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	return <-errs // nil when the channel is empty
}

// do runs one request: submit, wait for the job if it was not served
// from the cache, fetch the result.
func (b *quartzdMix) do(r *mixReq, req, parent int64, tr *tracer) {
	fail := func(st reqStatus, format string, args ...interface{}) {
		r.status, r.err = st, fmt.Sprintf(format, args...)
	}
	doc := b.docs(r.miss)[r.doc]
	s := tr.begin("service", "service.post", req, parent)
	resp, err := b.client.Post(b.base+"/jobs", "application/json", bytes.NewReader(doc))
	if err != nil {
		s.end()
		fail(reqErrored, "POST /jobs: %v", err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	var v service.View
	if err == nil {
		err = json.Unmarshal(body, &v)
	}
	hit := int64(0)
	if v.CacheHit {
		hit = 1
	}
	s.end(trace.Arg{Key: "status", Val: int64(resp.StatusCode)}, trace.Arg{Key: "hit", Val: hit})
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		fail(reqRejected, "POST /jobs: 429")
		return
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		fail(reqErrored, "POST /jobs: %d %s", resp.StatusCode, bytes.TrimSpace(body))
		return
	case err != nil:
		fail(reqErrored, "POST /jobs: reading job view: %v", err)
		return
	}
	r.cacheHit = v.CacheHit
	if !v.State.Terminal() {
		job, ok := b.svc.Job(v.ID)
		if !ok {
			fail(reqErrored, "job %s vanished", v.ID)
			return
		}
		s := tr.begin("service", "job.await", req, parent)
		timer := time.NewTimer(mixJobTimeout)
		select {
		case <-job.Done():
			timer.Stop()
		case <-timer.C:
		}
		s.end()
		snap := job.Snapshot(time.Now())
		if !snap.State.Terminal() {
			fail(reqErrored, "job %s still %s after %v", v.ID, snap.State, mixJobTimeout)
			return
		}
		r.queueSecs, r.runSecs = snap.QueueSecs, snap.RunSecs
	}
	s = tr.begin("service", "service.result", req, parent)
	text, err := b.result(v.ID)
	s.end()
	if err != nil {
		fail(reqErrored, "%v", err)
		return
	}
	r.text = text
}

// result fetches a terminal job's output over the API.
func (b *quartzdMix) result(id string) (string, error) {
	resp, err := b.client.Get(b.base + "/jobs/" + id + "/result")
	if err != nil {
		return "", fmt.Errorf("GET result: %w", err)
	}
	defer resp.Body.Close()
	var body struct {
		State service.State `json:"state"`
		Text  string        `json:"text"`
		Error string        `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return "", fmt.Errorf("GET result: %d: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || body.State != service.StateDone {
		return "", fmt.Errorf("GET result: %d, job %s: %s", resp.StatusCode, body.State, body.Error)
	}
	return body.Text, nil
}

// counter reads one of the service's submission counters.
func (b *quartzdMix) counter(outcome string) float64 {
	return float64(b.reg.Counter("quartzd_submissions_total", "", metrics.Labels{"outcome": outcome}).Value())
}

func (b *quartzdMix) measure(d time.Duration, tr *tracer) (*phase, error) {
	n := int(mixRate * d.Seconds())
	reqs := b.schedule(n)
	st0 := b.svc.Stats()
	rej0, coal0 := b.counter("rejected_full"), b.counter("coalesced")
	m := startMeter()
	cpu0 := m.cpu

	late := openLoop(n, time.Second/mixRate, mixMaxInflight, func(i int, due time.Time) {
		r := &reqs[i]
		root := tr.begin("service", "request", int64(i), 0)
		b.do(r, int64(i), root.id, tr)
		r.latency = time.Since(due)
		miss := int64(0)
		if r.miss {
			miss = 1
		}
		root.end(trace.Arg{Key: "miss", Val: miss})
	})

	ph := &phase{cost: (cpuSeconds() - cpu0) / float64(n)}
	var opMS, hitMS, missMS, queueMS, runMS, lateMS []float64
	var simSecs float64
	for _, l := range late {
		lateMS = append(lateMS, float64(l)/float64(time.Millisecond))
	}
	for i := range reqs {
		r := &reqs[i]
		if r.status != reqOK {
			continue
		}
		ms := float64(r.latency) / float64(time.Millisecond)
		opMS = append(opMS, ms)
		if r.cacheHit {
			hitMS = append(hitMS, ms)
		} else {
			missMS = append(missMS, ms)
			queueMS = append(queueMS, 1000*r.queueSecs)
			runMS = append(runMS, 1000*r.runSecs)
			simSecs += r.runSecs
		}
	}
	m.finish(ph, n, opMS, simSecs)
	st1 := b.svc.Stats()
	if err := b.verify(reqs, tr, ph); err != nil {
		return nil, err
	}

	ph.lateP99 = quantile(lateMS, 0.99)
	if ph.lateP99 > lateBoundMS {
		ph.invalid = fmt.Sprintf("generator p99 lateness %.1f ms exceeds %.0f ms: the offered rate was not met", ph.lateP99, lateBoundMS)
	}
	ph.metrics = append(ph.metrics,
		metric{"miss_p50_ms", median(missMS), "ms"},
		metric{"hit_p50_ms", median(hitMS), "ms"},
	)
	// The tails are reported only where ten samples lie beyond them.
	for _, t := range []struct {
		name string
		xs   []float64
		q    float64
	}{{"miss_p90_ms", missMS, 0.90}, {"hit_p99_ms", hitMS, 0.99}} {
		v, err := tailQuantile(t.xs, t.q)
		if err != nil {
			ph.note("%s not reported: %v", t.name, err)
			continue
		}
		ph.metrics = append(ph.metrics, metric{t.name, v, "ms"})
	}
	hits, lookups := float64(st1.CacheHits-st0.CacheHits), float64(st1.CacheHits+st1.CacheMisses-st0.CacheHits-st0.CacheMisses)
	ph.metrics = append(ph.metrics,
		metric{"service.queue_wait_ms_p90", quantile(queueMS, 0.9), "ms"},
		metric{"service.run_ms_p50", median(runMS), "ms"},
		metric{"service.cache_hit_ratio", hits / lookups, "1"},
		metric{"service.rejected", b.counter("rejected_full") - rej0, "count"},
		metric{"service.coalesced", b.counter("coalesced") - coal0, "count"},
		metric{"gen.late_p99_ms", ph.lateP99, "ms"},
	)
	ph.note("offered %d req/s open loop for %.0f s: %d requests, 1 in %d a miss, %d pool documents, %d workers, %d connections",
		mixRate, d.Seconds(), n, mixMissEvery, mixPool, mixWorkers, mixConns)
	ph.note("hits n=%d (highest reportable p%.2f), misses n=%d (highest reportable p%.2f)",
		len(hitMS), 100*highestQuantile(len(hitMS)), len(missMS), 100*highestQuantile(len(missMS)))
	return ph, nil
}

// verify runs every requested document directly — decode, compile,
// Experiment.Run — and checks each served result is byte-equal to it.
// It counts the tally and folds every result into the phase digest.
func (b *quartzdMix) verify(reqs []mixReq, tr *tracer, ph *phase) error {
	type key struct {
		miss bool
		doc  int
	}
	refs := map[key]string{}
	var keys []key
	for _, r := range reqs {
		k := key{r.miss, r.doc}
		if _, ok := refs[k]; !ok {
			refs[k] = ""
			keys = append(keys, k)
		}
	}
	var mu sync.Mutex
	var firstErr error
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < mixWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				k := keys[i]
				id := int64(1_000_000 + i)
				c, err := compileDoc(tr, id, 0, b.docs(k.miss)[k.doc])
				var text string
				if err == nil {
					s := tr.begin("experiments", "experiments.run", id, 0)
					var out experiments.Output
					out, err = c.Experiment.Run(context.Background(), c.Params.WithDefaults())
					s.end()
					text = out.Text
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference run of %s document %d: %w", kindName(k.miss), k.doc, err)
				}
				refs[k] = text
				mu.Unlock()
			}
		}()
	}
	for i := range keys {
		next <- i
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	parts := make([]string, 0, len(reqs))
	for i := range reqs {
		r := &reqs[i]
		ph.tally.attempted++
		switch {
		case r.status == reqRejected:
			ph.tally.rejected++
			ph.problem("request %d (%s %d): %s", i, kindName(r.miss), r.doc, r.err)
		case r.status == reqErrored:
			ph.tally.errored++
			ph.problem("request %d (%s %d): %s", i, kindName(r.miss), r.doc, r.err)
		case r.text != refs[key{r.miss, r.doc}]:
			ph.tally.mismatched++
			ph.problem("request %d (%s %d): result differs from a direct run of the document", i, kindName(r.miss), r.doc)
		}
		parts = append(parts, r.text)
	}
	ph.sameOutput(1, textDigest(parts...))
	return nil
}

func kindName(miss bool) string {
	if miss {
		return "miss"
	}
	return "hit"
}

// tracedLayers derives the build-split, scenario and HTTP layer metrics from the
// traced run's spans.
func (b *quartzdMix) tracedLayers(tr *tracer) []metric {
	us := time.Microsecond
	return []metric{
		{"core.build_ms", median(tr.durations("core.build_arch", time.Millisecond)), "ms"},
		{"netsim.new_ms", median(tr.durations("netsim.new", time.Millisecond)), "ms"},
		{"scenario.decode_us", median(tr.durations("scenario.decode", us)), "us"},
		{"scenario.compile_us", median(tr.durations("scenario.compile", us)), "us"},
		{"service.post_hit_us", median(tr.durations("service.post", us, trace.Arg{Key: "hit", Val: 1})), "us"},
		{"service.post_miss_us", median(tr.durations("service.post", us, trace.Arg{Key: "hit", Val: 0})), "us"},
		{"service.result_us", median(tr.durations("service.result", us)), "us"},
	}
}

func (b *quartzdMix) spanNames() []string {
	return []string{"setup", "scenario.decode", "scenario.compile", "core.build_arch", "netsim.new",
		"request", "service.post", "job.await", "service.result", "experiments.run"}
}

// tearDown stops the server and drains the service, waiting for both.
func (b *quartzdMix) tearDown() {
	if b.svc == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), mixJobTimeout)
	defer cancel()
	_ = b.srv.Shutdown(ctx) // a timeout still closes the listener; Drain below waits for the jobs
	<-b.served
	_ = b.svc.Drain(ctx) // an expired ctx cancels the remaining jobs and still waits for the workers
	b.client.CloseIdleConnections()
	b.svc = nil
}
