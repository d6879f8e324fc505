package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: quantile must sort
	}
	return xs
}

func TestQuantileNearestRank(t *testing.T) {
	xs := seq(100) // 1..100
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Errorf("quantile modified its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Errorf("quantile of no samples is not NaN")
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{100, 0.90, true},    // ranks 91..100 lie beyond p90: ten
		{99, 0.90, false},    // nine
		{1000, 0.99, true},   // ten beyond p99
		{999, 0.99, false},   // nine
		{500, 0.99, false},   // five
		{2000, 0.99, true},   // twenty
		{10, 0.5, false},     // five
		{20, 0.5, true},      // ten
		{0, 0.5, false},      // none
		{5000, 0.999, false}, // five
	} {
		_, err := tailQuantile(seq(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("tailQuantile(n=%d, q=%g): err=%v, want ok=%v", c.n, c.q, err, c.ok)
		}
	}
	if v, err := tailQuantile(seq(1000), 0.99); err != nil || v != 990 {
		t.Errorf("tailQuantile(1..1000, 0.99) = %g, %v; want 990", v, err)
	}
}

func TestHighestQuantile(t *testing.T) {
	for _, n := range []int{11, 20, 99, 100, 101, 999, 1000, 1600, 4000} {
		q := highestQuantile(n)
		if beyond(n, q) < minTail {
			t.Errorf("highestQuantile(%d) = %g leaves %d beyond", n, q, beyond(n, q))
		}
		if up := q + 1/float64(n); up < 1 && beyond(n, up) >= minTail {
			t.Errorf("highestQuantile(%d) = %g, but %g also has %d beyond", n, q, up, beyond(n, up))
		}
	}
	if q := highestQuantile(10); q != 0 {
		t.Errorf("highestQuantile(10) = %g, want 0", q)
	}
}

// fail_frac counts refusals (429) and wrong outputs, not only errors.
func TestFailFracCountsRejectionsAndMismatches(t *testing.T) {
	var tl tally
	tl.add(tally{attempted: 10, rejected: 2})
	tl.add(tally{attempted: 10, mismatched: 1, errored: 1})
	if got := tl.failed(); got != 4 {
		t.Fatalf("failed() = %d, want 4", got)
	}
	if got := tl.failFrac(); got != 0.2 {
		t.Fatalf("failFrac() = %g, want 0.2", got)
	}
	if got := (tally{}).failFrac(); got != 0 {
		t.Fatalf("failFrac of nothing = %g, want 0", got)
	}
}

// A differing repetition counts as a mismatch and fails the phase.
func TestSameOutputMismatch(t *testing.T) {
	var ph phase
	if !ph.sameOutput(1, "a") || !ph.sameOutput(2, "a") {
		t.Fatal("equal digests reported as different")
	}
	if ph.sameOutput(3, "b") {
		t.Fatal("differing digest accepted")
	}
	if ph.tally.mismatched != 1 || len(ph.problems) != 1 {
		t.Fatalf("mismatch not counted: %+v", ph)
	}
}

// The quartzd-mix request path classifies a 429 as a rejection and a
// result that differs from its reference as a mismatch.
func TestMixTallyCountsRejectedAndWrongOutput(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && strings.Contains(r.Header.Get("X-Doc"), "full"):
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"submission queue full"}`))
		case r.Method == http.MethodPost:
			_, _ = w.Write([]byte(`{"id":"j-1","state":"done","cache_hit":true}`))
		default:
			_, _ = w.Write([]byte(`{"id":"j-1","state":"done","text":"served text"}`))
		}
	}))
	defer srv.Close()

	b := &quartzdMix{base: srv.URL, client: srv.Client()}
	b.pool = [][]byte{[]byte(`{}`)}
	b.misses = [][]byte{[]byte(`{}`)}
	ok := mixReq{doc: 0}
	b.do(&ok, 1, 0, nil)
	if ok.status != reqOK || ok.text != "served text" || !ok.cacheHit {
		t.Fatalf("cache-hit request: %+v", ok)
	}

	b.client = &http.Client{Transport: headerTransport{"X-Doc", "full"}}
	rej := mixReq{doc: 0}
	b.do(&rej, 2, 0, nil)
	if rej.status != reqRejected {
		t.Fatalf("429 request: status %d, want rejected", rej.status)
	}

	// verify compares against direct runs; feed it documents whose
	// reference differs from what the fake server served.
	ph := &phase{}
	mismatch := ok
	mismatch.doc = 0
	b.pool = [][]byte{mixDoc("mix-hit-00", 1)}
	if err := b.verify([]mixReq{mismatch, rej}, nil, ph); err != nil {
		t.Fatal(err)
	}
	if ph.tally.attempted != 2 || ph.tally.mismatched != 1 || ph.tally.rejected != 1 {
		t.Fatalf("tally %+v, want 2 attempted, 1 mismatched, 1 rejected", ph.tally)
	}
	if got := ph.tally.failFrac(); got != 1 {
		t.Fatalf("failFrac = %g, want 1", got)
	}
}

// headerTransport adds one header to every request.
type headerTransport struct{ key, val string }

func (h headerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(h.key, h.val)
	return http.DefaultTransport.RoundTrip(r)
}
