package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// A server that stalls on its first request holds up the requests due
// during the stall; measured from their due times, their latencies
// carry the wait, falling by one interval per request.
func TestOpenLoopStallInflatesLaterRequests(t *testing.T) {
	const (
		stall    = 200 * time.Millisecond
		interval = 10 * time.Millisecond
		n        = 30
	)
	var mu sync.Mutex // the server handles one request at a time
	first := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if first {
			first = false
			time.Sleep(stall)
		}
	}))
	defer srv.Close()

	lat := make([]time.Duration, n)
	var failed sync.Map
	openLoop(n, interval, n, func(i int, due time.Time) {
		resp, err := srv.Client().Get(srv.URL)
		if err != nil {
			failed.Store(i, err)
			return
		}
		resp.Body.Close()
		lat[i] = time.Since(due)
	})
	failed.Range(func(k, v interface{}) bool {
		t.Errorf("request %v: %v", k, v)
		return true
	})
	if lat[0] < stall {
		t.Fatalf("stalled request latency %v < stall %v", lat[0], stall)
	}
	// Requests due well inside the stall wait for its end.
	for i := 1; i < 15; i++ {
		if want := stall - time.Duration(i)*interval; lat[i] < want-5*time.Millisecond {
			t.Errorf("request %d due %v into the stall: latency %v, want ≥ %v", i, time.Duration(i)*interval, lat[i], want)
		}
	}
	// Requests due after it are fast again.
	if lat[n-1] > stall/2 {
		t.Errorf("request %d, due after the stall, took %v", n-1, lat[n-1])
	}
}

// When the generator itself is held up (here by the in-flight cap),
// requests go out late; latency from the due time still counts the
// wait, and the lateness is reported.
func TestOpenLoopLatenessCounted(t *testing.T) {
	const (
		stall    = 100 * time.Millisecond
		interval = 10 * time.Millisecond
		n        = 5
	)
	lat := make([]time.Duration, n)
	sent := make([]time.Duration, n)
	late := openLoop(n, interval, 1, func(i int, due time.Time) {
		start := time.Now()
		if i == 0 {
			time.Sleep(stall)
		}
		lat[i] = time.Since(due)
		sent[i] = time.Since(start)
	})
	if late[1] < stall-interval-5*time.Millisecond {
		t.Fatalf("request 1 lateness %v, want about %v", late[1], stall-interval)
	}
	if lat[1] < late[1] {
		t.Fatalf("request 1 latency %v from due is below its lateness %v", lat[1], late[1])
	}
	if sent[1] > 5*time.Millisecond {
		t.Fatalf("request 1 service time %v: the test's own request should be instant", sent[1])
	}
}
