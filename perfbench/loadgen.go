package main

// The open-loop load generator of the quartzd-mix workload.
//
// Request i is due at start + i·interval whatever happened to earlier
// requests: independent clients do not wait for each other. Each
// request runs on its own goroutine and its latency is measured from
// its due time, not from when it was sent, so a stall that holds up
// the generator or the connections is charged to every request it
// delays. How late the generator itself ran is reported separately;
// a run whose generator lagged beyond lateBound is not scored.

import (
	"sync"
	"time"
)

// openLoop issues n requests at fixed spacing. do runs request i and
// returns when it has completed; it measures its own latency from due.
// At most maxInflight requests run at once: past that the generator
// waits, which shows as lateness rather than as an unbounded pile of
// goroutines. openLoop returns once every request has completed, with
// each request's lateness (send time minus due time).
func openLoop(n int, interval time.Duration, maxInflight int, do func(i int, due time.Time)) []time.Duration {
	late := make([]time.Duration, n)
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		late[i] = time.Since(due)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			do(i, due)
		}(i)
	}
	wg.Wait()
	return late
}

// lateBoundMS bounds the generator's p99 lateness. Latency is timed
// from the due time, so a late send is still charged to the request;
// but a generator more than a quarter second behind for one request
// in a hundred was not offering the stated rate, and the run is
// flagged invalid rather than scored. Brief stalls of the host (tens
// of milliseconds on a shared virtual machine) stay well inside it.
const lateBoundMS = 250.0
