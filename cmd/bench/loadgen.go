package main

import (
	"context"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the number of HTTP connections, and so of sender goroutines,
// every load generator uses.
const conns = 2

// newClient returns an HTTP client that opens at most conns connections.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// get fetches url and reports whether it answered 200. It reads the body
// to the end so the connection is reused.
func get(c *http.Client, url string) bool {
	resp, err := c.Get(url)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err == nil && resp.StatusCode == http.StatusOK
}

// openResult is what an open-loop run measured, one entry per request.
type openResult struct {
	lat    []time.Duration // completion minus the time the request was due
	svc    []time.Duration // completion minus the time it was sent
	failed int64
	late   time.Duration // the generator's worst oversleep past a due time
}

// openLoop sends urls[i] at start + i/rate, whether or not earlier
// requests have finished, from conns senders. A request that finds both
// connections busy waits, and its latency counts the wait from its due
// time, so a stall shows in every request it delays.
func openLoop(ctx context.Context, c *http.Client, urls []string, rate float64, start time.Time) (*openResult, error) {
	n := int64(len(urls))
	res := &openResult{lat: make([]time.Duration, n), svc: make([]time.Duration, n)}
	var next, failed atomic.Int64
	late := make([]time.Duration, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					sleepPrecise(d)
					late[w] = max(late[w], time.Since(due))
				}
				sent := time.Now()
				if !get(c, urls[i]) {
					failed.Add(1)
				}
				done := time.Now()
				res.lat[i], res.svc[i] = done.Sub(due), done.Sub(sent)
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.failed = failed.Load()
	res.late = slices.Max(late)
	return res, nil
}

// fetchEach fetches every url once from conns senders and returns how
// many did not answer 200.
func fetchEach(ctx context.Context, c *http.Client, urls []string) (failed int64, err error) {
	var next, nFailed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= int64(len(urls)) {
					return
				}
				if !get(c, urls[i]) {
					nFailed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return nFailed.Load(), ctx.Err()
}

// closedLoop keeps conns requests outstanding for about d, cycling
// through urls, and returns how many completed, how many failed and how
// long they took.
func closedLoop(ctx context.Context, c *http.Client, urls []string, d time.Duration) (done, failed int64, took time.Duration, err error) {
	var next, nFailed atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if !get(c, urls[i%int64(len(urls))]) {
					nFailed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return next.Load(), nFailed.Load(), time.Since(start), ctx.Err()
}
