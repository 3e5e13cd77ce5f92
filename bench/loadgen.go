package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"diagnet/internal/analysis"
	"diagnet/internal/stats"
)

// plan is one serving workload as the generator sees it: where to POST,
// the pre-encoded bodies to cycle through, and how to judge an answer.
// The program under test receives only the bodies.
type plan struct {
	url    string
	bodies [][]byte
	rate   float64 // > 0: open loop at this many requests per second; 0: closed loop
	sloMs  float64 // latency limit behind client.slo_miss_share
	// check judges the response to bodies[i]: how many diagnoses matched
	// the oracle and how many did not.
	check func(i int, resp []byte) (ok, mismatched int)
}

// sample is one request as the client saw it.
type sample struct {
	latency    time.Duration // completion − due (open loop) or completion − send (closed loop)
	lag        time.Duration // dispatch − due: how late the generator ran (open loop only)
	ok         int           // diagnoses that matched the oracle
	mismatched int           // diagnoses that did not
	failed     bool          // transport error or non-200: every diagnosis in the request is lost
}

// generate drives one repetition of a plan over the given HTTP client,
// whose transport caps the connections per host at `clients`, and returns
// every request's sample plus the wall time from the first send falling
// due to the last completion. cursor carries the position in the body
// cycle from one repetition to the next.
func generate(ctx context.Context, hc *http.Client, p *plan, clients int, dur time.Duration, cursor *atomic.Int64) ([]sample, time.Duration) {
	start := time.Now().Add(2 * time.Millisecond)
	var samples []sample
	if p.rate > 0 {
		samples = openLoop(ctx, hc, p, start, dur, cursor)
	} else {
		samples = closedLoop(ctx, hc, p, clients, start.Add(dur), cursor)
	}
	return samples, time.Since(start)
}

// send posts the next body of the cycle and judges the answer; latency
// runs from `from`.
func send(ctx context.Context, hc *http.Client, p *plan, cursor *atomic.Int64, from time.Time) sample {
	b := int(cursor.Add(1)-1) % len(p.bodies)
	resp, err := post(ctx, hc, p.url, p.bodies[b])
	s := sample{latency: time.Since(from), failed: err != nil}
	if err == nil {
		s.ok, s.mismatched = p.check(b, resp)
	}
	return s
}

// openLoop sends at a constant rate from a timetable fixed before the
// first send. One dispatcher sleeps until each request falls due and hands
// it to a goroutine of its own, so the generator never waits for the
// program; a request that finds every connection busy queues inside the
// transport. Latency runs from the due time, which charges a stall in the
// program to every request queued behind it (no coordinated omission);
// lag is how late the dispatcher itself ran.
func openLoop(ctx context.Context, hc *http.Client, p *plan, start time.Time, dur time.Duration, cursor *atomic.Int64) []sample {
	interval := time.Duration(float64(time.Second) / p.rate)
	due := make([]time.Time, int(p.rate*dur.Seconds()))
	for i := range due {
		due[i] = start.Add(time.Duration(i) * interval)
	}
	samples := make([]sample, len(due))
	var wg sync.WaitGroup
	for i := range due {
		if ctx.Err() != nil {
			break
		}
		time.Sleep(time.Until(due[i]))
		lag := time.Since(due[i])
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			samples[i] = send(ctx, hc, p, cursor, due[i])
			samples[i].lag = lag
		}(i)
	}
	wg.Wait()
	return samples
}

// closedLoop runs `clients` goroutines that each send their next request
// when the previous one completes, until the deadline.
func closedLoop(ctx context.Context, hc *http.Client, p *plan, clients int, deadline time.Time, cursor *atomic.Int64) []sample {
	perClient := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for now := time.Now(); now.Before(deadline) && ctx.Err() == nil; now = time.Now() {
				perClient[c] = append(perClient[c], send(ctx, hc, p, cursor, now))
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all
}

// post sends one body and returns the response body of a 200.
func post(ctx context.Context, hc *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: HTTP %d", resp.StatusCode)
	}
	return out, nil
}

// scorer judges served answers against the oracle and remembers, per
// distinct request, where the ground-truth cause ranked. Recall is scored
// over distinct requests, so it does not depend on how many times a fast
// or slow run happened to cycle through the pool.
type scorer struct {
	pool  []request
	ranks []atomic.Int32 // 0 = not served yet, 1 = served and cause not in the top five, k+1 = cause at rank k
}

func newScorer(pool []request) *scorer {
	return &scorer{pool: pool, ranks: make([]atomic.Int32, len(pool))}
}

// judge reports whether resp is the reference answer to pool[idx] and
// records the rank of the ground-truth cause.
func (sc *scorer) judge(idx int, resp *analysis.DiagnoseResponse) bool {
	r := &sc.pool[idx]
	if !r.want.matches(resp) {
		return false
	}
	sc.record(idx, r.rank(resp))
	return true
}

// record notes that pool[idx] was served with its ground-truth cause at
// the given 1-based rank (0: not among the served causes).
func (sc *scorer) record(idx, rank int) { sc.ranks[idx].Store(int32(rank) + 1) }

// single is the check of a /v1/diagnose plan whose body i carries pool[order[i]].
func (sc *scorer) single(order []int) func(int, []byte) (int, int) {
	return func(i int, body []byte) (int, int) {
		var resp analysis.DiagnoseResponse
		if json.Unmarshal(body, &resp) != nil || !sc.judge(order[i], &resp) {
			return 0, 1
		}
		return 1, 0
	}
}

// batch is the check of a /v1/diagnose-batch plan whose body i carries
// pool[members[i][k]] in slot k.
func (sc *scorer) batch(members [][]int) func(int, []byte) (int, int) {
	return func(i int, body []byte) (ok, mismatched int) {
		var resp analysis.BatchResponse
		if json.Unmarshal(body, &resp) != nil || len(resp.Responses) != len(members[i]) {
			return 0, len(members[i])
		}
		for k, idx := range members[i] {
			if sc.judge(idx, resp.Responses[k]) {
				ok++
			} else {
				mismatched++
			}
		}
		return ok, mismatched
	}
}

// recall returns recall@1 and recall@5 over the distinct requests served
// so far whose cause is representable in their layout, and how many served
// requests were excluded because it is not.
func (sc *scorer) recall() (at1, at5 float64, excluded int) {
	var scored, top1, top5 int
	for i := range sc.ranks {
		rank := int(sc.ranks[i].Load()) - 1
		switch {
		case rank < 0:
		case sc.pool[i].cause < 0:
			excluded++
		default:
			scored++
			if rank == 1 {
				top1++
			}
			if rank >= 1 {
				top5++
			}
		}
	}
	if scored == 0 {
		return 0, 0, excluded
	}
	return float64(top1) / float64(scored), float64(top5) / float64(scored), excluded
}

// quantile is stats.Percentile on a 0..1 scale, with 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, 100*q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
