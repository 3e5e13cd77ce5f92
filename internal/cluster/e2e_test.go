package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"diagnet/internal/analysis"
)

// TestClusterE2E is the whole-tier test from ISSUE §e2e: three real
// diagnetd replicas (serving engine + analysis server) on loopback behind
// one router, concurrent diagnose and batch load from a raw non-retrying
// client, and a replica killed and restarted mid-run. The router alone
// must absorb the chaos: zero client-visible failures, and every response
// — including every entry of every batch — attributed to one model
// version.
func TestClusterE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e cluster test in -short mode")
	}
	replicas := []*realReplica{
		startRealReplica(t),
		startRealReplica(t),
		startRealReplica(t),
	}
	urls := make([]string, len(replicas))
	for i, r := range replicas {
		urls[i] = r.url()
	}
	rt := newTestRouter(t, urls, Config{
		HealthInterval:  20 * time.Millisecond,
		AttemptTimeout:  10 * time.Second,
		BreakerCooldown: 200 * time.Millisecond,
		// One attempt at a time: the kill's transport errors must be
		// absorbed by failover alone.
	})
	ts := httptest.NewServer(rt)
	defer ts.Close()

	// Raw client: no retry layer. Any failure below surfaces here.
	client := &http.Client{Timeout: 15 * time.Second}
	diagBody := diagnoseBody(t)
	one := diagnoseRequest(t)

	// Batch with two deliberately invalid entries at fixed indices: their
	// Errors slots prove the scatter-gather merge kept request order.
	const batchN = 12
	badIdx := map[int]bool{3: true, 9: true}
	var batchReq analysis.BatchRequest
	for i := 0; i < batchN; i++ {
		if badIdx[i] {
			batchReq.Requests = append(batchReq.Requests,
				analysis.DiagnoseRequest{Landmarks: []int{0}, Features: []float64{1}}) // wrong width
		} else {
			batchReq.Requests = append(batchReq.Requests, one)
		}
	}
	batchBody, err := json.Marshal(&batchReq)
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers = 8
		perW    = 25
	)
	var (
		mu       sync.Mutex
		failures []string
		versions = map[string]int{}
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	seen := func(v string) {
		mu.Lock()
		versions[v]++
		mu.Unlock()
	}

	post := func(path string, body []byte) (int, []byte, error) {
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		return resp.StatusCode, out, err
	}

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if g%4 == 3 {
					// Every fourth worker sends batches.
					status, out, err := post("/v1/diagnose-batch", batchBody)
					if err != nil || status != http.StatusOK {
						fail("batch w%d req%d: status=%d err=%v body=%.200s", g, i, status, err, out)
						continue
					}
					var resp analysis.BatchResponse
					if err := json.Unmarshal(out, &resp); err != nil {
						fail("batch w%d req%d: decode: %v", g, i, err)
						continue
					}
					if len(resp.Responses) != batchN {
						fail("batch w%d req%d: %d responses, want %d", g, i, len(resp.Responses), batchN)
						continue
					}
					// Order check via the invalid sentinels, and
					// no-mixed-versions within the batch.
					batchVersions := map[string]bool{}
					for j := 0; j < batchN; j++ {
						if badIdx[j] {
							if resp.Errors[j] == "" || resp.Responses[j] != nil {
								fail("batch w%d req%d: slot %d should be the invalid sentinel — merge order broken", g, i, j)
							}
							continue
						}
						if resp.Responses[j] == nil {
							fail("batch w%d req%d: slot %d null: %s", g, i, j, resp.Errors[j])
							continue
						}
						batchVersions[resp.Responses[j].ModelVersion] = true
						seen(resp.Responses[j].ModelVersion)
					}
					if len(batchVersions) > 1 {
						fail("batch w%d req%d: mixed model versions %v in one batch", g, i, batchVersions)
					}
				} else {
					status, out, err := post("/v1/diagnose", diagBody)
					if err != nil || status != http.StatusOK {
						fail("diagnose w%d req%d: status=%d err=%v body=%.200s", g, i, status, err, out)
						continue
					}
					var resp analysis.DiagnoseResponse
					if err := json.Unmarshal(out, &resp); err != nil {
						fail("diagnose w%d req%d: decode: %v", g, i, err)
						continue
					}
					if resp.Family == "" || len(resp.Causes) == 0 {
						fail("diagnose w%d req%d: empty diagnosis %.200s", g, i, out)
					}
					seen(resp.ModelVersion)
				}
			}
		}(g)
	}

	// Chaos: kill replica 0 while the load is in flight, leave it dead for
	// a few health sweeps, then bring it back on the same address.
	time.Sleep(150 * time.Millisecond)
	replicas[0].kill()
	t.Log("killed replica 0")
	time.Sleep(400 * time.Millisecond)
	replicas[0].restart()
	t.Log("restarted replica 0")

	wg.Wait()

	if len(failures) > 0 {
		max := len(failures)
		if max > 10 {
			max = 10
		}
		for _, f := range failures[:max] {
			t.Error(f)
		}
		t.Fatalf("%d client-visible failures (want 0)", len(failures))
	}
	if len(versions) != 1 {
		t.Fatalf("responses attributed to %d model versions %v, want exactly one", len(versions), versions)
	}
	for v := range versions {
		if v != "boot" {
			t.Fatalf("responses attributed to %q, want boot", v)
		}
	}

	// The killed replica must have actually left and rejoined the pool —
	// otherwise this test proved nothing about failover.
	deadline := time.Now().Add(3 * time.Second)
	for {
		st := rt.Pool().Status()
		if st[0].Healthy && st[0].Transitions >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica 0 never went down+up: %+v", st[0])
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Logf("router stats: %+v", rt.Stats())
}
