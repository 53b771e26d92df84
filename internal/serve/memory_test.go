package serve_test

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
)

// trackedKeys reads the raa_pool_tracked_keys gauge off a /metrics page.
func trackedKeys(t *testing.T, c *servetest.Client) int {
	t.Helper()
	page, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, "raa_pool_tracked_keys "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("raa_pool_tracked_keys: %v", err)
			}
			return n
		}
	}
	t.Fatalf("metrics page has no raa_pool_tracked_keys gauge:\n%s", page)
	return 0
}

// keyChain builds a four-task graph that threads four job-local keys:
// every job mints fresh tracker keys, the way real traffic does.
func keyChain() serve.GraphRequest {
	g := serve.GraphRequest{Lane: "data"}
	for i := 0; i < 4; i++ {
		deps := []serve.DepRequest{{Key: fmt.Sprint("k", i), Mode: "out"}}
		if i > 0 {
			deps = append(deps, serve.DepRequest{Key: fmt.Sprint("k", i-1), Mode: "in"})
		}
		g.Tasks = append(g.Tasks, serve.TaskRequest{Op: "noop", Deps: deps})
	}
	return g
}

// TestServeTrackerBounded: thousands of jobs, each minting fresh keys,
// leave the pool's dependence tracker bounded — raa_pool_tracked_keys
// stays within the sweep floor per shard plus twice the keys of the jobs
// that can be in the pool at once, far below the keys the run minted.
func TestServeTrackerBounded(t *testing.T) {
	const (
		tenants    = 4
		running    = 8
		keysPerJob = 4
		keyFloor   = 1024 // the runtime's per-shard sweep floor
	)
	limit := runtime.ResolveShards(0)*keyFloor + 2*running*keysPerJob
	// Mint twice the limit, so a tracker that never retires must cross it.
	jobs := max(2000, 2*limit/keysPerJob)
	h := servetest.Start(t, serve.Config{
		Workers:        2,
		MaxRunningJobs: running,
		TenantQuota:    1 << 30,
		QueueCap:       jobs,
		SoftBacklog:    1 << 30,
		HardBacklog:    1 << 30,
	})
	g := keyChain()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		peak int
	)
	for ten := 0; ten < tenants; ten++ {
		wg.Add(1)
		go func(ten int) {
			defer wg.Done()
			c := h.Client(fmt.Sprint("tenant-", ten))
			for i := ten; i < jobs; i += tenants {
				c.MustSubmit(t, g)
				if i%200 == 0 {
					n := trackedKeys(t, c)
					mu.Lock()
					peak = max(peak, n)
					mu.Unlock()
				}
			}
		}(ten)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := h.Server.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	final := trackedKeys(t, h.Client("tenant-0"))
	peak = max(peak, final)
	if peak > limit {
		t.Errorf("raa_pool_tracked_keys peaked at %d over %d jobs, want ≤ %d", peak, jobs, limit)
	}
	t.Logf("%d jobs: tracked keys peaked at %d, %d after drain (limit %d)", jobs, peak, final, limit)
	if minted := jobs * keysPerJob; final >= minted {
		t.Errorf("tracker holds %d keys after %d minted: nothing was retired", final, minted)
	}
}
