// Command serveload is the explanation service's load generator CLI: it
// drives a shapleyd instance (or an in-process server when -url is empty)
// over HTTP with a configurable explain:update mix at several concurrency
// levels, and prints each level's latency and throughput, the pooled vs
// open-per-request head-to-head and the server's pool and cache counters.
// It exits non-zero on any non-2xx response or any served value that is not
// big.Rat-identical to a cold repro.Explain, so CI can use it as a
// serve-smoke gate.
//
// Usage:
//
//	serveload                                   # in-process server
//	serveload -url http://127.0.0.1:8080        # externally started shapleyd
//	serveload -clients 1,4,16 -requests 8 -update-every 4
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/servebench"
	"repro/internal/server"
)

func main() {
	var (
		url     = flag.String("url", "", "target server base URL (empty = start an in-process server)")
		clients = flag.String("clients", "1,4,16", "comma-separated concurrency levels")
		reqs    = flag.Int("requests", 8, "explain requests per client per phase")
		updEv   = flag.Int("update-every", 4, "one update per this many explains in the mixed phase (-1 disables)")
		pool    = flag.Int("pool", server.DefaultPoolSize, "in-process server's session pool capacity")
		timeout = flag.Duration("timeout", 2500*time.Millisecond, "per-tuple exact budget for the in-process server and the cold reference")
		budget  = flag.Float64("budget-ms", 0, "adds a budgeted phase: explains carrying this budget_ms, recording the exact/approximate mix and fallback latency")
		minSamp = flag.Int("approx-min-samples", 0, "in-process server's sampling fallback minimum permutation count (0 = sampler default)")
		allowAp = flag.Bool("allow-approx", false, "permit marked approximate answers in the quiesced value cross-check (for driving a starved server)")
	)
	flag.Parse()

	var levels []int
	for _, part := range strings.Split(*clients, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "serveload: bad -clients entry %q\n", part)
			os.Exit(1)
		}
		levels = append(levels, n)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	rep, err := servebench.Run(ctx, servebench.Options{
		TargetURL:   *url,
		Clients:     levels,
		Requests:    *reqs,
		UpdateEvery: *updEv,
		PoolSize:    *pool,
		Repro: repro.Options{
			Timeout: *timeout,
			Budget:  repro.ExplainBudget{MinSamples: *minSamp},
		},
		BudgetMs:    *budget,
		AllowApprox: *allowAp,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "serveload:", err)
		os.Exit(1)
	}

	fmt.Printf("target: %s  (%d value cross-checks passed)\n", rep.Target, rep.ValueChecks)
	for _, lv := range rep.Levels {
		fmt.Printf("%-16s clients=%-3d explains=%-4d updates=%-4d p50=%.2fms p95=%.2fms p99=%.2fms  %.1f req/s\n",
			lv.Mode, lv.Clients, lv.Explains, lv.Updates,
			lv.Latency.P50Ms, lv.Latency.P95Ms, lv.Latency.P99Ms, lv.ThroughputRPS)
		if lv.Mode == "budgeted-pooled" {
			fmt.Printf("%-16s exact=%-4d approx=%-4d", "", lv.ExactExplains, lv.ApproxExplains)
			if lv.FallbackLatency != nil {
				fmt.Printf(" fallback p50=%.2fms p99=%.2fms", lv.FallbackLatency.P50Ms, lv.FallbackLatency.P99Ms)
			}
			fmt.Println()
		}
	}
	for _, h := range rep.HeadToHead {
		fmt.Printf("head-to-head clients=%-3d pooled p50 %.2fms vs open-per-request %.2fms (%.1fx); throughput %.1f vs %.1f req/s (%.1fx)\n",
			h.Clients, h.PooledP50Ms, h.UnpooledP50Ms, h.P50Speedup,
			h.PooledRPS, h.UnpooledRPS, h.ThroughputSpeedup)
	}
	fmt.Printf("client retries on 429/503: %d\n", rep.Retries)
	if rep.Degraded > 0 {
		fmt.Printf("server degraded (budget-exhausted, answered approximately): %d\n", rep.Degraded)
	}
	fmt.Printf("session pool: opens=%d reuses=%d evictions=%d\n",
		rep.Pool.Opens, rep.Pool.Reuses, rep.Pool.Evictions)
	fmt.Printf("value cache: %d hits (%d identical, %d renamed), %d misses, %d evictions, %d invalidations\n",
		rep.Cache.Hits, rep.Cache.IdenticalHits, rep.Cache.RenamedHits,
		rep.Cache.Misses, rep.Cache.Evictions, rep.Cache.Invalidations)
}
