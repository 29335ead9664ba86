// Command serveload is the serve smokes' correctness gate: it drives a
// running shapleyd that serves the flights dataset over HTTP — explains at
// each concurrency level, a net-zero explain:update mix and an optional
// budgeted phase — and exits non-zero on any non-2xx response, any budgeted
// answer that is neither exact nor marked with finite ordered confidence
// bounds, any quiesced value that is not big.Rat-identical to a cold
// repro.Explain, or any /metrics series it reads that the server lacks.
// On success it prints what it checked and the server's pool and cache
// counters.
//
// Usage:
//
//	serveload -url http://127.0.0.1:8080
//	serveload -url http://127.0.0.1:8080 -clients 1,4,16 -requests 8 -update-every 4 -budget-ms 2
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro/internal/servebench"
)

func main() {
	var (
		url     = flag.String("url", "", "base URL of the shapleyd to drive")
		clients = flag.String("clients", "1,4,16", "comma-separated concurrency levels")
		reqs    = flag.Int("requests", 8, "requests per client per phase")
		updEv   = flag.Int("update-every", 4, "one update per this many requests in the mixed phase (-1 disables)")
		budget  = flag.Float64("budget-ms", 0, "adds a budgeted phase: explains carrying this budget_ms, each exact or a marked approximation")
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
		BudgetMs:    *budget,
		AllowApprox: *allowAp,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "serveload:", err)
		os.Exit(1)
	}

	fmt.Printf("%s: %d explains and %d updates answered 2xx at clients %s (%d value cross-checks passed)\n",
		*url, rep.Explains, rep.Updates, *clients, rep.ValueChecks)
	if *budget > 0 {
		fmt.Printf("budgeted explains: %d exact, %d marked approximate\n", rep.Exact, rep.Approx)
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
