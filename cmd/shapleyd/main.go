// Command shapleyd serves Shapley explanations over HTTP: it loads the
// requested datasets, opens a bounded pool of warm explanation sessions —
// one per (dataset, query), maintained incrementally under updates — and
// answers the wire API of internal/server:
//
//	POST /v1/explain  {"dataset": "flights", "query": "q() :- ...", "top": 3}
//	POST /v1/update   {"dataset": "flights", "query": "...", "inserts": [...], "deletes": [...]}
//	GET  /metrics        Prometheus exposition of every request, stage,
//	                     pool, compile-cache, compiler, and dataset counter
//	GET  /v1/debug/slow  recent slow explains with their stage traces
//	GET  /healthz        liveness
//
// SIGINT/SIGTERM drain in-flight requests before exiting (bounded by
// -drain), then close the pool.
//
// Usage:
//
//	shapleyd -addr :8080 -datasets flights
//	shapleyd -addr :8080 -datasets flights,tpch,imdb -scale 0.5 -pool 16 -timeout 2.5s
//	shapleyd -addr :8080 -datasets tpch -store-dir /var/lib/shapleyd -fsync always
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/flights"
	"repro/internal/imdb"
	"repro/internal/optflags"
	"repro/internal/server"
	"repro/internal/tpch"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		datasets = flag.String("datasets", "flights", "comma-separated datasets to serve: flights, tpch, imdb")
		scale    = flag.Float64("scale", 1.0, "dataset scale factor for tpch/imdb")
		poolSize = flag.Int("pool", server.DefaultPoolSize, "session pool capacity (warm (dataset, query) sessions; LRU beyond)")
		drain    = flag.Duration("drain", 15*time.Second, "graceful-shutdown budget for in-flight requests")
		storeDir = flag.String("store-dir", "", "persist each dataset under <dir>/<name> (reloaded on restart)")
		fsync    = flag.String("fsync", "every", "WAL sync policy for -store-dir datasets: always, every, every=N, or onclose")
		reqTO    = flag.Duration("request-timeout", 0, "per-request deadline for explain/update (0 = none); expired requests get 504")
		inflight = flag.Int("max-inflight", 0, "max concurrently executing requests per work route (0 = unbounded); excess sheds with 429 + Retry-After")
		ebudget  = flag.Duration("explain-budget", 0, "per-explain exact-attempt deadline before degrading to sampled estimates with confidence intervals (0 = no anytime tier)")
		emaxn    = flag.Int("explain-max-nodes", 0, "per-explain compiled-circuit node budget before degrading to sampled estimates (0 = no node trigger)")
		atarget  = flag.Float64("approx-target-ci", 0, "sampling fallback's target 95%-CI half-width, in (0,1) (0 = sampler default)")
		slowTO   = flag.Duration("slow-explain", 0, "wall-clock threshold past which an explain is logged and kept (with its stage trace) in the /v1/debug/slow ring (0 = disabled)")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (loopback clients only)")
		logLevel = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		parsed   = optflags.Register(flag.CommandLine)
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "shapleyd: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(1)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	fatal := func(msg string, err error) {
		logger.Error(msg, "error", err)
		os.Exit(1)
	}

	syncPolicy, err := repro.ParseSyncPolicy(*fsync)
	if err != nil {
		fatal("bad -fsync", err)
	}

	opts := *parsed
	opts.Budget.Deadline, opts.Budget.MaxNodes, opts.Budget.TargetCI = *ebudget, *emaxn, *atarget
	cfg := server.Config{
		Datasets:       make(map[string]*repro.Database),
		PoolSize:       *poolSize,
		RequestTimeout: *reqTO,
		MaxInFlight:    *inflight,
		Logger:         logger,
		SlowThreshold:  *slowTO,
		EnablePprof:    *pprofOn,
		Options:        opts,
	}
	if err := cfg.Options.Validate(); err != nil {
		fatal("invalid options", err)
	}
	for _, name := range strings.Split(*datasets, ",") {
		name = strings.TrimSpace(name)
		start := time.Now()
		var d *repro.Database
		switch name {
		case "flights":
			d, _ = flights.Build()
		case "tpch":
			d = tpch.Generate(tpch.DefaultConfig().Scaled(*scale))
		case "imdb":
			d = imdb.Generate(imdb.DefaultConfig().Scaled(*scale))
		case "":
			continue
		default:
			fatal("unknown dataset", fmt.Errorf("%q (want flights, tpch, or imdb)", name))
		}
		// With -store-dir, a directory already holding a persisted copy —
		// including updates served by previous runs — is reloaded instead
		// of being overwritten by the freshly generated dataset; otherwise
		// the generated dataset becomes persistent in place.
		if *storeDir != "" {
			dir := filepath.Join(*storeDir, name)
			if repro.DatabasePersisted(dir) {
				pd, info, err := repro.OpenDatabaseInfo(dir, syncPolicy)
				if err != nil {
					fatal(fmt.Sprintf("reloading %s from %s", name, dir), err)
				}
				logger.Info("dataset recovered", "dataset", name,
					"snapshot_records", info.SnapshotRecords, "wal_records", info.LogRecords,
					"torn_tail", info.Truncated, "dropped_bytes", info.DroppedBytes)
				d = pd
			} else if err := d.Persist(repro.PersistConfig{Dir: dir, Sync: syncPolicy}); err != nil {
				fatal(fmt.Sprintf("persisting %s to %s", name, dir), err)
			}
		}
		cfg.Datasets[name] = d
		logger.Info("dataset loaded", "dataset", name, "facts", d.NumFacts(),
			"elapsed", time.Since(start).Round(time.Millisecond))
	}

	s, err := server.New(cfg)
	if err != nil {
		fatal("configuring server", err)
	}

	// Server-level I/O deadlines: slow or stalled clients cannot hold a
	// connection open indefinitely. The write timeout leaves the handler's
	// own -request-timeout room to respond (a generous ceiling when no
	// per-request deadline is set).
	writeTO := 5 * time.Minute
	if *reqTO > 0 {
		writeTO = *reqTO + 30*time.Second
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      writeTO,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	logger.Info("shapleyd listening", "addr", *addr, "pool", *poolSize,
		"datasets", len(cfg.Datasets), "pprof", *pprofOn, "slow_explain", *slowTO)

	select {
	case err := <-errCh:
		fatal("serving", err)
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down: draining in-flight requests", "budget", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("shutdown", "error", err)
	}
	s.Close()
	// Closing the databases flushes persistent mutation logs to disk.
	for name, d := range cfg.Datasets {
		if err := d.Close(); err != nil {
			logger.Error("closing dataset", "dataset", name, "error", err)
		}
	}
	logger.Info("bye")
}
