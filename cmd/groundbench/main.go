// Command groundbench times the grounding stage — query evaluation with
// lineage capture, before any Shapley work — across the evaluation matrix:
// streaming versus materialized engine at several dataset scales. The two
// engines are cross-checked for identical answer sets at every scale, so a
// run doubles as the grounding-equivalence smoke test; -json writes the
// BENCH_ground.json document CI uploads.
//
// Usage:
//
//	groundbench -scales 1,4,16 -json BENCH_ground.json
//	groundbench -scales 4 -check   # equivalence smoke only, summary to stdout
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		scales   = flag.String("scales", "1,4,16", "comma-separated TPC-H scale factors")
		jsonPath = flag.String("json", "", "write the BENCH_ground.json document here")
		check    = flag.Bool("check", false, "print only the cross-check summary (answers are always cross-checked; this suppresses the timing table)")
	)
	flag.Parse()

	var sc []float64
	for _, s := range strings.Split(*scales, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || v <= 0 {
			log.Fatalf("groundbench: bad scale %q", s)
		}
		sc = append(sc, v)
	}
	rep, err := bench.RunGroundBench(context.Background(), sc)
	if err != nil {
		log.Fatalf("groundbench: %v", err)
	}
	if *jsonPath != "" {
		if err := bench.WriteGroundBench(*jsonPath, rep); err != nil {
			log.Fatalf("groundbench: %v", err)
		}
		log.Printf("wrote %s", *jsonPath)
	}

	if *check {
		for _, c := range rep.Comparisons {
			fmt.Printf("scale %-4g identical answers; streaming %.2fx faster, %.0f%% fewer bytes\n",
				c.Scale, c.SpeedupX, 100*c.AllocReduction)
		}
		return
	}
	w := os.Stdout
	fmt.Fprintf(w, "%-6s %-13s %10s %9s %12s %14s\n",
		"scale", "engine", "facts", "ms", "facts/sec", "alloc")
	for _, p := range rep.Points {
		fmt.Fprintf(w, "%-6g %-13s %10d %9.1f %12.0f %14d\n",
			p.Scale, p.Engine, p.Facts, p.Millis, p.FactsPerSec, p.AllocBytes)
	}
	for _, c := range rep.Comparisons {
		fmt.Fprintf(w, "scale %-4g: streaming %.2fx faster, %.0f%% alloc reduction\n",
			c.Scale, c.SpeedupX, 100*c.AllocReduction)
	}
}
