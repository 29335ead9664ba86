// Command kcompile is a standalone knowledge compiler in the spirit of c2d:
// it reads CNFs in DIMACS format, compiles them to deterministic
// decomposable circuits (d-DNNF), and reports the circuit size, compilation
// statistics, and the model count (optionally the full #SAT_k spectrum).
//
// Several input files compile concurrently across -workers goroutines, each
// compilation on one of them. Reports print in argument order. An interrupt
// (Ctrl-C) cancels the in-flight compilations.
//
// Usage:
//
//	kcompile problem.cnf
//	kcompile -spectrum problem.cnf
//	kcompile -workers 8 a.cnf b.cnf c.cnf
//	echo "p cnf 2 2\n1 2 0\n-1 2 0" | kcompile -
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/dnnf"
	"repro/internal/parallel"
)

func main() {
	var (
		noCache  = flag.Bool("nocache", false, "disable component caching")
		timeout  = flag.Duration("timeout", 0, "compilation timeout per input (0 = none)")
		maxNodes = flag.Int("maxnodes", 0, "node budget (0 = none)")
		spectrum = flag.Bool("spectrum", false, "print #SAT_k for every Hamming weight k")
		outPath  = flag.String("o", "", "write the compiled circuit in c2d nnf format to this file (single input only)")
		workers  = flag.Int("workers", 0, "concurrent compilations across inputs (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: kcompile [flags] <file.cnf... | ->")
		os.Exit(2)
	}
	if *outPath != "" && flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "kcompile: -o requires exactly one input")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := dnnf.Options{
		Timeout:      *timeout,
		MaxNodes:     *maxNodes,
		DisableCache: *noCache,
	}

	formulas := make([]*cnf.Formula, flag.NArg())
	for i, arg := range flag.Args() {
		f, err := readFormula(arg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kcompile:", err)
			os.Exit(1)
		}
		formulas[i] = f
	}

	reports := make([]string, len(formulas))
	err := parallel.ForEach(ctx, len(formulas), *workers, func(_, i int) error {
		report, err := compileOne(ctx, flag.Arg(i), formulas[i], opts, *spectrum, *outPath)
		if err != nil {
			return fmt.Errorf("%s: %w", flag.Arg(i), err)
		}
		reports[i] = report
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "kcompile:", err)
		os.Exit(1)
	}
	for i, r := range reports {
		if len(reports) > 1 {
			fmt.Printf("=== %s ===\n", flag.Arg(i))
		}
		fmt.Print(r)
	}
}

func readFormula(arg string) (*cnf.Formula, error) {
	var in io.Reader
	if arg == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(arg)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		in = f
	}
	return cnf.ParseDIMACS(in)
}

func compileOne(ctx context.Context, name string, formula *cnf.Formula, opts dnnf.Options, spectrum bool, outPath string) (string, error) {
	start := time.Now()
	compiled, stats, err := dnnf.Compile(ctx, formula, opts)
	if err != nil {
		return "", err
	}
	elapsed := time.Since(start)

	var sb strings.Builder
	vars := formula.Vars()
	fmt.Fprintf(&sb, "input:    %d vars, %d clauses\n", len(vars), formula.NumClauses())
	fmt.Fprintf(&sb, "compiled: %d nodes, %d edges in %v\n", dnnf.Size(compiled), dnnf.NumEdges(compiled), elapsed.Round(time.Microsecond))
	fmt.Fprintf(&sb, "stats:    %v\n", stats)
	fmt.Fprintf(&sb, "models:   %v (over %d variables)\n", dnnf.CountModels(compiled, vars), len(vars))

	if outPath != "" {
		out, err := os.Create(outPath)
		if err != nil {
			return "", err
		}
		if err := dnnf.WriteNNF(out, compiled); err != nil {
			return "", err
		}
		if err := out.Close(); err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "wrote:    %s\n", outPath)
	}

	if spectrum {
		counts := core.PadToUniverse(core.ComputeAllSATk(compiled), len(vars)-compiled.NumVars())
		for k, c := range counts {
			if c.Sign() != 0 {
				fmt.Fprintf(&sb, "  #SAT_%d = %v\n", k, c)
			}
		}
	}
	return sb.String(), nil
}
