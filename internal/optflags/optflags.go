// Package optflags registers the repro.Options command-line flags that the
// shapley and shapleyd commands share, so both spell, default and document
// them identically. The help text states Options.Validate's meaning of each
// sentinel value.
package optflags

import (
	"flag"
	"time"

	"repro"
)

// defaultTimeout is the -timeout default: the paper's recommended budget t
// for the exact attempt of the Section 6.3 hybrid.
const defaultTimeout = 2500 * time.Millisecond

// Register defines -timeout, -workers, -cache, -strategy and
// -approx-min-samples on fs and returns the Options they parse into: after
// fs.Parse the pointed-to value holds the parsed settings, every other field
// zero. An unknown -strategy
// name fails fs.Parse; out-of-range numbers parse and are left to
// Options.Validate.
func Register(fs *flag.FlagSet) *repro.Options {
	o := &repro.Options{Timeout: defaultTimeout}
	fs.DurationVar(&o.Timeout, "timeout", o.Timeout, "exact-computation budget per output tuple before the CNF Proxy fallback (0 = unbounded)")
	fs.IntVar(&o.Workers, "workers", 0, "pipeline concurrency (0 = GOMAXPROCS, 1 = serial)")
	fs.IntVar(&o.CacheSize, "cache", 0, "Shapley-value cache size in lineages (0 = default, -1 = disabled)")
	fs.Var((*strategyFlag)(&o.Strategy), "strategy", "Algorithm 1 evaluation `mode`: auto (the default), per-fact, or gradient")
	fs.IntVar(&o.Budget.MinSamples, "approx-min-samples", 0, "sampling fallback's minimum permutation count (0 = sampler default)")
	return o
}

// strategyFlag is a flag.Value parsing a ShapleyStrategy by name.
type strategyFlag repro.ShapleyStrategy

func (f *strategyFlag) String() string { return repro.ShapleyStrategy(*f).String() }

func (f *strategyFlag) Set(s string) error {
	st, err := repro.ParseShapleyStrategy(s)
	if err != nil {
		return err
	}
	*f = strategyFlag(st)
	return nil
}
