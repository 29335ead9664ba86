package dnnf

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
	"repro/internal/parallel"
)

// portfolioOrders decides whether portfolio mode engages for this
// compilation and, if so, which heuristics race. The configured Order always
// races (so portfolio mode never regresses a deliberate heuristic choice),
// joined by the dynamic heuristics it is not — OrderMostFrequent and
// OrderJeroslowWang, which explore genuinely different decision trees.
// OrderLexicographic is not added implicitly: it loses so reliably on real
// lineages that a lane spent on it starves the productive racers. The field
// is capped at the worker count (each racer needs at least one worker) and
// collapses below two racers to nil, meaning: compile normally.
func portfolioOrders(opts Options) []VarOrder {
	if !opts.Portfolio {
		return nil
	}
	workers := parallel.Workers(opts.Workers)
	if workers < 2 {
		return nil
	}
	orders := []VarOrder{opts.Order}
	for _, o := range []VarOrder{OrderMostFrequent, OrderJeroslowWang} {
		if o != opts.Order {
			orders = append(orders, o)
		}
	}
	if len(orders) > workers {
		orders = orders[:workers]
	}
	if len(orders) < 2 {
		return nil
	}
	return orders
}

// racerResult is one portfolio lane's outcome.
type racerResult struct {
	order VarOrder
	root  *Node
	stats Stats
	err   error
}

// racePortfolio compiles the same densified clause set (whose variables
// orig maps back) under each heuristic concurrently, each racer on its own builder (hash-consing tables are
// per-builder, so racers share nothing and need no coordination) with an
// equal share of the worker budget for its own internal fan-out and
// speculation. The first racer to succeed wins: the others are cancelled via
// context and their circuits discarded. Losers that fail for their own
// reasons (e.g. one heuristic blows the node budget while another fits) do
// not fail the compilation; only when every racer fails is an error
// returned, preferring the first real (non-cancellation) failure so
// ErrNodeBudget/ErrTimeout surface rather than a cancellation artifact.
func racePortfolio(ctx context.Context, clauses []cnf.Clause, orig []int, opts Options, orders []VarOrder, start time.Time) (*Node, Stats, error) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Split the worker budget evenly across lanes. Each lane's sub-compiler
	// sizes its own spawn pool from this share, so total goroutine fan-out
	// stays bounded by the caller's Workers.
	per := parallel.Workers(opts.Workers) / len(orders)
	if per < 1 {
		per = 1
	}

	results := make(chan racerResult, len(orders))
	var wg sync.WaitGroup
	for _, order := range orders {
		order := order
		lane := opts
		lane.Order = order
		lane.Workers = per
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newCompiler(lane, orig, start)
			root, err := c.compile(rctx, newScratch(orig), clauses, 0)
			stats := c.snapshot(start)
			results <- racerResult{order: order, root: root, stats: stats, err: err}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	var winner *racerResult
	var firstErr error
	losersCancelled := 0
	for r := range results {
		r := r
		if r.err == nil && winner == nil {
			winner = &r
			// First finisher wins; everyone still running is now wasted
			// work — cancel promptly so their spawn tokens and CPU come
			// back. Remaining sends land in the buffered channel, so the
			// closer goroutine never blocks.
			cancel()
			continue
		}
		if r.err != nil {
			if errors.Is(r.err, context.Canceled) && ctx.Err() == nil {
				losersCancelled++
			} else if firstErr == nil || errors.Is(firstErr, context.Canceled) {
				firstErr = r.err
			}
		}
	}
	if winner == nil {
		if err := ctx.Err(); err != nil {
			// The caller cancelled mid-race: report that, not whichever
			// lane happened to observe it first.
			return nil, Stats{Elapsed: time.Since(start)}, err
		}
		if firstErr == nil {
			firstErr = context.Canceled // unreachable: no winner implies an error
		}
		return nil, Stats{Elapsed: time.Since(start)}, firstErr
	}
	stats := winner.stats
	stats.Elapsed = time.Since(start)
	stats.PortfolioRacers = len(orders)
	stats.PortfolioLosersCancelled = losersCancelled
	stats.PortfolioWinner = winner.order.String()
	return winner.root, stats, nil
}

// Process-wide speculation/portfolio counters, served by shapleyd on GET
// /metrics (repro_compilations_total, repro_speculated_decisions_total,
// repro_portfolio_wins_total{order} and the rest). They aggregate across
// every compilation in the process, cheap enough to record unconditionally.
var (
	globalSpeculated   atomic.Int64
	globalSpecCancels  atomic.Int64
	globalRaces        atomic.Int64
	globalRaceLosers   atomic.Int64
	globalWinsByOrder  [numVarOrders]atomic.Int64
	globalCompilations atomic.Int64
)

// recordGlobalCounters folds one compilation's stats into the process-wide
// counters.
func recordGlobalCounters(s Stats) {
	globalCompilations.Add(1)
	if s.SpeculatedDecisions > 0 {
		globalSpeculated.Add(int64(s.SpeculatedDecisions))
	}
	if s.SpeculationCancels > 0 {
		globalSpecCancels.Add(int64(s.SpeculationCancels))
	}
	if s.PortfolioRacers > 0 {
		globalRaces.Add(1)
		globalRaceLosers.Add(int64(s.PortfolioLosersCancelled))
		if o, err := ParseVarOrder(s.PortfolioWinner); err == nil {
			globalWinsByOrder[o].Add(1)
		}
	}
}

// CompilerCounters is a snapshot of the process-wide compiler activity.
type CompilerCounters struct {
	// Compilations counts completed Compile calls (hits excluded).
	Compilations int64
	// SpeculatedDecisions and SpeculationCancels aggregate the per-compile
	// Stats fields of the same names.
	SpeculatedDecisions int64
	SpeculationCancels  int64
	// PortfolioRaces counts compilations that raced heuristics;
	// PortfolioLosersCancelled the racers cancelled after a win; WinsByOrder
	// the wins per heuristic name.
	PortfolioRaces           int64
	PortfolioLosersCancelled int64
	WinsByOrder              map[string]int64
}

// SpeculationCounters snapshots the process-wide speculation and portfolio
// counters.
func SpeculationCounters() CompilerCounters {
	wins := make(map[string]int64)
	for o := VarOrder(0); o < numVarOrders; o++ {
		if n := globalWinsByOrder[o].Load(); n > 0 {
			wins[o.String()] = n
		}
	}
	return CompilerCounters{
		Compilations:             globalCompilations.Load(),
		SpeculatedDecisions:      globalSpeculated.Load(),
		SpeculationCancels:       globalSpecCancels.Load(),
		PortfolioRaces:           globalRaces.Load(),
		PortfolioLosersCancelled: globalRaceLosers.Load(),
		WinsByOrder:              wins,
	}
}
