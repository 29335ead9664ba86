// Package sampling implements the two inexact baselines of Section 6.2:
// Monte Carlo permutation sampling [Mann & Shapley 1960] and Kernel SHAP
// [Lundberg & Lee 2017], both adapted to database provenance: the players
// are the distinct endogenous facts of a lineage circuit and the game is the
// Boolean value of the lineage on a sub-instance.
//
// Lineages built from ∧, ∨, variables and constants are monotone games, and
// along a permutation a monotone game turns true at exactly one player, the
// pivot [Shapley & Shubik 1954]. Monte Carlo sampling finds that player in
// one arrival-time pass over the circuit per permutation; a game with a
// negation is sampled by evaluating every prefix of the permutation.
package sampling

import (
	"context"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"

	"repro/internal/circuit"
	"repro/internal/db"
	"repro/internal/linalg"
)

// Game is a Boolean cooperative game over the distinct facts of a lineage
// circuit, with a fast slice-based evaluator (the circuit is flattened to a
// postorder program once, then evaluated thousands of times). A Game holds
// no random source: MonteCarloCI seeds its own from the seed it is given,
// so an estimate is a pure function of the game and that seed, never of
// global process state. A Game is not safe for concurrent use.
type Game struct {
	Players []db.FactID
	prog    []instr
	evalBuf []bool // Eval's value slots, reused across calls
	// monotone is set when the program has no KindNot gate, so MonteCarloCI
	// finds each permutation's pivot in one arrival-time pass.
	monotone bool
}

type instr struct {
	kind     circuit.Kind
	val      bool
	slot     int   // assignment slot for var gates
	children []int // program indices, a sub-slice of one array for the program
}

// NewGame flattens the lineage circuit into a postorder program. Players
// are the circuit's distinct variables in increasing fact-ID order. The
// program, its children and its players take one allocation each, whatever
// the circuit's size.
func NewGame(lineage *circuit.Node) *Game {
	// Number the gates in postorder and count their edges and variables.
	index := newGateIndex(lineage.ID())
	edges, vars := 0, 0
	var number func(n *circuit.Node)
	number = func(n *circuit.Node) {
		if _, ok := index.get(n); ok {
			return
		}
		for _, c := range n.Children {
			number(c)
		}
		index.put(n, index.n)
		edges += len(n.Children)
		if n.Kind == circuit.KindVar {
			vars++
		}
	}
	number(lineage)
	order := make([]*circuit.Node, index.n)
	for _, s := range index.slots {
		if s.node != nil {
			order[s.at] = s.node
		}
	}

	g := &Game{prog: make([]instr, len(order)), Players: make([]db.FactID, 0, vars), monotone: true}
	kids := make([]int, edges)
	for i, n := range order {
		in := &g.prog[i]
		in.kind, in.val = n.Kind, n.Val
		in.children, kids = kids[:len(n.Children):len(n.Children)], kids[len(n.Children):]
		for j, c := range n.Children {
			in.children[j], _ = index.get(c)
		}
		switch n.Kind {
		case circuit.KindVar:
			g.Players = append(g.Players, db.FactID(n.Var))
		case circuit.KindNot:
			g.monotone = false
		}
	}
	slices.Sort(g.Players)
	g.Players = slices.Compact(g.Players)
	for i, n := range order {
		if n.Kind == circuit.KindVar {
			g.prog[i].slot, _ = slices.BinarySearch(g.Players, db.FactID(n.Var))
		}
	}
	return g
}

// gateIndex maps a circuit's gates to their program indices by open
// addressing: a power-of-two table of slots, probed linearly from a
// multiplicative hash of the gate's ID. An empty slot holds a nil node.
type gateIndex struct {
	slots []gateSlot
	n     int // gates held
}

type gateSlot struct {
	node *circuit.Node
	at   int
}

// maxGateHint caps newGateIndex's presizing, so a small circuit from a
// large builder takes a small table.
const maxGateHint = 1 << 10

// newGateIndex returns a gate index presized for min(hint, maxGateHint)
// gates. A builder numbers each gate after its children, so a circuit's
// root ID bounds its gate count.
func newGateIndex(hint int) gateIndex {
	size := 8
	for 3*size < 4*min(hint, maxGateHint) {
		size *= 2
	}
	return gateIndex{slots: make([]gateSlot, size)}
}

// slot returns the slot that holds n, or the empty slot where it goes.
func (x *gateIndex) slot(n *circuit.Node) *gateSlot {
	mask := len(x.slots) - 1
	for i := int(uint64(n.ID())*0x9e3779b97f4a7c15>>32) & mask; ; i = (i + 1) & mask {
		if s := &x.slots[i]; s.node == nil || s.node == n {
			return s
		}
	}
}

func (x *gateIndex) get(n *circuit.Node) (at int, ok bool) {
	s := x.slot(n)
	return s.at, s.node != nil
}

// put adds n, which must be absent, doubling the table past a load of 3/4.
func (x *gateIndex) put(n *circuit.Node, at int) {
	if 4*(x.n+1) > 3*len(x.slots) {
		old := x.slots
		x.slots = make([]gateSlot, 2*len(old))
		for _, s := range old {
			if s.node != nil {
				*x.slot(s.node) = s
			}
		}
	}
	*x.slot(n) = gateSlot{n, at}
	x.n++
}

// NumPlayers returns the number of distinct facts in the lineage.
func (g *Game) NumPlayers() int { return len(g.Players) }

// Fingerprint hashes the flattened game program — gate kinds, constant
// values, variable slots, and child indices, all expressed in player-slot
// space rather than raw fact IDs — so two lineages that are isomorphic
// modulo fact renaming fingerprint identically. It is the canonical lineage
// key the anytime tier derives deterministic sampling seeds from.
func (g *Game) Fingerprint() uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 16)
	put := func(v uint64) {
		buf = buf[:0]
		for i := 0; i < 8; i++ {
			buf = append(buf, byte(v>>(8*i)))
		}
		h.Write(buf)
	}
	put(uint64(len(g.Players)))
	for _, in := range g.prog {
		put(uint64(in.kind))
		if in.val {
			put(1)
		} else {
			put(0)
		}
		put(uint64(in.slot))
		put(uint64(len(in.children)))
		for _, c := range in.children {
			put(uint64(c))
		}
	}
	return h.Sum64()
}

// DeriveSeed mixes a lineage fingerprint with a request-supplied override
// into a sampling seed (splitmix64 finalizer). override == 0 yields the
// canonical per-lineage seed; any other value perturbs it reproducibly, so a
// client can ask for an independent estimate without losing determinism.
func DeriveSeed(fingerprint uint64, override int64) int64 {
	z := fingerprint + uint64(override)*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Eval evaluates the game on a coalition given as a presence slice aligned
// with Players. It evaluates into the game's reused value buffer, so the
// sampling loops do not allocate per evaluation.
func (g *Game) Eval(present []bool) bool {
	if cap(g.evalBuf) < len(g.prog) {
		g.evalBuf = make([]bool, len(g.prog))
	}
	vals := g.evalBuf[:len(g.prog)]
	for i, in := range g.prog {
		switch in.kind {
		case circuit.KindVar:
			vals[i] = present[in.slot]
		case circuit.KindConst:
			vals[i] = in.val
		case circuit.KindNot:
			vals[i] = !vals[in.children[0]]
		case circuit.KindAnd:
			v := true
			for _, c := range in.children {
				if !vals[c] {
					v = false
					break
				}
			}
			vals[i] = v
		case circuit.KindOr:
			v := false
			for _, c := range in.children {
				if vals[c] {
					v = true
					break
				}
			}
			vals[i] = v
		}
	}
	if len(vals) == 0 {
		return false
	}
	return vals[len(vals)-1]
}

// pivot returns the player whose arrival turns a monotone game true along
// perm, or -1 when no arrival changes its value. It computes each gate's
// arrival time, the length of the shortest prefix of perm on which the gate
// is true, minus one: a variable's is its player's position (at[slot]), a
// true constant's −1 and a false constant's n; an ∧ gate takes the maximum
// of its children's and an ∨ gate the minimum. The root turns true when
// player perm[r] arrives, for r its arrival time, unless r is −1 (true on
// the empty prefix) or n (false on the full one). times holds one slot per
// program instruction.
func (g *Game) pivot(perm, at, times []int) int {
	n := len(perm)
	for i, p := range perm {
		at[p] = i
	}
	for i, in := range g.prog {
		switch in.kind {
		case circuit.KindVar:
			times[i] = at[in.slot]
		case circuit.KindConst:
			if in.val {
				times[i] = -1
			} else {
				times[i] = n
			}
		case circuit.KindAnd:
			t := -1
			for _, c := range in.children {
				t = max(t, times[c])
			}
			times[i] = t
		case circuit.KindOr:
			t := n
			for _, c := range in.children {
				t = min(t, times[c])
			}
			times[i] = t
		}
	}
	if r := times[len(times)-1]; r >= 0 && r < n {
		return perm[r]
	}
	return -1
}

// prefixScan tallies one permutation's marginals by evaluating the game on
// each of its n+1 prefixes; it is the general path for games with a
// negation, where a permutation may flip the value more than once.
func (g *Game) prefixScan(perm []int, present []bool, sum, nonzero []int64) {
	for i := range present {
		present[i] = false
	}
	prev := g.Eval(present)
	for _, p := range perm {
		present[p] = true
		cur := g.Eval(present)
		if cur != prev {
			if cur {
				sum[p]++
			} else {
				sum[p]--
			}
			nonzero[p]++
		}
		prev = cur
	}
}

// Estimate is one fact's sampled Shapley value with a 95% confidence
// interval. The interval is a normal approximation over the permutation
// sample — Value is always inside [CILow, CIHigh], and all three are finite.
type Estimate struct {
	Value  float64
	CILow  float64
	CIHigh float64
}

// Config bounds a MonteCarloCI run.
type Config struct {
	// MinPermutations is the floor of player permutations sampled before any
	// stopping rule applies (≤ 0 = DefaultMinPermutations). The estimate
	// after exactly MinPermutations is deterministic given the game's seed.
	MinPermutations int
	// TargetCI is the 95%-CI half-width at which refinement stops, checked
	// against the widest per-fact interval after each batch. ≤ 0 uses
	// DefaultTargetCI; ≥ 1 disables refinement entirely (the run is exactly
	// MinPermutations, the fully deterministic mode the calibration tests
	// use).
	TargetCI float64
}

// Defaults for Config.
const (
	DefaultMinPermutations = 256
	DefaultTargetCI        = 0.05
)

// refineFactor caps the CI refinement loop at refineFactor·MinPermutations
// permutations.
const refineFactor = 16

func (c Config) withDefaults() Config {
	if c.MinPermutations <= 0 {
		c.MinPermutations = DefaultMinPermutations
	}
	if c.TargetCI <= 0 {
		c.TargetCI = DefaultTargetCI
	}
	return c
}

// Approx is a full sampled explanation: every player's estimate with error
// bars, plus the sampling provenance (how many permutations and circuit
// passes were spent, and the seed that reproduces the run).
type Approx struct {
	Estimates    map[db.FactID]Estimate
	Permutations int
	// Evals counts passes over the flattened circuit: one per permutation
	// for a monotone game, n+1 for a game with a negation.
	Evals int
	Seed  int64
}

// ciBatch is how many permutations MonteCarloCI samples between context and
// target-CI checks.
const ciBatch = 64

// z95 is the two-sided 95% normal quantile.
const z95 = 1.959963984540054

// MonteCarloCI approximates every player's Shapley value by permutation
// sampling [Mann & Shapley 1960] with per-fact 95% confidence intervals: it
// draws cfg.MinPermutations permutations, then refines in batches until the
// widest interval's half-width reaches cfg.TargetCI or refineFactor times as
// many permutations are spent. Each permutation contributes one marginal per player (−1, 0, or
// +1 for a Boolean game), so the CI is the normal approximation over those
// marginals. A monotone game's permutation has at most one nonzero
// marginal, +1 for its pivot, found in one arrival-time pass over the
// circuit; a game with a negation evaluates all n+1 prefixes. Both tally the
// same marginals, so the path never changes an estimate. The run draws its
// permutations from a source seeded with seed alone: the same game, seed,
// and config produce bit-identical estimates, which the calibration tests
// and the anytime serving tier's reproducibility contract rely on. ctx is
// checked between batches; cancellation returns the context's error and no
// estimates.
func (g *Game) MonteCarloCI(ctx context.Context, seed int64, cfg Config) (*Approx, error) {
	cfg = cfg.withDefaults()
	n := g.NumPlayers()
	ap := &Approx{Estimates: make(map[db.FactID]Estimate, n), Seed: seed}
	if n == 0 {
		return ap, nil
	}
	rng := rand.New(rand.NewSource(seed))

	// Per player: Σ marginals and the count of nonzero marginals. Marginals
	// are ±1, so the nonzero count is also Σ marginal², which is all the
	// variance needs.
	sum := make([]int64, n)
	nonzero := make([]int64, n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	// The pivot pass's arrival times, or the prefix scan's coalition, and
	// the circuit passes each spends per permutation.
	var at, times []int
	var present []bool
	passes := 1
	if g.monotone {
		at, times = make([]int, n), make([]int, len(g.prog))
	} else {
		present, passes = make([]bool, n), n+1
	}

	perms, maxPerms := 0, refineFactor*cfg.MinPermutations
	for perms < cfg.MinPermutations || (perms < maxPerms && cfg.TargetCI < 1 && g.widestHalfWidth(sum, nonzero, perms) > cfg.TargetCI) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		batch := ciBatch
		if perms < cfg.MinPermutations && cfg.MinPermutations-perms < batch {
			batch = cfg.MinPermutations - perms
		}
		if maxPerms-perms < batch {
			batch = maxPerms - perms
		}
		for r := 0; r < batch; r++ {
			rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			if !g.monotone {
				g.prefixScan(perm, present, sum, nonzero)
			} else if p := g.pivot(perm, at, times); p >= 0 {
				sum[p]++
				nonzero[p]++
			}
		}
		perms += batch
		ap.Evals += batch * passes
	}

	ap.Permutations = perms
	for i, p := range g.Players {
		ap.Estimates[p] = estimateFrom(sum[i], nonzero[i], perms)
	}
	return ap, nil
}

// estimateFrom turns one player's marginal tallies into a 95% CI estimate.
func estimateFrom(sum, nonzero int64, perms int) Estimate {
	r := float64(perms)
	mean := float64(sum) / r
	hw := 1.0 // conservative interval when variance is undefined
	if perms >= 2 {
		// Sample variance of ±1/0 marginals: (Σm² − (Σm)²/R)/(R−1).
		variance := (float64(nonzero) - float64(sum)*float64(sum)/r) / (r - 1)
		if variance < 0 {
			variance = 0
		}
		hw = z95 * math.Sqrt(variance/r)
	}
	return Estimate{Value: mean, CILow: mean - hw, CIHigh: mean + hw}
}

// widestHalfWidth is the refinement loop's stopping statistic: the largest
// per-player 95% half-width at the current sample size.
func (g *Game) widestHalfWidth(sum, nonzero []int64, perms int) float64 {
	if perms < 2 {
		return math.Inf(1)
	}
	widest := 0.0
	for i := range sum {
		e := estimateFrom(sum[i], nonzero[i], perms)
		if hw := e.CIHigh - e.Value; hw > widest {
			widest = hw
		}
	}
	return widest
}

// KernelSHAP approximates Shapley values by sampling `budget` coalitions,
// weighting them with the SHAP kernel π(s) = (M−1)/(C(M,s)·s·(M−s)), and
// solving a weighted least-squares problem for the linear surrogate
// g(z) = φ0 + Σ φ_i z_i. Following the paper's adaptation, the explained
// vector is all-ones and the background is a single all-zeros example, so
// the surrogate's targets are plain lineage evaluations. The empty and full
// coalitions anchor the regression with large weights, enforcing
// g(∅) ≈ h(∅) and g(1) ≈ h(1).
func KernelSHAP(g *Game, budget int, rng *rand.Rand) map[db.FactID]float64 {
	m := g.NumPlayers()
	out := make(map[db.FactID]float64, m)
	if m == 0 {
		return out
	}
	if m == 1 {
		// φ = h({f}) − h(∅) directly; the kernel is undefined for M=1.
		out[g.Players[0]] = btof(g.Eval([]bool{true})) - btof(g.Eval([]bool{false}))
		return out
	}

	type sample struct {
		z []bool
		w float64
	}
	var samples []sample

	// Size distribution proportional to total kernel mass per size.
	sizeWeights := make([]float64, m) // index s = 1..m-1
	totalW := 0.0
	for s := 1; s <= m-1; s++ {
		w := float64(m-1) / (float64(s) * float64(m-s)) // mass of the whole size class
		sizeWeights[s-1] = w
		totalW += w
	}

	const anchorWeight = 1e6
	empty := make([]bool, m)
	full := make([]bool, m)
	for i := range full {
		full[i] = true
	}
	samples = append(samples,
		sample{z: empty, w: anchorWeight},
		sample{z: full, w: anchorWeight})

	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	for k := 0; k < budget; k++ {
		// Sample a size, then a uniform coalition of that size. A uniform
		// coalition within a size class carries the class weight evenly, so
		// per-sample regression weight is constant; we use 1.
		r := rng.Float64() * totalW
		s := 1
		for ; s < m-1; s++ {
			if r < sizeWeights[s-1] {
				break
			}
			r -= sizeWeights[s-1]
		}
		rng.Shuffle(m, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		z := make([]bool, m)
		for _, p := range idx[:s] {
			z[p] = true
		}
		samples = append(samples, sample{z: z, w: 1})
	}

	// Design matrix with intercept column (φ0) followed by per-player
	// indicator columns.
	x := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	w := make([]float64, len(samples))
	for i, s := range samples {
		row := make([]float64, m+1)
		row[0] = 1
		for j, in := range s.z {
			if in {
				row[j+1] = 1
			}
		}
		x[i] = row
		y[i] = btof(g.Eval(s.z))
		w[i] = s.w
	}
	beta, err := linalg.WeightedLeastSquares(x, y, w, 1e-9)
	if err != nil {
		// Degenerate sample set: fall back to zeros rather than failing the
		// whole comparison run.
		for _, p := range g.Players {
			out[p] = 0
		}
		return out
	}
	for i, p := range g.Players {
		out[p] = beta[i+1]
	}
	return out
}

// KernelSHAPExhaustive runs the Kernel SHAP regression over every coalition
// with its exact kernel weight. With full coverage, the weighted regression
// recovers the exact Shapley values (a known property of the SHAP kernel),
// which makes this the correctness oracle for the sampled variant. It is
// exponential in the number of players.
func KernelSHAPExhaustive(g *Game) map[db.FactID]float64 {
	m := g.NumPlayers()
	out := make(map[db.FactID]float64, m)
	if m == 0 {
		return out
	}
	if m == 1 {
		out[g.Players[0]] = btof(g.Eval([]bool{true})) - btof(g.Eval([]bool{false}))
		return out
	}
	var x [][]float64
	var y, w []float64
	const anchorWeight = 1e8
	binom := func(n, k int) float64 {
		res := 1.0
		for i := 1; i <= k; i++ {
			res = res * float64(n-i+1) / float64(i)
		}
		return res
	}
	for mask := 0; mask < 1<<m; mask++ {
		s := 0
		z := make([]bool, m)
		row := make([]float64, m+1)
		row[0] = 1
		for i := 0; i < m; i++ {
			if mask&(1<<i) != 0 {
				z[i] = true
				row[i+1] = 1
				s++
			}
		}
		var weight float64
		if s == 0 || s == m {
			weight = anchorWeight
		} else {
			weight = float64(m-1) / (binom(m, s) * float64(s) * float64(m-s))
		}
		x = append(x, row)
		y = append(y, btof(g.Eval(z)))
		w = append(w, weight)
	}
	beta, err := linalg.WeightedLeastSquares(x, y, w, 1e-12)
	if err != nil {
		return out
	}
	for i, p := range g.Players {
		out[p] = beta[i+1]
	}
	return out
}

// ExactBySubsets computes exact Shapley values of the game by subset
// enumeration, returned as floats; a convenience oracle for tests and small
// benchmarks.
func ExactBySubsets(g *Game) map[db.FactID]float64 {
	m := g.NumPlayers()
	out := make(map[db.FactID]float64, m)
	if m == 0 {
		return out
	}
	vals := make([]bool, 1<<m)
	z := make([]bool, m)
	for mask := 0; mask < 1<<m; mask++ {
		for i := 0; i < m; i++ {
			z[i] = mask&(1<<i) != 0
		}
		vals[mask] = g.Eval(z)
	}
	// coef[k] = k!(m−k−1)!/m! = 1/(m·C(m−1,k)).
	coefs := make([]float64, m)
	for k := 0; k < m; k++ {
		binom := 1.0
		for i := 1; i <= k; i++ {
			binom = binom * float64(m-i) / float64(i)
		}
		coefs[k] = 1 / (float64(m) * binom)
	}
	for i, p := range g.Players {
		total := 0.0
		bit := 1 << i
		for mask := 0; mask < 1<<m; mask++ {
			if mask&bit != 0 {
				continue
			}
			with, without := vals[mask|bit], vals[mask]
			if with == without {
				continue
			}
			k := popcount(mask)
			if with {
				total += coefs[k]
			} else {
				total -= coefs[k]
			}
		}
		out[p] = total
	}
	return out
}

func btof(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}
