package dnnf

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cnf"
)

// fuzzClauses reads a clause multiset from data: a zero byte ends a clause,
// as does a sixth literal, and any other byte b is a literal over variable
// b>>2 + 1 (shifted left by 14 above 57, so codes take up to four uvarint
// bytes), negative when b&1 is set. Clauses are not normalized: the cache
// compares literal sequences.
func fuzzClauses(data []byte) []cnf.Clause {
	var out []cnf.Clause
	var cl cnf.Clause
	for _, b := range data {
		if b == 0 || len(cl) == 6 {
			out = append(out, cl)
			cl = nil
			if b == 0 {
				continue
			}
		}
		v := int(b>>2) + 1
		if v > 57 {
			v <<= 14
		}
		l := cnf.Lit(v)
		if b&1 != 0 {
			l = -l
		}
		cl = append(cl, l)
	}
	if cl != nil {
		out = append(out, cl)
	}
	return out
}

// rearrange derives a second clause multiset from clauses under op: a
// permutation, a permutation with clauses duplicated, or a perturbation
// that may or may not change the multiset. It copies every clause it
// changes.
func rearrange(clauses []cnf.Clause, op byte, rng *rand.Rand) []cnf.Clause {
	out := slices.Clone(clauses)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	if len(out) == 0 {
		return append(out, cnf.Clause{1})
	}
	i, j := rng.Intn(len(out)), rng.Intn(len(out))
	switch op % 7 {
	case 0: // a permutation
	case 1: // a clause duplicated
		out = append(out, out[i])
	case 2: // one clause's multiplicity moved to another
		out[i] = out[j]
	case 3: // a clause dropped
		out = slices.Delete(out, i, i+1)
	case 4: // a literal's sign or variable changed
		if len(out[i]) > 0 {
			cl := slices.Clone(out[i])
			k := rng.Intn(len(cl))
			if rng.Intn(2) == 0 {
				cl[k] = -cl[k]
			} else {
				cl[k] += cnf.Lit(rng.Intn(3) - 1)
				if cl[k] == 0 {
					cl[k] = 1
				}
			}
			out[i] = cl
		}
	case 5: // a literal moved to the next clause
		if k := (i + 1) % len(out); k != i && len(out[i]) > 0 {
			out[k] = append(slices.Clone(out[k]), out[i][len(out[i])-1])
			out[i] = out[i][:len(out[i])-1]
		}
	case 6: // a clause's literals reversed
		cl := slices.Clone(out[i])
		slices.Reverse(cl)
		out[i] = cl
	}
	return out
}

// FuzzComponentMatch checks the component cache's keying against the
// sorted byte keys (appendClauseKey) as the oracle: two clause multisets,
// the second a permutation of the first, with clauses duplicated, or a
// perturbation of it. Equal multisets must hash equal, the exact check
// must match exactly when the keys are equal, and a cache holding the first
// set must return its node for the second exactly then.
func FuzzComponentMatch(f *testing.F) {
	f.Add([]byte{8, 12, 0, 9, 16, 0, 20, 0}, byte(0), int64(1))
	f.Add([]byte{8, 12, 0, 8, 12, 0, 9, 16, 0}, byte(1), int64(2))
	f.Add([]byte{8, 12, 0, 8, 12, 0, 9, 16, 0}, byte(2), int64(3))
	f.Add([]byte{8, 12, 16, 0, 9, 0}, byte(5), int64(4))
	f.Add([]byte{8, 12, 0, 12, 8, 0}, byte(6), int64(5))
	f.Add([]byte{250, 8, 0, 251, 0, 4}, byte(4), int64(6))
	f.Add([]byte{}, byte(3), int64(7))

	f.Fuzz(func(t *testing.T, data []byte, op byte, seed int64) {
		if len(data) > 512 {
			t.Skip("large sets add nothing the small ones do not")
		}
		a := fuzzClauses(data)
		b := rearrange(a, op, rand.New(rand.NewSource(seed)))
		keyA := string(appendClauseKey(nil, slices.Clone(a)))
		keyB := string(appendClauseKey(nil, slices.Clone(b)))
		equal := keyA == keyB
		if equal && hashClauses(a) != hashClauses(b) {
			t.Fatalf("equal multisets hash apart:\n%v\n%v", a, b)
		}
		var s scratch
		if got := s.matches(appendClauseSet(nil, a), b); got != equal {
			t.Fatalf("matches = %v, want %v (keys equal):\n%v\n%v", got, equal, a, b)
		}
		nb := NewBuilder()
		node := nb.Lit(1)
		cc := newComponentCache()
		cc.store(hashClauses(a), appendClauseSet(nil, a), node)
		var want *Node
		if equal {
			want = node
		}
		if got := cc.lookup(&s, hashClauses(b), b); got != want {
			t.Fatalf("lookup = %v, want %v:\n%v\n%v", got, want, a, b)
		}
	})
}

// TestComponentCacheSharedHash stores two clause sets under one hash: each
// is found, in any order of its clauses, and neither stands for the other
// or for a third set.
func TestComponentCacheSharedHash(t *testing.T) {
	const h = 42
	sets := [][]cnf.Clause{
		{{1, 2}, {-1, 3}, {2, -3}},
		{{1, 2}, {-1, 3}, {2, 3}},
	}
	b := NewBuilder()
	nodes := []*Node{b.Lit(7), b.Lit(8)}
	cc := newComponentCache()
	var s scratch
	cc.store(h, appendClauseSet(nil, sets[0]), nodes[0])
	if got := cc.lookup(&s, h, sets[1]); got != nil {
		t.Fatalf("second set before it was stored: got node %d", got.ID())
	}
	cc.store(h, appendClauseSet(nil, sets[1]), nodes[1])
	for i, set := range sets {
		if got := cc.lookup(&s, h, set); got != nodes[i] {
			t.Errorf("set %d: got %v, want node %d", i, got, nodes[i].ID())
		}
		rev := slices.Clone(set)
		slices.Reverse(rev)
		if got := cc.lookup(&s, h, rev); got != nodes[i] {
			t.Errorf("set %d reversed: got %v, want node %d", i, got, nodes[i].ID())
		}
	}
	if got := cc.lookup(&s, h, []cnf.Clause{{1, 2}, {-1, 3}}); got != nil {
		t.Errorf("a third set hit node %d", got.ID())
	}
}

// TestUniqueTableSharedHash stores three gates under one hash: each is
// found only once it is stored, and then as its own node.
func TestUniqueTableSharedHash(t *testing.T) {
	const h = 9
	b := NewBuilder()
	x, y, z := b.Lit(1), b.Lit(2), b.Lit(3)
	gates := []struct {
		decision int
		children []*Node
	}{
		{0, []*Node{x, y}},
		{0, []*Node{x, z}},
		{4, []*Node{x, y}},
	}
	var tab uniqueTable
	nodes := make([]*Node, len(gates))
	for i, g := range gates {
		if n := tab.find(h, g.decision, g.children); n != nil {
			t.Fatalf("gate %d found node %d before it was interned", i, n.ID())
		}
		nodes[i] = b.gate(KindOr, g.decision, g.children)
		tab.insert(h, nodes[i])
	}
	for i, g := range gates {
		if got := tab.find(h, g.decision, g.children); got != nodes[i] {
			t.Errorf("gate %d: found %v, want node %d", i, got, nodes[i].ID())
		}
	}
}
