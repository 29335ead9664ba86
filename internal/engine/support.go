package engine

import (
	"cmp"
	"encoding/binary"
	"sort"

	"repro/internal/db"
)

// Support-set canonicalization shared by the one-shot evaluator and the
// incremental layer. A derivation's identity is exactly its support set —
// the sorted, deduplicated facts its witnessing join used — so both layers
// must agree on one normal form and one key encoding; these two functions
// are that single definition (previously engine.normalizeSupport and
// incremental's derivKey each hand-rolled their own).

// normalizeSupport sorts a derivation's supporting facts by ID and removes
// duplicates (one fact can witness several atoms of a self-join).
func normalizeSupport(facts []*db.Fact) []*db.Fact {
	out := make([]*db.Fact, len(facts))
	copy(out, facts)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	w := 0
	for i, f := range out {
		if i > 0 && out[w-1].ID == f.ID {
			continue
		}
		out[w] = f
		w++
	}
	return out[:w]
}

// supportKey encodes a normalized support set (sorted by ID, no
// duplicates — the form normalizeSupport returns and Derivation.Facts
// carries) as a compact map key: uvarint deltas of the fact IDs, no
// per-fact string formatting.
func supportKey(facts []*db.Fact) string {
	buf := make([]byte, 0, 2*len(facts))
	prev := uint64(0)
	for _, f := range facts {
		id := uint64(f.ID)
		buf = binary.AppendUvarint(buf, id-prev)
		prev = id
	}
	return string(buf)
}

// kindOrder orders two Equal heads of one answer by kind: at the first
// position where their kinds differ, the int comes first. An answer groups
// the derivations whose heads share a Tuple.Key, so its heads are Equal
// but may differ in kind (Int(3) and Float(3)); its tuple is the least of
// them in this order. That makes the tuple a function of the derivation
// set alone, so Eval, NewIncremental and every Insert and Delete agree on
// it. Single-kind heads are all identical and always compare 0.
func kindOrder(a, b db.Tuple) int {
	for i := range a {
		if c := cmp.Compare(a[i].Kind(), b[i].Kind()); c != 0 {
			return c
		}
	}
	return 0
}
