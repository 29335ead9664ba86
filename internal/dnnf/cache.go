package dnnf

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"repro/internal/cnf"
)

// The compiler's two lookup tables, the component cache and the builder's
// unique tables, are keyed by 64-bit hashes rather than by byte keys: a
// lookup hashes the clause set or the gate where it lies, sorts nothing and
// copies nothing, and a hash match is confirmed by an exact comparison, so
// the tables hit exactly where byte keys would.

// hashSeed and hashMul are the word-at-a-time hash of a literal or child
// sequence: each word is folded in as h = (rotl(h, 5) ^ word) * hashMul,
// and finish spreads the result over all 64 bits.
const (
	hashSeed = 0x9e3779b97f4a7c15
	hashMul  = 0x517cc1b727220a95
)

func hashWord(h, w uint64) uint64 { return (bits.RotateLeft64(h, 5) ^ w) * hashMul }

// finish is the splitmix64 finalizer: every input bit flips each output
// bit with probability about one half.
func finish(h uint64) uint64 {
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// litCode is a literal's code in a clause set's byte encoding: 2|l|, plus
// 1 when l is negative. It is never 0, so its uvarint has no zero byte.
func litCode(l cnf.Lit) uint64 {
	code := uint64(l.Var()) << 1
	if l < 0 {
		code |= 1
	}
	return code
}

// hashClauses returns an order-independent hash of a clause multiset: the
// clause count plus the sum of a mixed hash of each clause's literal
// sequence. It reads literal values only, so a multiset hashes the same in
// every order, whatever slices hold its clauses.
func hashClauses(clauses []cnf.Clause) uint64 {
	sum := uint64(len(clauses))
	for _, cl := range clauses {
		h := uint64(hashSeed)
		for _, l := range cl {
			h = hashWord(h, litCode(l))
		}
		sum += finish(h)
	}
	return sum
}

// appendClauseSet appends the clauses to dst in the given order: each
// literal as the uvarint of its litCode, and a zero byte after each clause.
func appendClauseSet(dst []byte, clauses []cnf.Clause) []byte {
	for _, cl := range clauses {
		for _, l := range cl {
			dst = binary.AppendUvarint(dst, litCode(l))
		}
		dst = append(dst, 0)
	}
	return dst
}

// componentCache maps the clause multisets of one compilation's compiled
// components to their nodes, under hashClauses.
type componentCache struct {
	m map[uint64]*entry
}

// entry is one cached component.
type entry struct {
	set  []byte // the clause set in appendClauseSet's encoding, in the order it was met
	node *Node
	next *entry // the next entry under the same hash
}

func newComponentCache() *componentCache {
	return &componentCache{m: make(map[uint64]*entry)}
}

// lookup returns the node of the cached clause multiset equal to clauses,
// which hash to h, or nil. It compares in s and allocates nothing.
func (cc *componentCache) lookup(s *scratch, h uint64, clauses []cnf.Clause) *Node {
	for e := cc.m[h]; e != nil; e = e.next {
		if s.matches(e.set, clauses) {
			return e.node
		}
	}
	return nil
}

// store caches n as the node of the clause set encoded in set, which
// hashes to h.
func (cc *componentCache) store(h uint64, set []byte, n *Node) {
	cc.m[h] = &entry{set: set, node: n, next: cc.m[h]}
}

// matches reports whether set, in appendClauseSet's encoding, holds the
// same clause multiset as clauses: it decodes set into views in s and
// compares both sides sorted.
func (s *scratch) matches(set []byte, clauses []cnf.Clause) bool {
	views := s.decode(set)
	if len(views) != len(clauses) {
		return false
	}
	s.sorted = append(s.sorted[:0], clauses...)
	slices.SortFunc(views, slices.Compare[cnf.Clause])
	slices.SortFunc(s.sorted, slices.Compare[cnf.Clause])
	return slices.EqualFunc(views, s.sorted, slices.Equal[cnf.Clause])
}

// decode returns the clauses of set, which appendClauseSet wrote, as views
// into s's buffers, valid until the next call.
func (s *scratch) decode(set []byte) []cnf.Clause {
	s.decoded, s.views = s.decoded[:0], s.views[:0]
	start := 0
	for len(set) > 0 {
		if set[0] == 0 {
			s.views = append(s.views, s.decoded[start:len(s.decoded):len(s.decoded)])
			start = len(s.decoded)
			set = set[1:]
			continue
		}
		code, n := binary.Uvarint(set)
		l := cnf.Lit(code >> 1)
		if code&1 != 0 {
			l = -l
		}
		s.decoded = append(s.decoded, l)
		set = set[n:]
	}
	return s.views
}
