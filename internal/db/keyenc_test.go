package db

import (
	"math"
	"testing"
)

// TestValueKeyOrderPreserving checks that byte order of encodings matches
// value order within each kind class.
func TestValueKeyOrderPreserving(t *testing.T) {
	ints := []int64{math.MinInt64, -1 << 40, -7, -1, 0, 1, 42, 1 << 40, math.MaxInt64}
	for i := 1; i < len(ints); i++ {
		a := string(AppendValueKey(nil, Int(ints[i-1])))
		b := string(AppendValueKey(nil, Int(ints[i])))
		if !(a < b) {
			t.Errorf("key(%d) >= key(%d)", ints[i-1], ints[i])
		}
	}
	floats := []float64{math.Inf(-1), -1e300, -3.5, -0.0001, 0, 0.0001, 1, 2.5, 1e300, math.Inf(1)}
	for i := 1; i < len(floats); i++ {
		a := string(AppendValueKey(nil, Float(floats[i-1])))
		b := string(AppendValueKey(nil, Float(floats[i])))
		if !(a < b) {
			t.Errorf("key(%g) >= key(%g)", floats[i-1], floats[i])
		}
	}
	strs := []string{"", "a", "a\x00", "a\x00b", "ab", "abc", "b"}
	for i := 1; i < len(strs); i++ {
		a := string(AppendValueKey(nil, String(strs[i-1])))
		b := string(AppendValueKey(nil, String(strs[i])))
		if !(a < b) {
			t.Errorf("key(%q) >= key(%q)", strs[i-1], strs[i])
		}
	}
}

// TestTupleKeyPrefixSafety checks that the encoding is self-delimiting: the
// key of a value sequence is a byte prefix of a composite key exactly when
// the sequence is a value-level prefix. Without this, equality lookups via
// prefix range scans would return false matches.
func TestTupleKeyPrefixSafety(t *testing.T) {
	full := TupleKey(Tuple{String("ab"), Int(7)}, nil)
	if got := TupleKey(Tuple{String("ab")}, nil); len(got) >= len(full) || full[:len(got)] != got {
		t.Errorf("value prefix is not a byte prefix: %q vs %q", got, full)
	}
	// "ab" must not prefix-match a fact with first value "abc" or "ab\x00x".
	for _, other := range []Tuple{{String("abc"), Int(7)}, {String("ab\x00x"), Int(7)}} {
		ok := TupleKey(Tuple{String("ab")}, nil)
		enc := TupleKey(other, nil)
		if len(enc) >= len(ok) && enc[:len(ok)] == ok {
			t.Errorf("key(%v) falsely prefixed by key(ab)", other)
		}
	}
}

// TestTupleKeyEqualitySemantics: keys agree exactly with the Value.Key
// identity the legacy join index used (ints, floats, strings disjoint).
func TestTupleKeyEqualitySemantics(t *testing.T) {
	if TupleKey(Tuple{Int(5)}, nil) == TupleKey(Tuple{Float(5)}, nil) {
		t.Error("int and float keys collide; legacy join identity kept them distinct")
	}
	if TupleKey(Tuple{Int(5), String("x")}, nil) != TupleKey(Tuple{Int(5), String("x")}, nil) {
		t.Error("equal tuples produced different keys")
	}
	// Position subsets select the right values.
	tu := Tuple{Int(1), String("mid"), Int(3)}
	if TupleKey(tu, []int{0, 2}) != TupleKey(Tuple{Int(1), Int(3)}, nil) {
		t.Error("position-subset key mismatch")
	}
}
