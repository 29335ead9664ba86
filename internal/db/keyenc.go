package db

import (
	"encoding/binary"
	"math"
)

// Key is a typed composite lookup key: a kind-tagged, sort-preserving binary
// encoding of one or more values, stored as an immutable string so it can
// index Go maps directly. Two Keys are byte-equal exactly when the encoded
// value sequences are equal under Value.Key identity (ints, floats, and
// strings are distinct kind classes, matching the equality the join index
// has always used), and byte order agrees with Value ordering within each
// kind class.
//
// Keys replace the fmt.Sprintf-flavored string concatenation
// (Value.Key/Tuple.Key) on the join hot path: encoding appends raw bytes
// into a caller-reused buffer, so building a key costs zero allocations
// beyond the final string materialization.
type Key string

// Key encoding tags. Kind classes are disjoint byte ranges so no escaping
// is needed between adjacent values of different kinds; within a value,
// string payloads are terminated with an escape-free sentinel.
const (
	keyTagInt    byte = 0x01
	keyTagFloat  byte = 0x02
	keyTagString byte = 0x03
)

// AppendValueKey appends the sort-preserving encoding of v to buf and
// returns the extended buffer. It never allocates beyond buf's growth.
func AppendValueKey(buf []byte, v Value) []byte {
	switch v.kind {
	case KindInt:
		buf = append(buf, keyTagInt)
		var b [8]byte
		// Flipping the sign bit maps int64 order onto unsigned byte order.
		binary.BigEndian.PutUint64(b[:], uint64(v.i)^(1<<63))
		return append(buf, b[:]...)
	case KindFloat:
		buf = append(buf, keyTagFloat)
		bits := math.Float64bits(v.f)
		// Standard IEEE-754 order-preserving transform: negative floats
		// flip entirely (reversing their order), non-negative floats flip
		// only the sign bit (placing them above all negatives).
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits ^= 1 << 63
		}
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], bits)
		return append(buf, b[:]...)
	default:
		buf = append(buf, keyTagString)
		// Escape 0x00 as 0x00 0xFF so the 0x00 0x00 terminator cannot occur
		// inside a payload; escaped bytes still sort below any continuation.
		for i := 0; i < len(v.s); i++ {
			c := v.s[i]
			if c == 0x00 {
				buf = append(buf, 0x00, 0xFF)
			} else {
				buf = append(buf, c)
			}
		}
		return append(buf, 0x00, 0x00)
	}
}

// AppendTupleKey appends the encodings of t's values at the given positions
// (all positions when pos is nil) to buf.
func AppendTupleKey(buf []byte, t Tuple, pos []int) []byte {
	if pos == nil {
		for _, v := range t {
			buf = AppendValueKey(buf, v)
		}
		return buf
	}
	for _, p := range pos {
		buf = AppendValueKey(buf, t[p])
	}
	return buf
}

// TupleKey encodes t's values at the given positions (all when pos is nil)
// as a Key.
func TupleKey(t Tuple, pos []int) Key {
	return Key(AppendTupleKey(nil, t, pos))
}
