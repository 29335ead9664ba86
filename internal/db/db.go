// Package db defines the relational data model used throughout the
// repository: typed values, tuples, schemas, facts with an
// endogenous/exogenous annotation, and in-memory databases that can persist
// to a directory through a write-ahead log (see Persist and Open).
//
// The model follows Section 2 of the paper: a database is a finite set of
// facts R(a1,...,ak), partitioned into exogenous facts (taken for granted)
// and endogenous facts (those to which Shapley contributions are
// attributed). Every fact carries a database-unique integer ID which doubles
// as its Boolean provenance variable.
package db

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Sentinel errors for client-addressable failure modes, wrapped (errors.Is)
// by every mutation-path error so callers — the HTTP service's status
// mapping, for one — can classify failures without matching message text.
var (
	// ErrUnknownRelation means a relation name is not in the schema.
	ErrUnknownRelation = errors.New("unknown relation")
	// ErrNoFact means a fact ID (or content description) matches nothing.
	ErrNoFact = errors.New("no fact")
	// ErrArity means a value list does not match the relation's schema.
	ErrArity = errors.New("arity mismatch")
	// ErrDegraded means the database is read-only because a storage write
	// failed (full disk, dead file handle): reads and explanations keep
	// working against the consistent in-memory state, but every further
	// mutation is refused so memory never drifts ahead of the durable log.
	ErrDegraded = errors.New("database degraded (read-only after storage failure)")
)

// Kind enumerates the value types supported by the engine.
type Kind uint8

// Supported value kinds.
const (
	KindInt Kind = iota
	KindString
	KindFloat
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindFloat:
		return "float"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a compact tagged union over the supported kinds. The zero Value
// is the integer 0.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// String returns a string value.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Float returns a floating-point value. It stores -0 as 0, so the two
// are one value with one Key, as the log, which writes -0 as 0, needs.
func Float(v float64) Value {
	if v == 0 {
		v = 0 // -0 == 0, so this turns -0 into +0
	}
	return Value{kind: KindFloat, f: v}
}

// Kind reports the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// AsInt returns the integer payload; it is only meaningful for KindInt.
func (v Value) AsInt() int64 { return v.i }

// AsFloat returns the numeric payload as a float64. Integers are widened.
func (v Value) AsFloat() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// AsString returns the string payload; it is only meaningful for KindString.
func (v Value) AsString() string { return v.s }

// Equal reports value equality: Compare(o) == 0. Strings equal only
// strings; an int and a float are equal when they are the same number, so
// Int(3) equals Float(3) and joins, atom constants and filters all match
// it alike.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Compare returns -1, 0, or +1 ordering v relative to o. Numbers compare
// by exact numeric value, an int against a float without rounding the int
// to float64, and sort before strings; strings compare lexicographically.
// A NaN sorts below every other number and equals only a NaN, so Compare
// is a total order on all values.
func (v Value) Compare(o Value) int {
	switch {
	case v.kind == KindString && o.kind == KindString:
		return strings.Compare(v.s, o.s)
	case v.kind == KindString:
		return 1
	case o.kind == KindString:
		return -1
	case v.kind == KindInt && o.kind == KindInt:
		return cmp.Compare(v.i, o.i)
	case v.kind == KindInt:
		return compareIntFloat(v.i, o.f)
	case o.kind == KindInt:
		return -compareIntFloat(o.i, v.f)
	}
	return cmp.Compare(v.f, o.f)
}

// compareIntFloat compares an int with a float exactly. A float in
// [-2^63, 2^63) truncates to an int64 without loss; one outside that range
// lies beyond every int64.
func compareIntFloat(i int64, f float64) int {
	switch {
	case f != f || f < -0x1p63: // NaN sorts below every number
		return 1
	case f >= 0x1p63:
		return -1
	}
	t := math.Trunc(f)
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return cmp.Compare(t, f)
}

// String formats an int in decimal, a float in the shortest form that
// reads back to it (what %g prints), and a string as itself.
func (v Value) String() string {
	if v.kind == KindString {
		return v.s
	}
	var buf [32]byte
	return string(v.appendString(buf[:0]))
}

// appendString appends v's String form to dst.
func (v Value) appendString(dst []byte) []byte {
	switch v.kind {
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.f, 'g', -1, 64)
	default:
		return append(dst, v.s...)
	}
}

// Key returns a string usable as a map key that identifies the value up to
// Equal: two values have the same Key exactly when they are Equal. An int,
// and a float that equals one, key as 'i' and the int's decimal form;
// any other float keys as 'f' and its String form, and a string as 's' and
// its bytes with each 0x00 escaped as 0x00 0xFF, so a key never holds a
// 0x00 that a kind letter follows.
func (v Value) Key() string {
	var buf [32]byte
	return string(v.appendKey(buf[:0]))
}

func (v Value) appendKey(dst []byte) []byte {
	switch {
	case v.kind == KindInt:
		return strconv.AppendInt(append(dst, 'i'), v.i, 10)
	case v.kind == KindFloat && v.f == math.Trunc(v.f) && v.f >= -0x1p63 && v.f < 0x1p63:
		return strconv.AppendInt(append(dst, 'i'), int64(v.f), 10) // Equal to that int
	case v.kind == KindFloat:
		return v.appendString(append(dst, 'f'))
	}
	dst = append(dst, 's')
	s := v.s
	for {
		i := strings.IndexByte(s, 0)
		if i < 0 {
			return append(dst, s...)
		}
		dst = append(dst, s[:i]...)
		dst = append(dst, 0x00, 0xFF)
		s = s[i+1:]
	}
}

// Tuple is an ordered list of values.
type Tuple []Value

// Key returns a canonical map key for the tuple: its values' Keys joined
// by 0x00 bytes. Each separator is followed by a kind letter and every
// 0x00 inside a string by 0xFF, so two tuples share a key exactly when
// they are Equal: the same length and Equal values position by position.
// It is the one key of the repository: answers, sessions and the
// relations' indexes all key tuples by it.
func (t Tuple) Key() string {
	var buf [128]byte
	return string(t.appendKey(buf[:0], nil))
}

// appendKey appends the Key of t's values at pos (every value when pos is
// nil) to dst.
func (t Tuple) appendKey(dst []byte, pos []int) []byte {
	n := len(pos)
	if pos == nil {
		n = len(t)
	}
	for i := range n {
		if i > 0 {
			dst = append(dst, 0)
		}
		if pos != nil {
			dst = t[pos[i]].appendKey(dst)
		} else {
			dst = t[i].appendKey(dst)
		}
	}
	return dst
}

// Equal reports whether two tuples have the same length and pairwise equal
// values.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

func (t Tuple) String() string {
	var buf [128]byte
	b := append(buf[:0], '(')
	for i, v := range t {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = v.appendString(b)
	}
	return string(append(b, ')'))
}

// Schema describes a relation: its name and attribute names.
type Schema struct {
	Name    string
	Columns []string
}

// Arity returns the number of attributes.
func (s Schema) Arity() int { return len(s.Columns) }

// ColumnIndex returns the position of the named column, or -1.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// FactID identifies a fact within a Database and doubles as the fact's
// Boolean provenance variable. IDs are assigned densely from 1.
type FactID int

// Fact is a tuple stored in a named relation, annotated endogenous or
// exogenous.
type Fact struct {
	ID         FactID
	Relation   string
	Tuple      Tuple
	Endogenous bool
}

func (f Fact) String() string {
	tag := "exo"
	if f.Endogenous {
		tag = "endo"
	}
	return fmt.Sprintf("%s%s [#%d %s]", f.Relation, f.Tuple, f.ID, tag)
}

// Database is a relational database — a set of relations whose facts carry
// unique IDs and endogenous/exogenous annotations. It lives in memory; a
// database given a directory (Persist, Open) also logs every mutation
// there before applying it.
type Database struct {
	id        uint64
	relations map[string]*Relation
	order     []string // relation names in insertion order
	facts     map[FactID]*Fact
	nextID    FactID
	epoch     uint64
	// feed holds the latest mutations, oldest first: feed[i] moved the
	// epoch from feedBase+i to feedBase+i+1.
	feed     []Change
	feedBase uint64
	// log is the write-ahead log of a persistent database (nil in memory).
	log *walLog
	// degraded is the sticky first storage failure. Once set, the database
	// is read-only: the in-memory state is still consistent (a mutation the
	// log refused was never applied), but accepting more writes would let
	// memory diverge from what a restart recovers.
	degraded error
}

// dbCounter mints process-unique database identities.
var dbCounter atomic.Uint64

// New returns an empty in-memory database.
func New() *Database {
	return &Database{
		id:        dbCounter.Add(1),
		relations: make(map[string]*Relation),
		facts:     make(map[FactID]*Fact),
		nextID:    1,
	}
}

// Err returns the sticky storage failure that put the database in
// read-only (degraded) mode, or nil while it is healthy. Degraded
// databases still serve reads and explanations; mutations return this
// error (wrapping ErrDegraded) until the process restarts and recovers.
func (d *Database) Err() error {
	if d.degraded == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrDegraded, d.degraded)
}

// degrade records the first storage failure; later failures keep the
// original cause.
func (d *Database) degrade(err error) {
	if d.degraded == nil {
		d.degraded = err
	}
}

// ID returns a process-unique identity for the database. Fact IDs are only
// unique within one database, so anything keying global state by fact ID —
// the value cache's fact-set invalidation, for one — scopes it by this
// identity to keep unrelated databases with colliding fact IDs apart.
func (d *Database) ID() uint64 { return d.id }

// CreateRelation registers a new relation with the given schema. It panics
// if the relation already exists: schema setup errors are programming
// errors, not runtime conditions. A storage failure (a persistent database
// unable to log the schema) does not register the relation and degrades
// the database; check Err when creating relations on a persistent
// database at runtime.
func (d *Database) CreateRelation(name string, columns ...string) {
	if _, ok := d.relations[name]; ok {
		panic(fmt.Sprintf("db: relation %q already exists", name))
	}
	if d.degraded != nil {
		return
	}
	if d.log != nil {
		if err := d.log.append(logRecord{Op: "R", Rel: name, Cols: columns}); err != nil {
			d.degrade(err)
			return
		}
	}
	d.relations[name] = &Relation{Schema: Schema{Name: name, Columns: columns}}
	d.order = append(d.order, name)
}

// Relation returns the named relation, or nil if absent.
func (d *Database) Relation(name string) *Relation { return d.relations[name] }

// RelationNames returns the relation names in creation order.
func (d *Database) RelationNames() []string {
	out := make([]string, len(d.order))
	copy(out, d.order)
	return out
}

// Insert adds a fact to the named relation and returns it. Endogenous facts
// participate in Shapley attribution; exogenous facts are taken as given.
// A NaN or infinite float value is rejected before anything is logged or
// applied, leaving the database healthy.
func (d *Database) Insert(relation string, endogenous bool, values ...Value) (*Fact, error) {
	if d.degraded != nil {
		return nil, d.Err()
	}
	rel, ok := d.relations[relation]
	if !ok {
		return nil, fmt.Errorf("db: %w %q", ErrUnknownRelation, relation)
	}
	if len(values) != rel.Schema.Arity() {
		return nil, fmt.Errorf("db: relation %q has arity %d, got %d values: %w",
			relation, rel.Schema.Arity(), len(values), ErrArity)
	}
	for i, v := range values {
		// NaN compares equal to every number and the WAL's JSON cannot
		// encode either NaN or ±Inf, so neither enters the database.
		if v.kind == KindFloat && (math.IsNaN(v.f) || math.IsInf(v.f, 0)) {
			return nil, fmt.Errorf("db: relation %q column %q: %v is not a finite number", relation, rel.Schema.Columns[i], v.f)
		}
	}
	f := &Fact{
		ID:         d.nextID,
		Relation:   relation,
		Tuple:      Tuple(values),
		Endogenous: endogenous,
	}
	d.nextID++
	if d.log != nil {
		if err := d.log.append(insertRecord(f)); err != nil {
			// Nothing was applied; nextID stays monotone (a burned ID is
			// cheaper than risking aliasing) and the database goes
			// read-only so memory can't outrun the durable log.
			d.degrade(err)
			return nil, d.Err()
		}
	}
	rel.insert(f)
	d.facts[f.ID] = f
	d.record(f, false)
	d.maybeCompact()
	return f, nil
}

// Delete removes the fact with the given ID. Fact IDs are never reused:
// nextID is monotone, so a deleted ID stays free forever and provenance
// variables of past explanations can never alias a later fact.
func (d *Database) Delete(id FactID) error {
	if d.degraded != nil {
		return d.Err()
	}
	f, ok := d.facts[id]
	if !ok {
		return fmt.Errorf("db: %w with ID %d", ErrNoFact, id)
	}
	if d.log != nil {
		if err := d.log.append(logRecord{Op: "D", ID: id}); err != nil {
			d.degrade(err)
			return d.Err()
		}
	}
	rel := d.relations[f.Relation]
	rel.delete(f)
	delete(d.facts, id)
	d.record(f, true)
	d.maybeCompact()
	return nil
}

// Epoch returns the database's mutation counter: the total number of
// inserts and deletes applied so far. A cache recording the epoch it was
// built at can cheap-check staleness by comparing against the current value;
// the counter never decreases.
func (d *Database) Epoch() uint64 { return d.epoch }

// Change is one entry of the database's mutation feed: the fact an insert
// added, or the fact a delete removed.
type Change struct {
	Fact    *Fact
	Deleted bool
}

// feedCap is how far back the mutation feed is sure to reach: it holds
// between feedCap and 2*feedCap of the latest mutations. A session lagging
// further re-grounds instead of replaying. A pooled session falls behind by
// the writes made between two of its explains, a handful in a mixed
// workload, so 128 covers it many times over; each entry pins its fact,
// deleted ones included, so the bound also caps what the feed keeps alive
// at 256 facts.
const feedCap = 128

// record counts one applied mutation: it bumps the epoch and appends the
// mutation to the feed, first dropping the oldest feedCap entries when the
// feed is full.
func (d *Database) record(f *Fact, deleted bool) {
	if len(d.feed) == 2*feedCap {
		d.feed = d.feed[:copy(d.feed, d.feed[feedCap:])]
		d.feedBase += feedCap
	}
	d.feed = append(d.feed, Change{Fact: f, Deleted: deleted})
	d.epoch++
}

// ChangesSince returns the mutations applied since the database was at
// epoch, oldest first, and true. It returns false when the feed no longer
// reaches back to epoch (or epoch lies ahead of the database). The slice
// aliases the feed: it is valid until the next mutation.
func (d *Database) ChangesSince(epoch uint64) ([]Change, bool) {
	if epoch < d.feedBase || epoch > d.epoch {
		return nil, false
	}
	return d.feed[epoch-d.feedBase:], true
}

// MustInsert is Insert that panics on error; it is intended for statically
// known test fixtures and generators.
func (d *Database) MustInsert(relation string, endogenous bool, values ...Value) *Fact {
	f, err := d.Insert(relation, endogenous, values...)
	if err != nil {
		panic(err)
	}
	return f
}

// Fact returns the fact with the given ID, or nil.
func (d *Database) Fact(id FactID) *Fact { return d.facts[id] }

// NumFacts returns the total number of facts.
func (d *Database) NumFacts() int { return len(d.facts) }

// EndogenousFacts returns all endogenous facts ordered by ID.
func (d *Database) EndogenousFacts() []*Fact {
	var out []*Fact
	for _, name := range d.order {
		for f := range d.relations[name].Scan() {
			if f.Endogenous {
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ExogenousFacts returns all exogenous facts ordered by ID.
func (d *Database) ExogenousFacts() []*Fact {
	var out []*Fact
	for _, name := range d.order {
		for f := range d.relations[name].Scan() {
			if !f.Endogenous {
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NumEndogenous returns the number of endogenous facts.
func (d *Database) NumEndogenous() int {
	n := 0
	for _, f := range d.facts {
		if f.Endogenous {
			n++
		}
	}
	return n
}

// Restrict returns a shallow copy of the database containing only facts for
// which keep returns true. Fact IDs are preserved, so provenance variables
// remain comparable across restrictions. This is the sub-database operation
// q(Dx ∪ E) at the heart of the Shapley definition. Restrictions always
// live in memory, even of a persistent database: they are short-lived
// evaluation views sharing the source's fact pointers.
func (d *Database) Restrict(keep func(*Fact) bool) *Database {
	out := New()
	out.nextID = d.nextID
	for _, name := range d.order {
		rel := d.relations[name]
		out.CreateRelation(name, rel.Schema.Columns...)
		sub := out.relations[name]
		for _, f := range rel.facts {
			if keep(f) {
				sub.insert(f)
				out.facts[f.ID] = f
			}
		}
	}
	return out
}

// WithEndogenousSubset returns the sub-database Dx ∪ E where E is the given
// set of endogenous fact IDs. All exogenous facts are retained.
func (d *Database) WithEndogenousSubset(e map[FactID]bool) *Database {
	return d.Restrict(func(f *Fact) bool {
		return !f.Endogenous || e[f.ID]
	})
}
