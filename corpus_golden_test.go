package repro

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/imdb"
	"repro/internal/tpch"
)

// corpusGoldenPath pins TestCorpusValuesGolden's output: one line per
// query, followed by one per answer.
const corpusGoldenPath = "testdata/corpus_values_golden.txt"

// corpusWideQuery projects lineitem onto its last column: a few answers
// whose lineages each hold more than 64 facts, so the golden pins Algorithm
// 1's big-integer arithmetic as well as its word-sized one.
const corpusWideQuery = `q(g) :- lineitem(o, p, s, l, a, b, c, e, f, g)`

// valuesDigest is the SHA-256 of an explanation's exact values, one
// "relation(tuple)=rational" line per fact, sorted, so it names facts by
// their content.
func valuesDigest(d *Database, e TupleExplanation) string {
	lines := make([]string, 0, len(e.Values))
	for id, v := range e.Values {
		f := d.Fact(id)
		lines = append(lines, fmt.Sprintf("%s%s=%s", f.Relation, f.Tuple, v.RatString()))
	}
	slices.Sort(lines)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(lines, "\n"))))
}

// corpusGoldenLines explains every TPC-H query at scale 1, every IMDB
// query at scale 0.25 and corpusWideQuery serially, with no cache and no
// timeout, and renders each query's answer count and each answer's tuple,
// lineage size and values digest.
func corpusGoldenLines(t *testing.T) []string {
	t.Helper()
	type corpusQuery struct {
		name string
		d    *Database
		q    *Query
	}
	tp := tpch.Generate(tpch.DefaultConfig().Scaled(1))
	im := imdb.Generate(imdb.DefaultConfig().Scaled(0.25))
	var queries []corpusQuery
	for _, bq := range tpch.Queries() {
		queries = append(queries, corpusQuery{"tpch/" + bq.Name, tp, bq.Q})
	}
	for _, bq := range imdb.Queries() {
		queries = append(queries, corpusQuery{"imdb/" + bq.Name, im, bq.Q})
	}
	wide, err := ParseQuery(corpusWideQuery)
	if err != nil {
		t.Fatal(err)
	}
	queries = append(queries, corpusQuery{"tpch/wide", tp, wide})

	var lines []string
	widest := 0
	for _, cq := range queries {
		es, err := Explain(context.Background(), cq.d, cq.q, Options{Workers: 1, CacheSize: -1})
		if err != nil {
			t.Fatalf("%s: %v", cq.name, err)
		}
		lines = append(lines, fmt.Sprintf("%s answers=%d", cq.name, len(es)))
		for _, e := range es {
			if e.Method != MethodExact {
				t.Fatalf("%s %s: method %v, want exact", cq.name, e.Tuple, e.Method)
			}
			widest = max(widest, e.NumFacts)
			lines = append(lines, fmt.Sprintf("%s %s facts=%d values=%s", cq.name, e.Tuple, e.NumFacts, valuesDigest(cq.d, e)))
		}
	}
	if widest <= 64 {
		t.Fatalf("widest lineage has %d facts; the golden must pin one over 64", widest)
	}
	return lines
}

// TestCorpusValuesGolden pins the exact Shapley values of the TPC-H and
// IMDB corpus: every query's answer count, and every answer's tuple,
// lineage size and digest of its big.Rat values, from a serial,
// cache-free Explain, must match testdata/corpus_values_golden.txt. The
// other value oracles compare two paths of the pipeline; this one is
// absolute, so a change to the cold serial path cannot move its own
// reference.
func TestCorpusValuesGolden(t *testing.T) {
	raw, err := os.ReadFile(corpusGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	got := corpusGoldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d answers, %s has %d lines", len(got), corpusGoldenPath, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s line %d:\n got: %s\nwant: %s", corpusGoldenPath, i+1, got[i], want[i])
		}
	}
}
