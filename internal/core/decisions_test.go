package core

import (
	"context"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dnnf"
	"repro/internal/engine"
	"repro/internal/imdb"
	"repro/internal/query"
)

// decisions11dCeiling is TestIMDB11dDecisions' ceiling: the 669 decisions
// measured when it was set, plus 5%.
const decisions11dCeiling = 702

// TestIMDB11dDecisions gates the compiler's search on the slowest query of
// the exact library workload: IMDB 11d at scale 0.5, grounded as a session
// grounds it, each of its six answers' Tseytin CNFs compiled with the
// component cache on. The total Stats.Decisions is deterministic, so a
// branching change that makes the search decide more again (on Tseytin
// auxiliaries, say) trips the ceiling.
func TestIMDB11dDecisions(t *testing.T) {
	ctx := context.Background()
	d := imdb.Generate(imdb.DefaultConfig().Scaled(0.5))
	var q *query.UCQ
	for _, bq := range imdb.Queries() {
		if bq.Name == "11d" {
			q = bq.Q
		}
	}
	if q == nil {
		t.Fatal("IMDB suite has no query 11d")
	}
	inc, err := engine.NewIncremental(ctx, d, q, circuit.NewBuilder(), engine.Options{Mode: engine.ModeEndogenous})
	if err != nil {
		t.Fatal(err)
	}
	live := inc.Live()
	if len(live) != 6 {
		t.Fatalf("11d has %d answers at scale 0.5, want 6", len(live))
	}
	decisions := 0
	for _, a := range live {
		_, st, err := dnnf.Compile(ctx, TseytinStage(a.Lineage, endoOf(a.Lineage)), dnnf.Options{})
		if err != nil {
			t.Fatal(err)
		}
		decisions += st.Decisions
	}
	t.Logf("%d decisions", decisions)
	if decisions > decisions11dCeiling {
		t.Errorf("11d's answers compile with %d decisions, over the ceiling of %d", decisions, decisions11dCeiling)
	}
}
