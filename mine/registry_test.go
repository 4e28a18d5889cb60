package mine

import (
	"context"
	"strings"
	"testing"
)

// motifGraph builds a small host network with two vertex-disjoint copies
// of a 6-vertex community motif wired into background chatter — enough
// signal for every registered miner to find something at σ=2.
func motifGraph() *Graph {
	b := NewGraphBuilder(32, 64)
	motif := func() V {
		org := b.AddVertex(0)
		var members []V
		for i := 0; i < 5; i++ {
			m := b.AddVertex(1)
			b.AddEdge(org, m)
			members = append(members, m)
		}
		b.AddEdge(members[0], members[1])
		b.AddEdge(members[2], members[3])
		return org
	}
	c1 := motif()
	c2 := motif()
	var bg []V
	for i := 0; i < 12; i++ {
		bg = append(bg, b.AddVertex(Label(2+i%3)))
	}
	for i := 0; i+1 < len(bg); i += 2 {
		b.AddEdge(bg[i], bg[i+1])
	}
	b.AddEdge(c1, bg[0])
	b.AddEdge(c2, bg[1])
	return b.Build()
}

// checkResult asserts the uniform Result schema: a named, non-empty
// pattern list whose every pattern is a connected graph of >= 1 edge with
// >= 1 embedding of matching arity.
func checkResult(t *testing.T, name string, res *Result) {
	t.Helper()
	if res == nil {
		t.Fatalf("%s: nil result", name)
	}
	if res.Miner != name {
		t.Errorf("%s: Result.Miner = %q", name, res.Miner)
	}
	if len(res.Patterns) == 0 {
		t.Fatalf("%s: empty pattern list", name)
	}
	if res.Stats.Elapsed <= 0 {
		t.Errorf("%s: Stats.Elapsed not recorded", name)
	}
	for i, p := range res.Patterns {
		if p == nil || p.G == nil {
			t.Fatalf("%s: pattern %d is nil / has nil graph", name, i)
		}
		if p.NV() < 2 || p.Size() < 1 {
			t.Errorf("%s: pattern %d trivial (%d vertices, %d edges)", name, i, p.NV(), p.Size())
		}
		if !p.G.IsConnected() {
			t.Errorf("%s: pattern %d disconnected", name, i)
		}
		if len(p.Emb) == 0 {
			t.Errorf("%s: pattern %d has no embeddings", name, i)
		}
		for _, e := range p.Emb {
			if len(e) != p.NV() {
				t.Fatalf("%s: pattern %d embedding arity %d != %d vertices", name, i, len(e), p.NV())
			}
		}
	}
}

// TestEveryMinerRunsOnSingleGraph drives every registered miner through
// the uniform interface on the same small host and checks the Result
// schema — the registry's end-to-end contract.
func TestEveryMinerRunsOnSingleGraph(t *testing.T) {
	g := motifGraph()
	names := Names()
	if len(names) < 6 {
		t.Fatalf("registry has %d miners (%v), want the 6 built-ins", len(names), names)
	}
	for _, name := range names {
		m, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("Get(%q).Name() = %q", name, m.Name())
		}
		if m.Describe() == "" {
			t.Errorf("%s: empty description", name)
		}
		res, err := m.Mine(context.Background(), SingleGraph(g), Options{
			MinSupport: 2, K: 5, Dmax: 4, Seed: 1, MaxPatterns: 200,
		})
		if err != nil {
			t.Fatalf("%s: Mine: %v", name, err)
		}
		checkResult(t, name, res)
	}
}

// TestMinersOnTransactionHost drives the transaction setting through the
// façade: the native transaction miners (spidermine, origami) plus one
// union-graph adapter (subdue).
func TestMinersOnTransactionHost(t *testing.T) {
	db, _ := SyntheticTx(SyntheticTxConfig{
		NumGraphs: 6,
		N:         60,
		AvgDeg:    3,
		NumLabels: 12,
		Large:     InjectSpec{NV: 10, Count: 2, Support: 1},
		Seed:      3,
	})
	for _, name := range []string{"spidermine", "origami", "subdue"} {
		m, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Mine(context.Background(), Transactions(db), Options{
			MinSupport: 3, K: 5, Dmax: 6, Seed: 3, MaxPatterns: 100,
		})
		if err != nil {
			t.Fatalf("%s: Mine(tx): %v", name, err)
		}
		checkResult(t, name, res)
	}
}

func TestGetUnknownName(t *testing.T) {
	_, err := Get("no-such-miner")
	if err == nil {
		t.Fatal("Get of unknown name succeeded")
	}
	if !strings.Contains(err.Error(), "no-such-miner") || !strings.Contains(err.Error(), "spidermine") {
		t.Errorf("error %q should name the miss and the registered miners", err)
	}
}

func TestHostValidation(t *testing.T) {
	m, err := Get("spidermine")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mine(context.Background(), Host{}, Options{}); err == nil {
		t.Error("empty host accepted")
	}
	g := motifGraph()
	if _, err := m.Mine(context.Background(), Host{Graph: g, DB: NewDB(g)}, Options{}); err == nil {
		t.Error("ambiguous host accepted")
	}
}

// TestMaxPatternsTruncates: the MaxPatterns budget caps the result and
// records the truncation reason.
func TestMaxPatternsTruncates(t *testing.T) {
	m, _ := Get("moss")
	res, err := m.Mine(context.Background(), SingleGraph(motifGraph()), Options{
		MinSupport: 2, MaxPatterns: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) > 3 {
		t.Fatalf("MaxPatterns=3 returned %d patterns", len(res.Patterns))
	}
	if res.Truncated != TruncatedMaxPatterns {
		t.Errorf("Truncated = %q, want %q", res.Truncated, TruncatedMaxPatterns)
	}
}

// TestMaxSpidersTruncatesBudget: SpiderMine's Stage I cap is a budget, so
// a run whose spider catalog it cut reports TruncatedBudget with a nil
// error, and an uncapped run reports no truncation.
func TestMaxSpidersTruncatesBudget(t *testing.T) {
	m, _ := Get("spidermine")
	for _, tc := range []struct {
		maxSpiders int
		want       Truncation
	}{{0, TruncatedNone}, {1, TruncatedBudget}, {1 << 20, TruncatedNone}} {
		res, err := m.Mine(context.Background(), SingleGraph(motifGraph()), Options{MinSupport: 2, MaxSpiders: tc.maxSpiders})
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated != tc.want {
			t.Errorf("MaxSpiders=%d: Truncated = %q, want %q", tc.maxSpiders, res.Truncated, tc.want)
		}
	}
}
