package spidermine

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/txdb"
)

// fingerprint serializes the full pipeline result — pattern graphs
// (labels + edges), embedding lists, IDs, origins, report order — into one
// byte string. Two runs are "the same result" exactly when their
// fingerprints are byte-identical; this is the contract the parallel
// engine is held to.
func fingerprint(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res.Patterns)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b)
}

// parallelTestCases returns the generator graphs the differential harness
// sweeps — two Table 1 synthetic networks with injected large patterns and
// one scale-free Barabási–Albert graph (the Figure 13 regime, where spider
// counts explode and merge rounds are pair-heavy) — each with a base
// config sized so the whole sweep stays inside a tier-1 test budget (the
// BA graph mines millions of stars uncapped).
func parallelTestCases() []struct {
	name string
	g    *graph.Graph
	cfg  Config
} {
	g1, _ := gen.Synthetic(gen.GIDConfig(1, 42))
	g2, _ := gen.Synthetic(gen.GIDConfig(2, 7))
	ba := gen.BarabasiAlbert(500, 3, 25, rand.New(rand.NewSource(11)))
	return []struct {
		name string
		g    *graph.Graph
		cfg  Config
	}{
		{"gid1", g1, Config{MinSupport: 2, K: 10, Dmax: 4}},
		{"gid2", g2, Config{MinSupport: 2, K: 10, Dmax: 4}},
		{"ba500", ba, Config{MinSupport: 3, K: 10, Dmax: 4, MaxLeavesPerStar: 3, MaxSpiders: 20000}},
	}
}

// TestParallelEqualsSequential is the differential harness for the
// parallel mining engine: for every generator graph and seed, the full
// pipeline result must be bit-identical at every worker count — pattern
// set, sizes, supports, embeddings, and report order all fingerprint the
// same. Run with -race to also make it a race harness over Stages I–III.
func TestParallelEqualsSequential(t *testing.T) {
	workerCounts := []int{1, 2, 4, runtime.NumCPU()}
	cases := parallelTestCases()
	seeds := []int64{1, 7, 13}
	if testing.Short() {
		// Race-detector budget: one graph, two seeds still exercises every
		// parallel stage at every worker count.
		cases = cases[:1]
		seeds = seeds[:2]
	}
	for _, tc := range cases {
		for _, seed := range seeds {
			cfg := tc.cfg
			cfg.Seed = seed
			want := fingerprint(t, Mine(tc.g, cfg))
			for _, w := range workerCounts {
				t.Run(fmt.Sprintf("%s/seed=%d/workers=%d", tc.name, seed, w), func(t *testing.T) {
					cfgW := cfg
					cfgW.Workers = w
					got := fingerprint(t, Mine(tc.g, cfgW))
					if got != want {
						t.Errorf("workers=%d result differs from sequential run\nseq: %.200s...\npar: %.200s...", w, want, got)
					}
				})
			}
		}
	}
}

// TestParallelEqualsSequentialHigherRadius covers the radius-2 seeding
// path (tree-spider materialization with per-worker matchers).
func TestParallelEqualsSequentialHigherRadius(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g, _ := gen.Synthetic(gen.GIDConfig(1, 42))
	cfg := Config{MinSupport: 2, K: 5, Dmax: 4, Seed: 7, Radius: 2, MaxSpiders: 4000}
	want := fingerprint(t, Mine(g, cfg))
	for _, w := range []int{2, 4} {
		cfgW := cfg
		cfgW.Workers = w
		if got := fingerprint(t, Mine(g, cfgW)); got != want {
			t.Errorf("radius-2 workers=%d result differs from sequential run", w)
		}
	}
}

// TestDeterminismRegressionFixedWorkers runs the same Config (same Seed,
// same worker count) three times and asserts byte-identical serialized
// results — the regression net against completion-order or map-iteration
// nondeterminism sneaking back into a parallel stage.
func TestDeterminismRegressionFixedWorkers(t *testing.T) {
	g, _ := gen.Synthetic(gen.GIDConfig(1, 42))
	for _, w := range []int{1, 4, -1} {
		cfg := Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 13, Workers: w}
		want := fingerprint(t, Mine(g, cfg))
		for run := 1; run < 3; run++ {
			if got := fingerprint(t, Mine(g, cfg)); got != want {
				t.Fatalf("workers=%d: run %d differs from run 0", w, run)
			}
		}
	}
}

// TestDeterminismMineTransactions covers the transaction adapter: repeated
// runs at a fixed worker count are byte-identical, and the result matches
// the sequential engine at every worker count.
func TestDeterminismMineTransactions(t *testing.T) {
	db, _ := txdb.SyntheticTx(txdb.SyntheticTxConfig{
		NumGraphs: 8, N: 150, AvgDeg: 4, NumLabels: 50,
		Large: gen.InjectSpec{NV: 16, Count: 2, Support: 1},
		Seed:  21,
	})
	cfg := Config{MinSupport: 6, K: 5, Dmax: 6, Seed: 21}
	want := fingerprint(t, MineTransactions(db, cfg))
	for _, w := range []int{2, 4} {
		cfgW := cfg
		cfgW.Workers = w
		got := fingerprint(t, MineTransactions(db, cfgW))
		if got != want {
			t.Errorf("transaction mining workers=%d differs from sequential", w)
		}
		for run := 0; run < 2; run++ {
			if again := fingerprint(t, MineTransactions(db, cfgW)); again != got {
				t.Fatalf("transaction mining workers=%d nondeterministic across runs", w)
			}
		}
	}
}

// mergeSchedulerFixture is a merge round whose first group in key order
// fails on a shared endpoint. The host has sites 0 and 1, each with edges
// A-B, B-D, B-H, E-F and F-G, plus B-C on site 0 and a lone B-C on site 2.
// The working patterns are single edges (σ=2):
//
//	ws[0] A-B  sites 0,1    ws[3] E-F  sites 0,1
//	ws[1] B-C  sites 0,2    ws[4] F-G  sites 0,1
//	ws[2] B-D  sites 0,1    ws[5] B-H  sites 0,1
//
// Groups in key order: (0,1) fails (its union occurs on site 0 only),
// (0,2) merges, (0,5) merges, (1,2) fails, (1,5) fails, (2,5) merges,
// (3,4) merges. The sequential round evaluates (0,1), (0,2), (1,5) and
// (3,4) and skips the rest. A parallel wave that starts at (0,1) predicts
// that it takes A-B and B-C, so it also evaluates (2,5) and (3,4); after
// (0,1) fails, (0,2) consumes ws[2], so the memoized (2,5) result must be
// discarded, while the memoized (3,4) result is applied later.
func mergeSchedulerFixture() (*graph.Graph, []*pattern.Pattern) {
	const (
		A graph.Label = iota + 1
		B
		C
		D
		H
		E
		F
		G
	)
	b := graph.NewBuilder(20, 16)
	type site struct{ a, b, c, d, h, e, f, g graph.V }
	var sites [2]site
	for s := range sites {
		st := site{a: b.AddVertex(A), b: b.AddVertex(B), d: b.AddVertex(D), h: b.AddVertex(H),
			e: b.AddVertex(E), f: b.AddVertex(F), g: b.AddVertex(G)}
		b.AddEdge(st.a, st.b)
		b.AddEdge(st.b, st.d)
		b.AddEdge(st.b, st.h)
		b.AddEdge(st.e, st.f)
		b.AddEdge(st.f, st.g)
		sites[s] = st
	}
	sites[0].c = b.AddVertex(C)
	b.AddEdge(sites[0].b, sites[0].c)
	b2, c2 := b.AddVertex(B), b.AddVertex(C)
	b.AddEdge(b2, c2)
	edge := func(l1, l2 graph.Label, embs ...pattern.Embedding) *pattern.Pattern {
		return pattern.New(graph.FromEdges([]graph.Label{l1, l2}, []graph.Edge{{U: 0, W: 1}}), embs)
	}
	s0, s1 := sites[0], sites[1]
	return b.Build(), []*pattern.Pattern{
		edge(A, B, pattern.Embedding{s0.a, s0.b}, pattern.Embedding{s1.a, s1.b}),
		edge(B, C, pattern.Embedding{s0.b, s0.c}, pattern.Embedding{b2, c2}),
		edge(B, D, pattern.Embedding{s0.b, s0.d}, pattern.Embedding{s1.b, s1.d}),
		edge(E, F, pattern.Embedding{s0.e, s0.f}, pattern.Embedding{s1.e, s1.f}),
		edge(F, G, pattern.Embedding{s0.f, s0.g}, pattern.Embedding{s1.f, s1.g}),
		edge(B, H, pattern.Embedding{s0.b, s0.h}, pattern.Embedding{s1.b, s1.h}),
	}
}

// TestMergeSchedulerReusesAndDiscards drives one merge round of the
// fixture above at workers 1, 2 and 4: the merged working set must be
// byte-identical, with exactly the sequential merges (A-B+B-D and
// E-F+F-G), and the parallel rounds must have speculated — evaluated the
// (2,5) group the sequential round skips — so the fixture really reaches
// the discard path.
func TestMergeSchedulerReusesAndDiscards(t *testing.T) {
	var want string
	var seqCanon int64
	for _, w := range []int{1, 2, 4} {
		g, ps := mergeSchedulerFixture()
		m := New(g, Config{MinSupport: 2, Dmax: 4, Workers: w})
		ws := make([]*grown, len(ps))
		for i, p := range ps {
			p.ID = m.newID()
			ws[i] = &grown{p: p, radius: 1}
		}
		out, err := m.checkMerges(ws)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(patternsOf(out))
		if err != nil {
			t.Fatal(err)
		}
		if m.stats.Merges != 2 {
			t.Fatalf("workers=%d: %d merges, want 2", w, m.stats.Merges)
		}
		if w == 1 {
			want, seqCanon = string(got), m.stats.CanonRun
			continue
		}
		if string(got) != want {
			t.Errorf("workers=%d merge round differs from the sequential one\nseq: %s\npar: %s", w, want, got)
		}
		if m.stats.CanonRun <= seqCanon {
			t.Errorf("workers=%d: %d merge canonicalisations, sequential %d; the fixture no longer makes a wave speculate", w, m.stats.CanonRun, seqCanon)
		}
	}
}

// TestMergeSpeculationBounded: on a GID-6 host, parallel merge rounds
// evaluate (nearly) only what the sequential round evaluates, so the
// merge canonicalisations in Stats.CanonRun stay within 10% of the
// Workers: 1 run at workers 2 and 4. Waves that took the next `workers`
// groups in key order ran +59% (workers 2) and +148% (workers 4) here,
// because consecutive groups share a pattern and the first one almost
// always merges.
func TestMergeSpeculationBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: a GID-6 host")
	}
	g, _ := gen.Synthetic(gen.GIDConfigLarge(6, 1001))
	cfg := Config{MinSupport: 10, K: 5, Dmax: 8, MaxSpiders: 50000, Seed: 1001}
	seq := Mine(g, cfg)
	want := fingerprint(t, seq)
	for _, w := range []int{2, 4} {
		cfgW := cfg
		cfgW.Workers = w
		res := Mine(g, cfgW)
		if fingerprint(t, res) != want {
			t.Fatalf("workers=%d result differs from sequential run", w)
		}
		if limit := seq.Stats.CanonRun * 11 / 10; res.Stats.CanonRun > limit {
			t.Errorf("workers=%d: CanonRun %d, above %d (sequential %d + 10%%)", w, res.Stats.CanonRun, limit, seq.Stats.CanonRun)
		}
	}
}
