package canon

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// twinHeavy returns a random connected core with pendant leaves of few
// labels hung off it: the hub shapes of scale-free merge unions, where
// many equal-label leaves share a neighbor.
func twinHeavy(core, leaves, labels int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(core+leaves, core+leaves)
	for i := 0; i < core; i++ {
		v := b.AddVertex(graph.Label(rng.Intn(labels)))
		if i > 0 {
			b.AddEdge(v, graph.V(rng.Intn(i)))
		}
	}
	for i := 0; i < leaves; i++ {
		b.AddEdge(graph.V(rng.Intn(core)), b.AddVertex(graph.Label(rng.Intn(labels))))
	}
	return b.Build()
}

// countAutomorphisms is the brute-force reference: every label- and
// adjacency-preserving permutation of g. Only usable for tiny n.
func countAutomorphisms(g *graph.Graph) int {
	n := g.N()
	img := make([]graph.V, n)
	used := make([]bool, n)
	var rec func(i int) int
	rec = func(i int) int {
		if i == n {
			return 1
		}
		total := 0
		for w := 0; w < n; w++ {
			if used[w] || g.Label(graph.V(i)) != g.Label(graph.V(w)) {
				continue
			}
			ok := true
			for j := 0; j < i && ok; j++ {
				ok = g.HasEdge(graph.V(i), graph.V(j)) == g.HasEdge(graph.V(w), img[j])
			}
			if !ok {
				continue
			}
			img[i], used[w] = graph.V(w), true
			total += rec(i + 1)
			used[w] = false
		}
		return total
	}
	return rec(0)
}

// isIsomorphism reports whether m (m[av] = bv) is a label- and
// adjacency-preserving bijection from a onto b.
func isIsomorphism(a, b *graph.Graph, m Mapping) bool {
	if a.N() != b.N() || a.M() != b.M() || len(m) != a.N() {
		return false
	}
	hit := make([]bool, b.N())
	for av, bv := range m {
		if bv < 0 || int(bv) >= b.N() || hit[bv] || a.Label(graph.V(av)) != b.Label(bv) {
			return false
		}
		hit[bv] = true
	}
	for _, e := range a.Edges() {
		if !b.HasEdge(m[e.U], m[e.W]) {
			return false
		}
	}
	return true
}

// labeling runs AppendLabeling and copies out its scratch-backed perm.
func labeling(t *testing.T, cz *Canonizer, g *graph.Graph) (string, []graph.V, bool) {
	t.Helper()
	code, perm, rigid := cz.AppendLabeling(nil, g)
	if want := cz.Code(g); string(code) != want {
		t.Fatalf("%v: AppendLabeling code differs from Code", g)
	}
	sorted := slices.Sorted(slices.Values(perm))
	for i, v := range sorted {
		if v != graph.V(i) {
			t.Fatalf("%v: perm %v is not a permutation of its vertices", g, perm)
		}
	}
	return string(code), slices.Clone(perm), rigid
}

// TestAppendLabelingDifferential is the merge-identity oracle: over random,
// pendant-twin-heavy and symmetric graph pairs, equal codes ⇔ Isomorphic,
// composing two equal-code labellings (pa[p] -> pb[p]) is an isomorphism,
// and on a rigid graph that composition is exactly Iso.MapInto's mapping
// — the property that lets merge skip MapInto for rigid unions. A rigid
// graph must also have no nontrivial automorphism.
func TestAppendLabelingDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	trials := 600
	if testing.Short() {
		trials = 120
	}
	symmetric := []*graph.Graph{
		star(6, 0, 0), star(5, 1, 2), spiderLegs(4, 2, 0), cycle(6, 0),
		completeBipartite(2, 3, 0), path(1, 2, 1), path(1, 2, 3),
	}
	cz := NewCanonizer()
	var iso Iso
	rigidPairs := 0
	for trial := 0; trial < trials; trial++ {
		var a *graph.Graph
		switch trial % 4 {
		case 0, 1:
			n := 2 + rng.Intn(6)
			a = randomGraph(n, 1+rng.Intn(2*n), 1+rng.Intn(3), rng)
		case 2:
			a = twinHeavy(1+rng.Intn(3), 1+rng.Intn(5), 1+rng.Intn(3), rng)
		default:
			a = symmetric[rng.Intn(len(symmetric))]
		}
		var b *graph.Graph
		switch rng.Intn(3) {
		case 0:
			b = permute(a, rng)
		case 1:
			b = relabel(a, rng)
		default:
			b = twinHeavy(1+rng.Intn(3), a.N()-1, 1+rng.Intn(3), rng)
		}
		ca, pa, rigidA := labeling(t, cz, a)
		cb, pb, _ := labeling(t, cz, b)
		if eq := ca == cb; eq != Isomorphic(a, b) || eq != bruteIso(a, b) {
			t.Fatalf("trial %d: code==%v, Isomorphic==%v, brute==%v\na=%v %v\nb=%v %v",
				trial, eq, Isomorphic(a, b), bruteIso(a, b), a, a.Edges(), b, b.Edges())
		}
		if rigidA && a.N() <= 8 {
			if n := countAutomorphisms(a); n != 1 {
				t.Fatalf("trial %d: rigid graph has %d automorphisms: %v %v", trial, n, a, a.Edges())
			}
		}
		if ca != cb {
			continue
		}
		composed := make(Mapping, a.N())
		for p, v := range pa {
			composed[v] = pb[p]
		}
		if !isIsomorphism(a, b, composed) {
			t.Fatalf("trial %d: composed labelling is not an isomorphism: %v %v", trial, a, a.Edges())
		}
		if rigidA {
			rigidPairs++
			if m := iso.MapInto(a, b); !slices.Equal(m, composed) {
				t.Fatalf("trial %d: rigid pair: MapInto %v, composed labelling %v", trial, m, composed)
			}
		}
	}
	if rigidPairs == 0 {
		t.Fatal("no rigid isomorphic pair exercised")
	}
}

// TestAppendLabelingRigid pins the rigid flag on known shapes: two
// equal-label leaves on one hub swap, so the star is not rigid; a path
// with three distinct labels refines to singletons at once.
func TestAppendLabelingRigid(t *testing.T) {
	cz := NewCanonizer()
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		rigid bool
	}{
		{"star with two equal leaves", star(2, 1, 2), false},
		{"labeled star, equal leaves", graph.FromEdges([]graph.Label{1, 2, 3, 3}, []graph.Edge{{U: 0, W: 1}, {U: 0, W: 2}, {U: 0, W: 3}}), false},
		{"cycle", cycle(5, 0), false},
		{"distinct-label path", path(1, 2, 3), true},
		{"asymmetric tree", graph.FromEdges(make([]graph.Label, 7), []graph.Edge{
			{U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 3}, {U: 3, W: 4}, {U: 4, W: 5}, {U: 2, W: 6},
		}), true},
	} {
		if _, _, rigid := labeling(t, cz, tc.g); rigid != tc.rigid {
			t.Errorf("%s: rigid = %v, want %v", tc.name, rigid, tc.rigid)
		}
	}
}

// TestAppendLabelingWarmNoAlloc extends the Canonizer's allocation-free
// contract to AppendLabeling.
func TestAppendLabelingWarmNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	graphs := []*graph.Graph{
		randomGraph(20, 40, 4, rng),
		twinHeavy(6, 40, 3, rng),
		star(64, 0, 0),
		path(1, 2, 3),
	}
	cz := NewCanonizer()
	var buf []byte
	for _, g := range graphs {
		buf, _, _ = cz.AppendLabeling(buf[:0], g)
	}
	for i, g := range graphs {
		allocs := testing.AllocsPerRun(20, func() {
			buf, _, _ = cz.AppendLabeling(buf[:0], g)
		})
		if allocs != 0 {
			t.Fatalf("graph %d (%v): warm AppendLabeling allocates %.1f/op", i, g, allocs)
		}
	}
}

// TestPendantTwinsLinearSearch: pendant twins are interchangeable before
// the search starts, so a hub with k equal-label leaves costs O(k) search
// nodes, not the O(k^2) of rediscovering each swap at a leaf.
func TestPendantTwinsLinearSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	cz := NewCanonizer()
	for _, legs := range []int{8, 32, 128} {
		for _, g := range []*graph.Graph{star(legs, 0, 0), star(legs, 1, 2)} {
			cz.Nodes = 0
			code := cz.Code(g)
			if cz.Nodes > int64(2*legs+2) {
				t.Fatalf("legs=%d: %d search nodes, want O(legs)", legs, cz.Nodes)
			}
			if cz.Code(permute(g, rng)) != code {
				t.Fatalf("legs=%d: permuted star changed code", legs)
			}
		}
	}
}
