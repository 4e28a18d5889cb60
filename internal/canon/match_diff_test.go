package canon

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
)

// randomConnectedPattern builds a random connected pattern: a random
// spanning tree over nv vertices plus extra random edges.
func randomConnectedPattern(nv, extra, labels int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(nv, nv-1+extra)
	for i := 0; i < nv; i++ {
		b.AddVertex(graph.Label(rng.Intn(labels)))
	}
	for v := 1; v < nv; v++ {
		b.AddEdge(graph.V(v), graph.V(rng.Intn(v)))
	}
	for i := 0; i < extra; i++ {
		b.AddEdge(graph.V(rng.Intn(nv)), graph.V(rng.Intn(nv)))
	}
	return b.Build()
}

// imageSet collects the distinct-image embedding keys reported by enum.
func imageSet(t *testing.T, p, g *graph.Graph, opt MatchOptions,
	enum func(p, g *graph.Graph, opt MatchOptions, fn func(Mapping) bool) int) (map[string]int, int) {
	t.Helper()
	set := make(map[string]int)
	n := enum(p, g, opt, func(m Mapping) bool {
		set[ImageKey(p, m)]++
		return true
	})
	return set, n
}

// matcherEnum adapts a fresh Matcher to the package-level enumerate
// signature (cloning so the test may retain mappings).
func matcherEnum(p, g *graph.Graph, opt MatchOptions, fn func(Mapping) bool) int {
	var mt Matcher
	return mt.Enumerate(p, g, opt, func(m Mapping) bool { return fn(m.Clone()) })
}

// TestMatcherDifferential runs the indexed matcher and the retained naive
// reference matcher on ~100 random (pattern, host) pairs and asserts they
// produce exactly the same distinct-image embedding sets and counts.
func TestMatcherDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		host := randomGraph(10+rng.Intn(60), 15+rng.Intn(120), 1+rng.Intn(5), rng)
		pat := randomConnectedPattern(2+rng.Intn(4), rng.Intn(3), 1+rng.Intn(5), rng)
		opt := MatchOptions{Anchor: -1, DistinctImages: true}

		got, gotN := imageSet(t, pat, host, opt, matcherEnum)
		want, wantN := imageSet(t, pat, host, opt, EnumerateEmbeddingsReference)
		if gotN != wantN {
			t.Fatalf("trial %d: indexed matcher found %d distinct images, reference found %d (pat=%v host=%v)",
				trial, gotN, wantN, pat, host)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: image set sizes differ: %d vs %d", trial, len(got), len(want))
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Fatalf("trial %d: reference image missing from indexed matcher's results", trial)
			}
		}
	}
}

// TestMatcherDifferentialAnchored compares anchored enumeration at every
// host vertex carrying the pattern root's label.
func TestMatcherDifferentialAnchored(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		host := randomGraph(8+rng.Intn(30), 12+rng.Intn(60), 1+rng.Intn(3), rng)
		pat := randomConnectedPattern(2+rng.Intn(3), rng.Intn(2), 1+rng.Intn(3), rng)
		rootLabel := pat.Label(0)
		for _, anchor := range host.VerticesWithLabel(rootLabel) {
			opt := MatchOptions{Anchor: anchor, DistinctImages: true}
			got, gotN := imageSet(t, pat, host, opt, matcherEnum)
			want, wantN := imageSet(t, pat, host, opt, EnumerateEmbeddingsReference)
			if gotN != wantN || len(got) != len(want) {
				t.Fatalf("trial %d anchor %d: %d/%d images vs reference %d/%d",
					trial, anchor, gotN, len(got), wantN, len(want))
			}
			for k := range want {
				if _, ok := got[k]; !ok {
					t.Fatalf("trial %d anchor %d: image sets differ", trial, anchor)
				}
			}
		}
	}
}

// TestMatcherRawCountsMatch compares total (non-deduped) mapping counts:
// the searches explore different orders but must find the same number of
// injective label- and edge-preserving mappings.
func TestMatcherRawCountsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		host := randomGraph(8+rng.Intn(25), 12+rng.Intn(50), 1+rng.Intn(4), rng)
		pat := randomConnectedPattern(2+rng.Intn(4), rng.Intn(2), 1+rng.Intn(4), rng)
		opt := MatchOptions{Anchor: -1}
		var mt Matcher
		got := mt.Enumerate(pat, host, opt, func(Mapping) bool { return true })
		want := EnumerateEmbeddingsReference(pat, host, opt, func(Mapping) bool { return true })
		if got != want {
			t.Fatalf("trial %d: raw mapping counts differ: indexed %d vs reference %d (pat=%v host=%v)",
				trial, got, want, pat, host)
		}
	}
}

// TestMatcherMappingsValid property-checks every mapping the indexed
// matcher emits: labels preserved, pattern edges mapped to host edges,
// injective.
func TestMatcherMappingsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		host := randomGraph(10+rng.Intn(40), 15+rng.Intn(80), 1+rng.Intn(4), rng)
		pat := randomConnectedPattern(2+rng.Intn(4), rng.Intn(3), 1+rng.Intn(4), rng)
		var mt Matcher
		mt.Enumerate(pat, host, MatchOptions{Anchor: -1, DistinctImages: true}, func(m Mapping) bool {
			used := make(map[graph.V]bool)
			for pv, hv := range m {
				if used[hv] {
					t.Fatalf("trial %d: non-injective mapping %v", trial, m)
				}
				used[hv] = true
				if pat.Label(graph.V(pv)) != host.Label(hv) {
					t.Fatalf("trial %d: label mismatch at %d: %v", trial, pv, m)
				}
			}
			for _, e := range pat.Edges() {
				if !host.HasEdge(m[e.U], m[e.W]) {
					t.Fatalf("trial %d: pattern edge %v not in host under %v", trial, e, m)
				}
			}
			return true
		})
	}
}

// TestMatcherLimit checks the Limit option against the reference.
func TestMatcherLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	host := randomGraph(40, 90, 2, rng)
	pat := path(0, 1)
	for _, limit := range []int{1, 2, 5} {
		got := CountEmbeddings(pat, host, limit)
		want := EnumerateEmbeddingsReference(pat, host,
			MatchOptions{Limit: limit, Anchor: -1, DistinctImages: true}, func(Mapping) bool { return true })
		if got != want {
			t.Fatalf("limit %d: got %d want %d", limit, got, want)
		}
	}
}

// TestMatcherDisconnectedPattern rejects disconnected patterns like the
// reference does.
func TestMatcherDisconnectedPattern(t *testing.T) {
	pat := graph.FromEdges([]graph.Label{0, 0, 0, 0}, []graph.Edge{{U: 0, W: 1}, {U: 2, W: 3}})
	host := graph.FromEdges([]graph.Label{0, 0, 0, 0},
		[]graph.Edge{{U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 3}})
	var mt Matcher
	if n := mt.Enumerate(pat, host, MatchOptions{Anchor: -1}, func(Mapping) bool { return true }); n != 0 {
		t.Fatalf("disconnected pattern matched %d times", n)
	}
}

// TestMatcherReuse checks a single Matcher across many calls with
// different patterns, hosts and options — the reuse mode the miners rely
// on.
func TestMatcherReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var mt Matcher
	for trial := 0; trial < 60; trial++ {
		host := randomGraph(6+rng.Intn(30), 8+rng.Intn(60), 1+rng.Intn(4), rng)
		pat := randomConnectedPattern(2+rng.Intn(4), rng.Intn(2), 1+rng.Intn(4), rng)
		opt := MatchOptions{Anchor: -1, DistinctImages: trial%2 == 0}
		got := mt.Enumerate(pat, host, opt, func(Mapping) bool { return true })
		want := EnumerateEmbeddingsReference(pat, host, opt, func(Mapping) bool { return true })
		if got != want {
			t.Fatalf("trial %d: reused matcher count %d, reference %d", trial, got, want)
		}
	}
}

// TestSketchDominates sanity-checks the SWAR domination filter the
// matcher relies on: for random label multisets A ⊇ B the sketch of A
// must dominate the sketch of B (no false negatives).
func TestSketchDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		nb := 1 + rng.Intn(12)
		labels := make([]graph.Label, nb)
		for i := range labels {
			labels[i] = graph.Label(rng.Intn(8))
		}
		// Build host = star over all labels, pattern = star over a subset.
		k := rng.Intn(nb + 1)
		sub := append([]graph.Label(nil), labels...)
		rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
		sub = sub[:k]
		host := starOf(0, labels)
		pat := starOf(0, sub)
		if !graph.SketchDominates(host.NeighborSketch(0), pat.NeighborSketch(0)) {
			sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
			t.Fatalf("trial %d: sketch of %v does not dominate subset %v", trial, labels, sub)
		}
	}
}

func starOf(head graph.Label, leaves []graph.Label) *graph.Graph {
	b := graph.NewBuilder(1+len(leaves), len(leaves))
	h := b.AddVertex(head)
	for _, l := range leaves {
		v := b.AddVertex(l)
		b.AddEdge(h, v)
	}
	return b.Build()
}

// TestMatcherZeroAllocs enforces the matcher's 0 allocs/op invariant (the
// one ROADMAP.md's Performance section relies on): a warm Matcher must
// enumerate without touching the heap.
func TestMatcherZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	host := randomGraph(200, 500, 3, rng)
	pat := path(0, 1, 2)
	opt := MatchOptions{Anchor: -1, DistinctImages: true}
	var mt Matcher
	keep := func(Mapping) bool { return true }
	if n := mt.Enumerate(pat, host, opt, keep); n == 0 { // warm the buffers
		t.Fatal("no embeddings")
	}
	allocs := testing.AllocsPerRun(10, func() {
		mt.Enumerate(pat, host, opt, keep)
	})
	if allocs != 0 {
		t.Fatalf("warm Matcher.Enumerate averaged %v allocs/run; want 0", allocs)
	}
}

// TestImageHashPackedSort pins ImageHash and AppendImageKey, which sort
// image edges as packed words, against a comparator sort of the same
// edges: random edge lists of 0–600 edges cover the insertion-sort cut
// and both sides of graph.SortEdges' 256-word stack-buffer bound, and
// host ids up to 2³¹−1
// cover the high bit of each packed half.
func TestImageHashPackedSort(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	sizes := []int{0, 1, 2, 15, 16, 17, 255, 256, 257, 599, 600}
	for i := 0; i < 40; i++ {
		sizes = append(sizes, rng.Intn(601))
	}
	var buf []graph.Edge
	for _, m := range sizes {
		const nv = 36 // 630 vertex pairs, room for 600 edges
		b := graph.NewBuilder(nv, m)
		for v := 0; v < nv; v++ {
			b.AddVertex(graph.Label(rng.Intn(3)))
		}
		for added := 0; added < m; {
			u, w := graph.V(rng.Intn(nv)), graph.V(rng.Intn(nv))
			if u != w && !b.HasEdge(u, w) {
				b.AddEdge(u, w)
				added++
			}
		}
		p := b.Build()
		// An injective mapping mixing small ids with ids near 2³¹−1.
		mp := make(Mapping, nv)
		used := map[graph.V]bool{}
		for v := range mp {
			for {
				h := graph.V(rng.Intn(1000))
				if rng.Intn(2) == 0 {
					h = math.MaxInt32 - h
				}
				if !used[h] {
					used[h], mp[v] = true, h
					break
				}
			}
		}
		want := AppendMappedEdges(nil, p, mp)
		sort.Slice(want, func(i, j int) bool {
			if want[i].U != want[j].U {
				return want[i].U < want[j].U
			}
			return want[i].W < want[j].W
		})
		var h [2]uint64
		h, buf = ImageHash(buf, p, mp)
		if !slices.Equal(buf, want) {
			t.Fatalf("%d edges: ImageHash sorted the image as %v, want %v", m, buf, want)
		}
		if h != HashEdges(want) {
			t.Fatalf("%d edges: ImageHash %x, want %x", m, h, HashEdges(want))
		}
		var key []byte
		for _, e := range want {
			key = appendVarint(appendVarint(key, uint64(e.U)), uint64(e.W))
		}
		if got := AppendImageKey(nil, p, mp); !bytes.Equal(got, key) {
			t.Fatalf("%d edges: AppendImageKey differs from the comparator-sorted key", m)
		}
	}
}
