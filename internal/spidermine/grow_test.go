package spidermine

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// growHost builds a host with two identical star sites: head label 9 with
// leaves 1, 2, 3, where leaf 3 continues to a label-4 vertex.
func growHost() *graph.Graph {
	b := graph.NewBuilder(10, 10)
	site := func() graph.V {
		h := b.AddVertex(9)
		l1 := b.AddVertex(1)
		l2 := b.AddVertex(2)
		l3 := b.AddVertex(3)
		t := b.AddVertex(4)
		b.AddEdge(h, l1)
		b.AddEdge(h, l2)
		b.AddEdge(h, l3)
		b.AddEdge(l3, t)
		return h
	}
	site()
	site()
	return b.Build()
}

func minerFor(g *graph.Graph, cfg Config) *Miner {
	m := New(g, cfg)
	m.cfg = m.cfg.withDefaults(g)
	// Populate the frequent-pair index the way Run does.
	m.freqPairs = m.freqPairs[:0]
	for _, e := range g.Edges() {
		la, lb := g.Label(e.U), g.Label(e.W)
		m.freqPairs = append(m.freqPairs, labelPair{h: la, l: lb}, labelPair{h: lb, l: la})
	}
	slices.SortFunc(m.freqPairs, cmpLabelPair)
	m.freqPairs = slices.Compact(m.freqPairs)
	return m
}

// dropFreqPair removes one (head, leaf) entry from the flat index, the
// test equivalent of the historical map delete.
func dropFreqPair(m *Miner, h, l graph.Label) {
	m.freqPairs = slices.DeleteFunc(m.freqPairs, func(p labelPair) bool { return p.h == h && p.l == l })
}

func TestExtendAtAddsMaximalLeafSet(t *testing.T) {
	g := growHost()
	m := minerFor(g, Config{MinSupport: 2, Dmax: 4})
	// Start from the bare head vertex as a 1-vertex pattern... patterns
	// must have an edge; start from head+leaf1.
	pg := graph.FromEdges([]graph.Label{9, 1}, []graph.Edge{{U: 0, W: 1}})
	p := pattern.New(pg, []pattern.Embedding{{0, 1}, {5, 6}})
	p.Origin = 0
	if !m.extendAt(p, 0, new(growScratch)) {
		t.Fatal("no extension at the head")
	}
	// The head's maximal frequent extension adds leaves 2 and 3.
	if p.NV() != 4 {
		t.Fatalf("pattern vertices %d, want 4 (head + leaves 1,2,3)", p.NV())
	}
	if len(p.Emb) != 2 {
		t.Fatalf("embeddings %d, want 2", len(p.Emb))
	}
	// All new edges incident to the head (internal integrity).
	for _, e := range p.G.Edges() {
		if e.U != 0 && e.W != 0 {
			t.Fatalf("edge %v not incident to the boundary vertex", e)
		}
	}
}

// TestExtendAtNegativeLabels: the LG reader accepts negative labels, so
// the greedy leaf choice must add them like any other — here every
// frequent leaf label is below zero, including a repeated one.
func TestExtendAtNegativeLabels(t *testing.T) {
	b := graph.NewBuilder(10, 8)
	for site := 0; site < 2; site++ {
		h := b.AddVertex(-1)
		for _, l := range []graph.Label{0, -2, -2, -1} {
			b.AddEdge(h, b.AddVertex(l))
		}
	}
	m := minerFor(b.Build(), Config{MinSupport: 2, Dmax: 4})
	pg := graph.FromEdges([]graph.Label{-1, 0}, []graph.Edge{{U: 0, W: 1}})
	p := pattern.New(pg, []pattern.Embedding{{0, 1}, {5, 6}})
	p.Origin = 0
	if !m.extendAt(p, 0, new(growScratch)) {
		t.Fatal("no extension at a head whose frequent leaf labels are negative")
	}
	got := make([]graph.Label, p.NV())
	for v := range got {
		got[v] = p.G.Label(graph.V(v))
	}
	if want := []graph.Label{-1, 0, -2, -2, -1}; !slices.Equal(got, want) {
		t.Fatalf("extended pattern labels %v, want %v", got, want)
	}
	if len(p.Emb) != 2 {
		t.Fatalf("embeddings %d, want 2", len(p.Emb))
	}
}

func TestExtendAtRespectsDiameterBound(t *testing.T) {
	g := growHost()
	m := minerFor(g, Config{MinSupport: 2, Dmax: 2})
	// Pattern head+leaf3 (diameter 1); extending leaf3 with the label-4
	// tail would give a path of diameter 2 — allowed. Dmax=2 still blocks
	// the head extension that would create leaf-to-tail distance 3.
	pg := graph.FromEdges([]graph.Label{9, 3, 4}, []graph.Edge{{U: 0, W: 1}, {U: 1, W: 2}})
	p := pattern.New(pg, []pattern.Embedding{{0, 3, 4}, {5, 8, 9}})
	p.Origin = 0
	if m.extendAt(p, 0, new(growScratch)) {
		t.Fatalf("extension at head should be blocked by Dmax=2 (got diam %d)", p.G.Diameter())
	}
}

func TestExtendAtNoFrequentPair(t *testing.T) {
	g := growHost()
	m := minerFor(g, Config{MinSupport: 2, Dmax: 6})
	// Remove 9-2 from the frequent-pair index: leaf 2 may not be used.
	dropFreqPair(m, 9, 2)
	pg := graph.FromEdges([]graph.Label{9, 1}, []graph.Edge{{U: 0, W: 1}})
	p := pattern.New(pg, []pattern.Embedding{{0, 1}, {5, 6}})
	p.Origin = 0
	m.extendAt(p, 0, new(growScratch))
	for v := 0; v < p.NV(); v++ {
		if p.G.Label(graph.V(v)) == 2 {
			t.Fatal("extension used a non-frequent spider pair")
		}
	}
}

func TestExtendAtInsufficientSupport(t *testing.T) {
	g := growHost()
	m := minerFor(g, Config{MinSupport: 3, Dmax: 6}) // σ=3 but only 2 sites
	pg := graph.FromEdges([]graph.Label{9, 1}, []graph.Edge{{U: 0, W: 1}})
	p := pattern.New(pg, []pattern.Embedding{{0, 1}, {5, 6}})
	p.Origin = 0
	if m.extendAt(p, 0, new(growScratch)) {
		t.Fatal("extension above support threshold")
	}
}

func TestCheckMergesMergesOverlapping(t *testing.T) {
	g := growHost()
	m := minerFor(g, Config{MinSupport: 2, Dmax: 4})
	// Pattern A: head-leaf1 at both sites; Pattern B: head-leaf2 at both
	// sites. They overlap on the heads (vertices 0 and 5).
	pgA := graph.FromEdges([]graph.Label{9, 1}, []graph.Edge{{U: 0, W: 1}})
	pa := pattern.New(pgA, []pattern.Embedding{{0, 1}, {5, 6}})
	pa.ID = 1
	pgB := graph.FromEdges([]graph.Label{9, 2}, []graph.Edge{{U: 0, W: 1}})
	pb := pattern.New(pgB, []pattern.Embedding{{0, 2}, {5, 7}})
	pb.ID = 2
	ws := []*grown{{p: pa, radius: 1}, {p: pb, radius: 1}}
	out, _ := m.checkMerges(ws)
	if len(out) != 1 {
		t.Fatalf("expected one merged pattern, got %d working patterns", len(out))
	}
	mp := out[0].p
	if !mp.Merged {
		t.Fatal("merged flag not set")
	}
	if mp.NV() != 3 || mp.Size() != 2 {
		t.Fatalf("merged pattern %v, want 3 vertices / 2 edges", mp)
	}
	if len(mp.Emb) != 2 {
		t.Fatalf("merged embeddings %d, want 2 (one per site)", len(mp.Emb))
	}
	if m.stats.Merges != 1 {
		t.Fatalf("merge counter %d", m.stats.Merges)
	}
}

func TestCheckMergesRejectsInfrequentUnion(t *testing.T) {
	g := growHost()
	m := minerFor(g, Config{MinSupport: 2, Dmax: 4})
	// Overlap exists only at site 1, so the union occurs once — below σ.
	pgA := graph.FromEdges([]graph.Label{9, 1}, []graph.Edge{{U: 0, W: 1}})
	pa := pattern.New(pgA, []pattern.Embedding{{0, 1}})
	pgB := graph.FromEdges([]graph.Label{9, 2}, []graph.Edge{{U: 0, W: 1}})
	pb := pattern.New(pgB, []pattern.Embedding{{0, 2}})
	ws := []*grown{{p: pa, radius: 1}, {p: pb, radius: 1}}
	out, _ := m.checkMerges(ws)
	if len(out) != 2 {
		t.Fatalf("infrequent union must not merge; got %d patterns", len(out))
	}
	for _, w := range out {
		if w.p.Merged {
			t.Fatal("merged flag set without a merge")
		}
	}
}

func TestCheckMergesNoOverlapNoMerge(t *testing.T) {
	g := growHost()
	m := minerFor(g, Config{MinSupport: 1, Dmax: 4})
	pgA := graph.FromEdges([]graph.Label{9, 1}, []graph.Edge{{U: 0, W: 1}})
	pa := pattern.New(pgA, []pattern.Embedding{{0, 1}})
	pgB := graph.FromEdges([]graph.Label{9, 2}, []graph.Edge{{U: 0, W: 1}})
	pb := pattern.New(pgB, []pattern.Embedding{{5, 7}}) // other site
	ws := []*grown{{p: pa, radius: 1}, {p: pb, radius: 1}}
	if out, _ := m.checkMerges(ws); len(out) != 2 {
		t.Fatalf("disjoint patterns merged: %d", len(out))
	}
}

// TestMergeKeyPacking: packed merge candidates round-trip and sort as
// (a, b, ea, eb) at the corners of every field, so in-range candidates
// never share a key and a key's pair prefix names exactly its pattern
// pair; a working set past the pattern-index bound is refused with an
// error instead of aliasing pairs.
func TestMergeKeyPacking(t *testing.T) {
	corners := func(n int) []int { return []int{0, 1, n/2 - 1, n / 2, n - 2, n - 1} }
	var tuples [][4]int
	for _, a := range corners(maxMergePatterns) {
		for _, b := range corners(maxMergePatterns) {
			for _, ea := range corners(mergeScanEmb) {
				for _, eb := range corners(mergeScanEmb) {
					tuples = append(tuples, [4]int{a, b, ea, eb})
				}
			}
		}
	}
	keys := make([]uint64, len(tuples))
	for i, tp := range tuples {
		k := packCand(tp[0], tp[1], tp[2], tp[3])
		a, b := candPair(k)
		ea, eb := candEmbs(k)
		if got := [4]int{a, b, ea, eb}; got != tp {
			t.Fatalf("packCand%v unpacks to %v", tp, got)
		}
		keys[i] = k
	}
	for i, x := range tuples {
		for j, y := range tuples {
			if got, want := cmp.Compare(keys[i], keys[j]), slices.Compare(x[:], y[:]); got != want {
				t.Fatalf("keys of %v and %v compare %d, tuples %d", x, y, got, want)
			}
			if samePair := x[0] == y[0] && x[1] == y[1]; (keys[i]>>candPairShift == keys[j]>>candPairShift) != samePair {
				t.Fatalf("pair prefixes of %v and %v disagree with their pattern pairs", x, y)
			}
		}
	}
	if err := checkMergeKeyRange(maxMergePatterns); err != nil {
		t.Fatalf("working set at the bound refused: %v", err)
	}
	if err := checkMergeKeyRange(maxMergePatterns + 1); err == nil {
		t.Fatal("working set past the merge key bound accepted")
	}
}

func TestBoundaryGrowthIncreasesRadius(t *testing.T) {
	g := growHost()
	m := minerFor(g, Config{MinSupport: 2, Dmax: 6})
	pg := graph.FromEdges([]graph.Label{9, 3}, []graph.Edge{{U: 0, W: 1}})
	p := pattern.New(pg, []pattern.Embedding{{0, 3}, {5, 8}})
	p.Origin = 0
	w := &grown{p: p, radius: 1}
	if !m.growPattern(w, new(growScratch)) {
		t.Fatal("no growth")
	}
	if w.radius != 2 {
		t.Fatalf("radius %d, want 2", w.radius)
	}
	// leaf3's tail (label 4) must have been added by boundary growth.
	has4 := false
	for v := 0; v < p.NV(); v++ {
		if p.G.Label(graph.V(v)) == 4 {
			has4 = true
		}
	}
	if !has4 {
		t.Fatal("boundary vertex did not grow its tail")
	}
}
