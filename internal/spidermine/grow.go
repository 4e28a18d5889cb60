package spidermine

import (
	"math"
	"slices"

	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// growAll runs one SpiderGrow iteration over every working pattern,
// reporting whether any pattern was extended. With cfg.Workers > 1 (or
// < 0 for GOMAXPROCS) patterns grow concurrently; results are identical
// because each pattern is grown independently against shared-immutable
// state (host graph, frequent-pair index) with worker-owned scratch.
//
// On cancellation growAll returns ctx.Err() with the pass partially
// applied; the caller rolls back to its last committed snapshot. The
// per-pattern check is skipped entirely for uncancellable runs.
func (m *Miner) growAll(ws []*grown) (bool, error) {
	if workers := m.workerCount(len(ws)); workers > 1 {
		return m.growAllParallel(ws, workers)
	}
	sc := m.growWS.For(1)[0]
	any := false
	for _, w := range ws {
		if m.done != nil {
			if err := m.cancelled(); err != nil {
				return any, err
			}
		}
		if w.done {
			continue
		}
		if m.growPattern(w, sc) {
			any = true
		} else {
			w.done = true
		}
	}
	return any, nil
}

// growPattern performs one radius-increasing growth step (Algorithm 2 +
// Algorithm 3): at every boundary vertex, append the maximal frequent
// spider extension. Returns whether the pattern gained any vertex. sc is
// the caller-owned extension scratch — one per worker, so growPattern may
// run on parallel workers against disjoint patterns.
//
// SpiderExtend's two invariants are enforced:
//   - Maximal overlap: the appended spider is the largest frequent star at
//     the boundary image (greedy maximal leaf multiset).
//   - Internal integrity: only edges from the boundary vertex to new
//     vertices are added; the interior of P is untouched.
func (m *Miner) growPattern(w *grown, sc *growScratch) bool {
	p := w.p
	sc.boundary = p.AppendBoundary(sc.boundary[:0], w.radius)
	grewAny := false
	for _, b := range sc.boundary {
		if int(b) >= p.NV() {
			continue // pattern graph replaced with fewer vertices (defensive)
		}
		if m.extendAt(p, b, sc) {
			grewAny = true
		}
	}
	if grewAny {
		// Growth adds one ring of leaves per pass regardless of the seed
		// radius (stars are the growth unit; cfg.Radius only shapes the
		// Stage I seed population), so the frontier advances by exactly 1.
		w.radius++
	}
	return grewAny
}

// labVert is one candidate (leaf label, host vertex) observation during
// the per-embedding availability scan.
type labVert struct {
	l graph.Label
	v graph.V
}

// labRange is one label group of an embedding's candidate table: the host
// vertices sc.vbuf[lo:hi] (ascending) can supply leaf label `label` at the
// boundary image. Ranges into the flat buffer replace the historical
// per-embedding []labCand slices-of-slices, so the whole availability
// table is three reused flat allocations however many embeddings a
// pattern carries.
type labRange struct {
	label  graph.Label
	lo, hi int32
}

// labCount is a (label, count) pair used for the greedy multiset state.
type labCount struct {
	label graph.Label
	n     int
}

func countOf(lcs []labCount, l graph.Label) int {
	for i := range lcs {
		if lcs[i].label == l {
			return lcs[i].n
		}
	}
	return 0
}

func incrCount(lcs []labCount, l graph.Label) []labCount {
	for i := range lcs {
		if lcs[i].label == l {
			lcs[i].n++
			return lcs
		}
	}
	return append(lcs, labCount{l, 1})
}

// growScratch is per-worker extension state, owned by exactly one worker
// for the duration of a growth pass (m.growWS.For). mark is an
// epoch-stamped host-vertex set (no clearing between embeddings, just a
// new epoch); everything else is reused buffers truncated per call, so a
// warm growth pass allocates only what the grown pattern retains (its new
// graph and embedding storage).
type growScratch struct {
	mark  []int32
	epoch int32

	boundary []graph.V

	// Availability table, rebuilt per extendAt call: per-embedding runs of
	// label groups (gOff offsets into groups) whose candidate vertices are
	// ranges into vbuf. lv is the per-embedding collect+sort buffer.
	lv     []labVert
	groups []labRange
	gOff   []int32
	vbuf   []graph.V

	// Greedy multiset state: chosen/counts label tallies, surv/keep
	// ping-pong embedding index lists, subEmbs the support-probe slice.
	chosen  []labCount
	counts  []labCount
	surv    []int32
	keep    []int32
	subEmbs []pattern.Embedding

	// Image-dedupe set and edge buffer (128-bit image hashes stand in for
	// ImageKey strings, the accepted collision trade-off), plus the pooled
	// graph builder for the extended pattern.
	seen   map[[2]uint64]struct{}
	imgBuf []graph.Edge
	b      graph.Builder
}

// groupOf returns the candidate vertices for label l at embedding ei, or
// nil (the linear scan mirrors the historical candOf: label counts per
// head are small).
func (sc *growScratch) groupOf(ei int32, l graph.Label) []graph.V {
	for _, lr := range sc.groups[sc.gOff[ei]:sc.gOff[ei+1]] {
		if lr.label == l {
			return sc.vbuf[lr.lo:lr.hi]
		}
	}
	return nil
}

// extendAt grows pattern p at boundary vertex b by the maximal frequent
// leaf multiset, mutating p (graph, embeddings, caches) in place.
// Returns whether at least one leaf was added.
func (m *Miner) extendAt(p *pattern.Pattern, b graph.V, sc *growScratch) bool {
	if len(p.Emb) == 0 {
		return false
	}
	// Diameter guard: appending a leaf at b yields diameter
	// max(diam, ecc(b)+1, 2); never grow past Dmax (Definition 2 demands
	// diam(P) <= Dmax, so growth in that direction cannot lead to a valid
	// result pattern).
	eccB := p.G.Eccentricity(b)
	if eccB+1 > m.cfg.Dmax {
		return false
	}
	headLabel := p.G.Label(b)
	// Frequent leaf labels for this head, resolved once from the flat pair
	// index; an empty run means no extension can be frequent.
	run := m.freqLeavesOf(headLabel)
	if len(run) == 0 {
		return false
	}

	// Availability: per embedding, the candidate new-leaf host vertices
	// grouped by label — host neighbors of the image of b that are outside
	// the embedding image and form a frequent (head,leaf) spider pair.
	// Vertex lists inherit the host CSR's ascending order (the (l, v) sort
	// below is within-label stable on an already v-ascending scan).
	if cap(sc.mark) < m.g.N() {
		sc.mark = make([]int32, m.g.N())
		sc.epoch = 0
	}
	sc.mark = sc.mark[:m.g.N()]
	// Epoch wraparound guard: this call consumes one epoch per embedding;
	// if that could reach stamps left by long-dead embeddings, clear and
	// restart rather than alias them.
	if sc.epoch > math.MaxInt32-int32(len(p.Emb))-1 {
		clear(sc.mark[:cap(sc.mark)])
		sc.epoch = 0
	}
	nEmb := len(p.Emb)
	if cap(sc.gOff) < nEmb+1 {
		sc.gOff = make([]int32, nEmb+1)
	}
	sc.gOff = sc.gOff[:nEmb+1]
	sc.groups = sc.groups[:0]
	sc.vbuf = sc.vbuf[:0]
	for i, e := range p.Emb {
		sc.epoch++
		for _, hv := range e {
			sc.mark[hv] = sc.epoch
		}
		sc.gOff[i] = int32(len(sc.groups))
		lv := sc.lv[:0]
		for _, nb := range m.g.Neighbors(e[b]) {
			if sc.mark[nb] == sc.epoch {
				continue
			}
			l := m.g.Label(nb)
			if !hasLeaf(run, l) {
				continue
			}
			lv = append(lv, labVert{l, nb})
		}
		slices.SortFunc(lv, func(x, y labVert) int {
			if x.l != y.l {
				return int(x.l) - int(y.l)
			}
			return int(x.v) - int(y.v)
		})
		sc.lv = lv
		for j := 0; j < len(lv); {
			k := j
			lo := int32(len(sc.vbuf))
			for k < len(lv) && lv[k].l == lv[j].l {
				sc.vbuf = append(sc.vbuf, lv[k].v)
				k++
			}
			sc.groups = append(sc.groups, labRange{label: lv[j].l, lo: lo, hi: int32(len(sc.vbuf))})
			j = k
		}
	}
	sc.gOff[nEmb] = int32(len(sc.groups))

	// Greedy maximal frequent multiset: repeatedly add the label that the
	// most surviving embeddings can still host; stop when no label keeps
	// support >= σ.
	chosen := sc.chosen[:0]
	surv := sc.surv[:0]
	for i := 0; i < nEmb; i++ {
		surv = append(surv, int32(i))
	}
	keep := sc.keep
	total := 0
	for {
		// Candidate labels: anything available beyond its chosen count.
		counts := sc.counts[:0]
		for _, ei := range surv {
			for _, lr := range sc.groups[sc.gOff[ei]:sc.gOff[ei+1]] {
				if int(lr.hi-lr.lo) > countOf(chosen, lr.label) {
					counts = incrCount(counts, lr.label)
				}
			}
		}
		sc.counts = counts
		// Best label: highest embedding count, ties toward the smallest
		// label (order-independent however the counts list is arranged).
		// Labels may be negative, so "none yet" is a flag, not a sentinel.
		var bestLabel graph.Label
		bestCount, found := 0, false
		for _, c := range counts {
			if !found || c.n > bestCount || (c.n == bestCount && c.label < bestLabel) {
				bestCount, bestLabel, found = c.n, c.label, true
			}
		}
		if !found {
			break
		}
		// Which embeddings survive if we add bestLabel?
		keep = keep[:0]
		for _, ei := range surv {
			if len(sc.groupOf(ei, bestLabel)) > countOf(chosen, bestLabel) {
				keep = append(keep, ei)
			}
		}
		if m.embSupportIdx(p, keep, sc) < m.cfg.MinSupport {
			break
		}
		chosen = incrCount(chosen, bestLabel)
		total++
		surv, keep = keep, surv
	}
	sc.chosen, sc.surv, sc.keep = chosen, surv, keep
	if total == 0 {
		return false
	}
	slices.SortFunc(chosen, func(a, b labCount) int { return int(a.label) - int(b.label) })

	// Build the extended pattern graph through the pooled builder: new
	// vertices appended after existing ones, one per chosen leaf, edges
	// b—leaf. The interior edges come straight off the CSR (u < w order,
	// exactly what Edges() yields) without materializing an edge list.
	sc.b.Reset(p.NV()+total, p.Size()+total)
	for v := 0; v < p.NV(); v++ {
		sc.b.AddVertex(p.G.Label(graph.V(v)))
	}
	for v := 0; v < p.NV(); v++ {
		for _, w := range p.G.Neighbors(graph.V(v)) {
			if graph.V(v) < w {
				sc.b.AddEdge(graph.V(v), w)
			}
		}
	}
	for _, lc := range chosen {
		for c := 0; c < lc.n; c++ {
			leaf := sc.b.AddVertex(lc.label)
			sc.b.AddEdge(b, leaf)
		}
	}
	newG := sc.b.Build()
	// Exact diameter check (the ecc pre-check above is necessary but not
	// sufficient once several boundary vertices have grown this pass).
	// newG is connected (p is, and every leaf hangs off b), so the
	// bit-parallel check tests only the diameter. For very large patterns
	// the exact check is deferred to the final top-K filter; the ecc guard
	// alone bounds overshoot to +1.
	if newG.N() <= 256 && !newG.ConnectedWithin(m.cfg.Dmax) {
		return false
	}

	// Extend surviving embeddings: per label, take the first chosen[l]
	// available neighbors in host-id order (labels with equal value are
	// interchangeable positions, so this is canonical; candidate ranges
	// are already host-id ascending). The extended embeddings are carved
	// out of one flat retained buffer — the appends below can never exceed
	// its pre-sized capacity, so the carved sub-slices stay stable.
	lenE := p.NV()
	flat := make([]graph.V, 0, len(surv)*(lenE+total))
	newEmbs := make([]pattern.Embedding, 0, len(surv))
	for _, ei := range surv {
		e := p.Emb[ei]
		lo := len(flat)
		flat = append(flat, e...)
		ok := true
		for _, lc := range chosen {
			vs := sc.groupOf(ei, lc.label)
			if len(vs) < lc.n {
				ok = false
				break
			}
			flat = append(flat, vs[:lc.n]...)
		}
		if !ok {
			flat = flat[:lo]
			continue
		}
		newEmbs = append(newEmbs, pattern.Embedding(flat[lo:len(flat):len(flat)]))
	}
	// Dedupe images before the final support check so overlapping
	// embeddings collapsing into one subgraph cannot fake support.
	if sc.seen == nil {
		sc.seen = make(map[[2]uint64]struct{}, len(newEmbs))
	} else {
		clear(sc.seen)
	}
	deduped := newEmbs[:0]
	for _, e := range newEmbs {
		var h [2]uint64
		h, sc.imgBuf = canon.ImageHash(sc.imgBuf, newG, canon.Mapping(e))
		if _, dup := sc.seen[h]; dup {
			continue
		}
		sc.seen[h] = struct{}{}
		deduped = append(deduped, e)
		if len(deduped) >= m.cfg.MaxEmbPerPattern {
			break
		}
	}
	if m.supFn(newG, deduped) < m.cfg.MinSupport {
		return false
	}
	p.G = newG
	p.Emb = deduped
	p.InvalidateCaches()
	return true
}

// embSupportIdx computes σ-comparable support of the subset of p's
// embeddings given by indices, against p's current graph, through the
// scratch's reused probe slice.
func (m *Miner) embSupportIdx(p *pattern.Pattern, idx []int32, sc *growScratch) int {
	sub := sc.subEmbs[:0]
	for _, i := range idx {
		sub = append(sub, p.Emb[i])
	}
	sc.subEmbs = sub
	return m.supFn(p.G, sub)
}
