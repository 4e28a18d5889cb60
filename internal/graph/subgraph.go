package graph

import "slices"

// Induced returns the subgraph of g induced by the given vertices, plus the
// mapping from new vertex ids to original ids. Duplicate vertices in the
// input are collapsed. New ids follow the sorted order of the originals so
// the operation is deterministic.
func (g *Graph) Induced(vertices []V) (*Graph, []V) {
	uniq := append([]V(nil), vertices...)
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)

	index := make(map[V]V, len(uniq))
	for i, v := range uniq {
		index[v] = V(i)
	}
	b := NewBuilder(len(uniq), len(uniq)*2)
	for _, v := range uniq {
		b.AddVertex(g.Label(v))
	}
	for _, v := range uniq {
		for _, w := range g.Neighbors(v) {
			if v < w {
				if j, ok := index[w]; ok {
					b.AddEdge(index[v], j)
				}
			}
		}
	}
	return b.Build(), uniq
}

// Neighborhood returns the subgraph induced by all vertices within distance
// r of v, plus the new→original mapping; the image of v is always new
// vertex index findable via the mapping.
func (g *Graph) Neighborhood(v V, r int) (*Graph, []V) {
	dist := g.BFSWithin(v, r)
	verts := make([]V, 0, len(dist))
	for u := range dist {
		verts = append(verts, u)
	}
	return g.Induced(verts)
}

// SubgraphScratch is the reusable state of SubgraphOfEdgesInto: the
// endpoint list, a host-indexed epoch-stamped table of local vertex ids,
// and the builder. The zero value is ready to use; one scratch serves one
// goroutine at a time.
type SubgraphScratch struct {
	verts []V
	local []localID
	epoch uint32
	b     Builder
}

// localID is one host vertex's slot in SubgraphScratch.local: id is its
// subgraph vertex when epoch matches the current call.
type localID struct {
	epoch uint32
	id    V
}

// SubgraphOfEdgesInto builds the subgraph of g containing exactly the
// given edges (in g's vertex ids) and their endpoints, and returns it with
// the new→original vertex mapping. New ids follow ascending original id,
// so the mapping is deterministic whatever the edge order. Endpoints are
// deduplicated through sc's host-indexed table, so only the distinct
// vertices are sorted and each edge endpoint maps in O(1). The returned
// mapping aliases sc — callers that retain it must copy it; the Graph is
// freshly built and independent.
func (g *Graph) SubgraphOfEdgesInto(edges []Edge, sc *SubgraphScratch) (*Graph, []V) {
	if len(sc.local) < g.N() {
		sc.local = make([]localID, g.N())
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(sc.local)
		sc.epoch = 1
	}
	ep, local := sc.epoch, sc.local
	verts := sc.verts[:0]
	for _, e := range edges {
		if local[e.U].epoch != ep {
			local[e.U].epoch = ep
			verts = append(verts, e.U)
		}
		if local[e.W].epoch != ep {
			local[e.W].epoch = ep
			verts = append(verts, e.W)
		}
	}
	slices.Sort(verts)
	sc.verts = verts
	sc.b.Reset(len(verts), len(edges))
	for i, v := range verts {
		local[v].id = V(i)
		sc.b.AddVertex(g.Label(v))
	}
	for _, e := range edges {
		sc.b.AddEdge(local[e.U].id, local[e.W].id)
	}
	return sc.b.Build(), verts
}

// AppendUnionEdges appends the normalized, sorted, deduplicated union of
// the host edge lists a and b to dst (usually dst[:0] of a reused buffer)
// and returns it. Used when merging overlapping pattern embeddings.
func AppendUnionEdges(dst []Edge, a, b []Edge) []Edge {
	base := len(dst)
	for _, e := range a {
		dst = append(dst, NormEdge(e.U, e.W))
	}
	for _, e := range b {
		dst = append(dst, NormEdge(e.U, e.W))
	}
	out := dst[base:]
	SortEdges(out)
	return dst[:base+len(slices.Compact(out))]
}

// SortEdges sorts an edge list by (U, W) as the packed words EdgeWord
// returns; vertex ids are non-negative, so unsigned word order is (U, W)
// order. Below 16 edges (the common pattern size) an insertion sort
// compares the words in place; longer lists sort the words themselves,
// packed into a stack buffer up to 256 edges.
func SortEdges(es []Edge) {
	if len(es) < 16 {
		for i := 1; i < len(es); i++ {
			e, w := es[i], EdgeWord(es[i])
			j := i
			for j > 0 && w < EdgeWord(es[j-1]) {
				es[j] = es[j-1]
				j--
			}
			es[j] = e
		}
		return
	}
	var stack [256]uint64
	ws := stack[:0]
	if len(es) > len(stack) {
		ws = make([]uint64, 0, len(es))
	}
	for _, e := range es {
		ws = append(ws, EdgeWord(e))
	}
	slices.Sort(ws)
	for i, w := range ws {
		es[i] = Edge{U: V(w >> 32), W: V(uint32(w))}
	}
}

// EdgeWord packs an edge as U<<32|W.
func EdgeWord(e Edge) uint64 { return uint64(uint32(e.U))<<32 | uint64(uint32(e.W)) }
