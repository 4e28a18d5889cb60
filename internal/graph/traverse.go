package graph

import "sync"

// bfsScratch holds reusable BFS state. Eccentricity and Diameter run on
// every boundary vertex of every growth step, so allocating dist+queue per
// call dominated whole-pipeline profiles; a pool keeps steady-state BFS
// allocation-free.
type bfsScratch struct {
	dist  []int32
	queue []V
}

var bfsPool = sync.Pool{New: func() any { return new(bfsScratch) }}

func (s *bfsScratch) reset(n int) {
	if cap(s.dist) < n {
		s.dist = make([]int32, n)
		s.queue = make([]V, 0, n)
	}
	s.dist = s.dist[:n]
	for i := range s.dist {
		s.dist[i] = -1
	}
	s.queue = s.queue[:0]
}

// bfs runs a BFS from src into the scratch's dist array (-1 = unreached)
// and returns the maximum distance reached.
func (g *Graph) bfs(s *bfsScratch, src V) int32 {
	s.reset(g.N())
	s.dist[src] = 0
	s.queue = append(s.queue, src)
	var ecc int32
	for head := 0; head < len(s.queue); head++ {
		v := s.queue[head]
		dv := s.dist[v]
		for _, w := range g.nbrs[g.offs[v]:g.offs[v+1]] {
			if s.dist[w] < 0 {
				s.dist[w] = dv + 1
				s.queue = append(s.queue, w)
			}
		}
		ecc = dv
	}
	return ecc
}

// BFSFrom runs a breadth-first search from src and returns the distance of
// every vertex from src; unreachable vertices get -1.
func (g *Graph) BFSFrom(src V) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	if int(src) >= g.N() || src < 0 {
		return dist
	}
	s := bfsPool.Get().(*bfsScratch)
	g.bfs(s, src)
	for i, d := range s.dist {
		dist[i] = int(d)
	}
	bfsPool.Put(s)
	return dist
}

// AppendAtDistance appends to dst the vertices at exactly distance d from
// src, in ascending vertex order, and returns the extended slice. The BFS
// state is pooled, so steady-state calls allocate only if dst must grow —
// this is the growth loop's boundary computation (pattern.AppendBoundary).
func (g *Graph) AppendAtDistance(dst []V, src V, d int) []V {
	if int(src) >= g.N() || src < 0 {
		return dst
	}
	s := bfsPool.Get().(*bfsScratch)
	g.bfs(s, src)
	for v, dv := range s.dist {
		if int(dv) == d {
			dst = append(dst, V(v))
		}
	}
	bfsPool.Put(s)
	return dst
}

// BFSWithin returns the set of vertices within distance r of src
// (including src itself) along with their distances. It stops expanding at
// depth r, so cost is proportional to the r-neighborhood, not the graph.
func (g *Graph) BFSWithin(src V, r int) map[V]int {
	dist := map[V]int{src: 0}
	frontier := []V{src}
	for depth := 0; depth < r && len(frontier) > 0; depth++ {
		var next []V
		for _, v := range frontier {
			for _, w := range g.Neighbors(v) {
				if _, ok := dist[w]; !ok {
					dist[w] = depth + 1
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return dist
}

// Eccentricity returns the maximum shortest-path distance from v to any
// vertex reachable from v. Returns 0 for isolated vertices.
func (g *Graph) Eccentricity(v V) int {
	if int(v) >= g.N() || v < 0 {
		return 0
	}
	s := bfsPool.Get().(*bfsScratch)
	ecc := g.bfs(s, v)
	bfsPool.Put(s)
	return int(ecc)
}

// Diameter returns the diameter of the graph: the maximum eccentricity over
// all vertices. Disconnected graphs report the maximum diameter over
// components (distances across components are ignored). O(N·(N+M)); meant
// for patterns and test graphs, not massive inputs.
func (g *Graph) Diameter() int {
	s := bfsPool.Get().(*bfsScratch)
	var diam int32
	for v := 0; v < g.N(); v++ {
		if e := g.bfs(s, V(v)); e > diam {
			diam = e
		}
	}
	bfsPool.Put(s)
	return int(diam)
}

// RadiusFrom reports whether every vertex of the graph is within distance r
// of v, i.e. whether the graph is "r-bounded from v" in the paper's sense.
// Disconnected graphs are never r-bounded.
func (g *Graph) RadiusFrom(v V, r int) bool {
	if g.N() == 0 {
		return true
	}
	if int(v) >= g.N() || v < 0 {
		return false
	}
	s := bfsPool.Get().(*bfsScratch)
	ecc := g.bfs(s, v)
	reached := len(s.queue)
	bfsPool.Put(s)
	return reached == g.N() && int(ecc) <= r
}

// ConnectedComponents returns a component id per vertex and the number of
// components. Component ids are assigned in order of lowest contained
// vertex.
func (g *Graph) ConnectedComponents() (comp []int, count int) {
	comp = make([]int, g.N())
	for i := range comp {
		comp[i] = -1
	}
	for v := 0; v < g.N(); v++ {
		if comp[v] >= 0 {
			continue
		}
		comp[v] = count
		queue := []V{V(v)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(u) {
				if comp[w] < 0 {
					comp[w] = count
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return comp, count
}

// IsConnected reports whether the graph has exactly one connected component
// (the empty graph counts as connected).
func (g *Graph) IsConnected() bool {
	n := g.N()
	if n == 0 {
		return true
	}
	s := bfsPool.Get().(*bfsScratch)
	g.bfs(s, 0)
	reached := len(s.queue)
	bfsPool.Put(s)
	return reached == n
}

// msbfsScratch holds ConnectedWithin's two word-per-vertex reach sets,
// pooled like bfsScratch so warm growth and merge checks do not allocate.
type msbfsScratch struct {
	cur, next []uint64
}

var msbfsPool = sync.Pool{New: func() any { return new(msbfsScratch) }}

// ConnectedWithin reports whether the graph is connected and every pair
// of vertices is at most d edges apart: IsConnected() && Diameter() <= d
// in one pass (the empty graph qualifies). Merge and growth checks only
// ever need this threshold, never the exact diameter.
//
// It is a multi-source BFS over 64 sources at a time (MS-BFS, Then et
// al., VLDB 2014): bit i of vertex v's word is set once source i of the
// block is known to lie within the current depth of v, and each round
// ORs every vertex's neighbour words into its own. A block passes as soon
// as every word is full; the graph fails when a round changes nothing (a
// source cannot reach some vertex) or when d rounds pass. The cost is at
// most ⌈N/64⌉·d rounds of O(N+M) word operations, with two words of
// scratch per vertex and no size cutoff.
func (g *Graph) ConnectedWithin(d int) bool {
	n := g.N()
	if n <= 1 {
		return n == 0 || d >= 0
	}
	if d < 1 {
		return false
	}
	s := msbfsPool.Get().(*msbfsScratch)
	if cap(s.cur) < n {
		s.cur = make([]uint64, n)
		s.next = make([]uint64, n)
	}
	cur, next := s.cur[:n], s.next[:n]
	ok := true
	for base := 0; base < n && ok; base += 64 {
		k := min(64, n-base)
		clear(cur)
		for i := 0; i < k; i++ {
			cur[base+i] = 1 << i
		}
		ok = g.msbfsBlock(cur, next, ^uint64(0)>>(64-k), d)
	}
	msbfsPool.Put(s)
	return ok
}

// msbfsBlock runs up to d MS-BFS rounds from the sources whose bits are
// set in cur and reports whether every vertex's word reached full.
func (g *Graph) msbfsBlock(cur, next []uint64, full uint64, d int) bool {
	for round := 0; round < d; round++ {
		changed, done := false, true
		for v, word := range cur {
			w := word
			for _, u := range g.nbrs[g.offs[v]:g.offs[v+1]] {
				w |= cur[u]
			}
			next[v] = w
			changed = changed || w != word
			done = done && w == full
		}
		if done {
			return true
		}
		if !changed {
			return false
		}
		cur, next = next, cur
	}
	return false
}
