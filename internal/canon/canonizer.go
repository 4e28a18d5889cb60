package canon

import (
	"bytes"
	"slices"
	"sort"
	"sync"

	"repro/internal/graph"
)

// Canonizer computes canonical codes for labeled graphs with an
// individualization–refinement search. All search state — the ordered
// partition, the refinement worklist and counters, per-depth snapshots,
// the discovered automorphism generators and the code buffers — lives in
// the Canonizer and is reused across calls, so a warm Canonizer
// canonicalizes without heap allocation (the Matcher playbook). A
// Canonizer is not safe for concurrent use; callers that canonicalize
// from several goroutines keep one each, or use the package-level
// CanonicalCode, which draws from a pool.
//
// Three mechanisms keep the search polynomial on the shapes SpiderMine
// produces (which defeat a naive search factorially):
//
//   - Equitable refinement by counting sort over flat int slices: cells
//     split by neighbor counts in a splitter cell, driven by a FIFO
//     worklist — no per-round map or string signatures.
//   - Node-invariant (trace) pruning: every search node carries an
//     isomorphism-invariant hash of its refinement trace and resulting
//     partition shape; a branch whose trace exceeds the best leaf's trace
//     at the same depth is abandoned without encoding anything.
//   - Automorphism/orbit pruning: two leaves with equal codes witness an
//     automorphism; at a branch node, candidates related to an
//     already-explored sibling by a discovered automorphism that fixes
//     the node's individualized prefix are skipped. Pendant twins
//     (equal-label leaves of one vertex) are seeded as generators before
//     the search, so a hub with k interchangeable leaves collapses from
//     ~k! leaf orderings to O(k) search nodes; interchangeable longer
//     legs, found at leaves, cost O(k^2).
//
// The canonical form is the minimum leaf under the order (trace sequence,
// then code), where a trace that ends (a partition that went discrete) at
// a shallower depth precedes any continuation. The trace is built only
// from isomorphism-invariant quantities (cell positions, sizes, labels,
// split counts), so the selected code — which encodes the full labeled
// adjacency — is equal between two graphs iff they are isomorphic.
type Canonizer struct {
	// Runs counts canonical-code computations and Nodes the search-tree
	// nodes they visited, cumulatively; both are plain counters the owner
	// may reset at will. Their ratio exposes how much of the search the
	// pruning removes (a k-leaf hub costs O(k) nodes, not k!).
	Runs  int64
	Nodes int64

	g *graph.Graph
	n int

	// Ordered partition: verts lists vertices in partition order, pos is
	// its inverse; cellStartOf[v] is the start position of v's cell and
	// cellLen[s] the length of the cell starting at position s.
	verts       []int32
	pos         []int32
	cellStartOf []int32
	cellLen     []int32

	// Refinement worklist and counting-sort scratch.
	queue   []int32
	qHead   int
	inQueue []bool
	cnt     []int32 // per-vertex neighbor count in the current splitter
	touched []int32 // vertices with nonzero cnt
	affect  []int32 // distinct cell starts affected by the splitter
	affMark []bool

	// Search state.
	path      []int32  // individualized vertices, one per depth
	bestTrace []uint64 // node invariants along the best leaf's path
	haveBest  bool
	best      []byte  // best leaf code
	bestPerm  []int32 // position -> vertex order of the best leaf
	bestPath  []int32 // individualized vertices of the best leaf
	cur       []byte  // leaf-encode scratch
	jump      int     // backjump target depth after an automorphism; -1 none

	// Automorphism generators discovered at equal-code leaves, stored
	// sparsely as flattened (vertex, image) pairs over their support (most
	// generators on symmetric pattern shapes move only a handful of
	// vertices); gens[:nGen] are live for the current run, the rest are
	// retained backing arrays.
	gens     [][]int32
	nGen     int
	uf       []int32 // orbit union-find scratch, shared across the search stack
	twin     []int32 // seedTwins scratch: last pendant seen per neighbor, -1 none
	ufEpoch  int     // bumped on every rebuild so ancestors detect descendants' rebuilds
	pathMark []bool  // vertex currently individualized on the search path

	// Per-depth scratch, lazily grown and reused across runs.
	snaps   [][]int32 // partition snapshots (4n ints per used depth)
	targets [][]int32 // branch-candidate lists

	posBuf []int32 // leaf-encode neighbor-position scratch
}

// maxGens bounds the retained automorphism generators per run; beyond it
// the search only loses pruning power, never correctness.
const maxGens = 512

// traceMix is the cheap multiply–xorshift combiner for trace hashes: the
// trace only steers pruning (code comparison decides identity), and it is
// recomputed at every search node, so one multiply beats fnvMix's
// byte-at-a-time loop. Both sides of an isomorphism mix identical
// invariant values, so any deterministic combiner preserves correctness.
func traceMix(h, x uint64) uint64 {
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ (h >> 29)
}

// NewCanonizer returns an empty Canonizer. The zero value is also valid.
func NewCanonizer() *Canonizer { return &Canonizer{} }

var canonizerPool = sync.Pool{New: func() any { return NewCanonizer() }}

// GetCanonizer borrows a pooled Canonizer; pair with PutCanonizer.
func GetCanonizer() *Canonizer { return canonizerPool.Get().(*Canonizer) }

// PutCanonizer returns a borrowed Canonizer to the pool.
func PutCanonizer(c *Canonizer) { canonizerPool.Put(c) }

// Code returns the canonical code of g as a string. Equal codes iff
// isomorphic graphs. The only allocation on a warm Canonizer is the
// returned string; use Append to avoid that too.
func (c *Canonizer) Code(g *graph.Graph) string {
	c.run(g)
	return string(c.best)
}

// Append appends the canonical code of g to dst and returns the extended
// buffer. A warm Canonizer appends with zero heap allocation (given dst
// capacity).
func (c *Canonizer) Append(dst []byte, g *graph.Graph) []byte {
	c.run(g)
	return append(dst, c.best...)
}

// AppendLabeling is Append that also returns the canonical labelling.
// perm[p] is the vertex of g at position p of the code (the best leaf's
// vertex order), so two graphs with equal codes are isomorphic through
// perm1[p] -> perm2[p]. rigid reports that the search visited a single
// node: refinement alone made the partition discrete, so g has no
// nontrivial automorphism and that isomorphism is the only one. perm is
// the Canonizer's scratch and is valid until its next call. A warm
// Canonizer labels with zero heap allocation (given dst capacity).
func (c *Canonizer) AppendLabeling(dst []byte, g *graph.Graph) (code []byte, perm []graph.V, rigid bool) {
	nodes := c.Nodes
	c.run(g)
	return append(dst, c.best...), c.bestPerm[:g.N()], c.Nodes-nodes <= 1
}

func (c *Canonizer) run(g *graph.Graph) {
	c.Runs++
	n := g.N()
	c.g, c.n = g, n
	c.best = c.best[:0]
	c.bestTrace = c.bestTrace[:0]
	c.haveBest = false
	c.nGen = 0
	c.jump = -1
	if n == 0 {
		c.g = nil
		return
	}
	c.ensure(n)
	// Initial partition: label classes in ascending label order (vertex id
	// breaks ties for determinism; the class ordering is what must be
	// isomorphism-invariant).
	verts := c.verts
	for i := range verts {
		verts[i] = int32(i)
	}
	sort.Sort((*labelSorter)(c))
	c.queue = c.queue[:0]
	c.qHead = 0
	for i := 0; i < n; {
		j := i + 1
		for j < n && g.Label(verts[j]) == g.Label(verts[i]) {
			j++
		}
		for k := i; k < j; k++ {
			c.pos[verts[k]] = int32(k)
			c.cellStartOf[verts[k]] = int32(i)
		}
		c.cellLen[i] = int32(j - i)
		c.pushCell(int32(i))
		i = j
	}
	c.seedTwins()
	c.search(0, 0)
	c.g = nil
}

// ensure sizes every n-indexed scratch slice. inQueue and cnt rely on a
// clean-after-use invariant (refine drains the queue and zeroes the
// counts it touched), so only freshly grown capacity needs clearing —
// which make provides.
func (c *Canonizer) ensure(n int) {
	if cap(c.verts) < n {
		c.verts = make([]int32, n)
		c.pos = make([]int32, n)
		c.cellStartOf = make([]int32, n)
		c.cellLen = make([]int32, n)
		c.inQueue = make([]bool, n)
		c.cnt = make([]int32, n)
		c.affMark = make([]bool, n)
		c.uf = make([]int32, n)
		c.twin = make([]int32, n)
		c.pathMark = make([]bool, n)
	}
	c.verts = c.verts[:n]
	c.pos = c.pos[:n]
	c.cellStartOf = c.cellStartOf[:n]
	c.cellLen = c.cellLen[:n]
	c.inQueue = c.inQueue[:n]
	c.cnt = c.cnt[:n]
	c.affMark = c.affMark[:n]
	c.uf = c.uf[:n]
	c.twin = c.twin[:n]
	c.pathMark = c.pathMark[:n]
}

// labelSorter orders c.verts by (label, vertex id) without a closure
// allocation.
type labelSorter Canonizer

func (s *labelSorter) Len() int { return s.n }
func (s *labelSorter) Less(i, j int) bool {
	li, lj := s.g.Label(s.verts[i]), s.g.Label(s.verts[j])
	if li != lj {
		return li < lj
	}
	return s.verts[i] < s.verts[j]
}
func (s *labelSorter) Swap(i, j int) { s.verts[i], s.verts[j] = s.verts[j], s.verts[i] }

func (c *Canonizer) pushCell(s int32) {
	if !c.inQueue[s] {
		c.inQueue[s] = true
		c.queue = append(c.queue, s)
	}
}

// refine drives the queued splitter cells to the coarsest stable
// (equitable) refinement of the current partition and returns an
// isomorphism-invariant hash of the refinement trace. Each splitter
// counts, for every vertex, its neighbors inside the splitter; every
// touched multi-vertex cell is then split by count via a stable counting
// pass, fragments ordered by ascending count. All bookkeeping is flat int
// slices reused across calls.
//
// The trace hash mixes only the split events (cell position, fragment
// lengths and counts), yet fully determines the partition shape: splits
// are the only shape mutations, each event describes its split
// completely, and trace comparisons in the search only ever happen under
// equal ancestor traces, so equal hashes mean (modulo hash collision,
// which the leaf-depth rules in search tolerate) equal shapes.
func (c *Canonizer) refine() uint64 {
	g := c.g
	h := uint64(fnvOffset)
	for c.qHead < len(c.queue) {
		s := c.queue[c.qHead]
		c.qHead++
		c.inQueue[s] = false
		c.touched = c.touched[:0]
		for i := s; i < s+c.cellLen[s]; i++ {
			for _, w := range g.Neighbors(c.verts[i]) {
				if c.cnt[w] == 0 {
					c.touched = append(c.touched, w)
				}
				c.cnt[w]++
			}
		}
		c.affect = c.affect[:0]
		for _, w := range c.touched {
			cs := c.cellStartOf[w]
			if c.cellLen[cs] > 1 && !c.affMark[cs] {
				c.affMark[cs] = true
				c.affect = append(c.affect, cs)
			}
		}
		// Ascending start position: a deterministic, invariant split order.
		slices.Sort(c.affect)
		for _, cs := range c.affect {
			c.affMark[cs] = false
			h = c.split(cs, h)
		}
		for _, w := range c.touched {
			c.cnt[w] = 0
		}
	}
	c.queue = c.queue[:0]
	c.qHead = 0
	return h
}

// split partitions the cell at cs by the current splitter counts,
// ascending, mixing the split event into the trace hash. Fragments are
// re-queued as future splitters (re-splitting by a fragment of an
// already-processed splitter is redundant but harmless; queueing all
// fragments keeps the worklist logic trivial).
func (c *Canonizer) split(cs int32, h uint64) uint64 {
	cl := c.cellLen[cs]
	members := c.verts[cs : cs+cl]
	first := c.cnt[members[0]]
	uniform := true
	for _, v := range members[1:] {
		if c.cnt[v] != first {
			uniform = false
			break
		}
	}
	if uniform {
		return h
	}
	// Stable insertion sort by count ascending; cells are small in the
	// pattern graphs this serves.
	for i := int32(1); i < cl; i++ {
		v := members[i]
		cv := c.cnt[v]
		j := i
		for j > 0 && c.cnt[members[j-1]] > cv {
			members[j] = members[j-1]
			j--
		}
		members[j] = v
	}
	h = traceMix(h, uint64(cs))
	for i := int32(0); i < cl; {
		j := i + 1
		cv := c.cnt[members[i]]
		for j < cl && c.cnt[members[j]] == cv {
			j++
		}
		start := cs + i
		for k := i; k < j; k++ {
			c.pos[members[k]] = cs + k
			c.cellStartOf[members[k]] = start
		}
		c.cellLen[start] = j - i
		c.pushCell(start)
		h = traceMix(h, uint64(uint32(j-i))<<32|uint64(uint32(cv)))
		i = j
	}
	return h
}

// search explores one node of the individualization–refinement tree: the
// partition individualized along path[:depth] with its fragments queued
// for refinement. hint is a position no greater than the first
// non-singleton cell's: cells below it are discrete and can never change
// again, which keeps the target scan, the snapshot and the restore
// proportional to the still-active suffix of the partition.
func (c *Canonizer) search(depth int, hint int32) {
	c.Nodes++
	inv := c.refine()
	// Trace pruning against the best leaf's path.
	switch {
	case depth < len(c.bestTrace):
		if bt := c.bestTrace[depth]; inv > bt {
			return // dominated: every leaf below trails the best leaf
		} else if inv < bt {
			// Everything below dominates the old best; restart selection.
			c.bestTrace = c.bestTrace[:depth+1]
			c.bestTrace[depth] = inv
			c.haveBest = false
			c.best = c.best[:0]
		}
	case c.haveBest:
		// The best leaf went discrete at a shallower depth under an equal
		// trace prefix; shallower leaves win by definition of the order.
		return
	default:
		c.bestTrace = append(c.bestTrace, inv)
	}
	// Target cell: first non-singleton (an isomorphism-invariant choice —
	// it depends only on the partition shape).
	target, tLen := int32(-1), int32(0)
	for i := hint; i < int32(c.n); i += c.cellLen[i] {
		if l := c.cellLen[i]; l > 1 {
			target, tLen = i, l
			break
		}
	}
	if target < 0 {
		c.leaf(depth)
		return
	}
	snap := c.snapshot(depth, target)
	cands := c.targetList(depth, target, tLen)
	c.path = append(c.path[:depth], 0)
	ufGens := -1 // generators merged into the orbit scratch; -1 = unbuilt
	ufEpoch := 0 // c.ufEpoch as of this node's last merge
	dirty := false
	for ci, v := range cands {
		if ci > 0 && c.nGen > 0 {
			if ufGens >= 0 && c.ufEpoch != ufEpoch {
				// A descendant rebuilt the shared scratch under its own
				// (longer) prefix filter; its unions are valid here too,
				// but unions from this node's earlier generators were
				// dropped — rebuild from all of them.
				ufGens = -1
			}
			ufGens = c.mergeOrbits(ufGens)
			ufEpoch = c.ufEpoch
			if c.inExploredOrbit(v, cands[:ci]) {
				continue // an explored sibling's subtree is its γ-image
			}
		}
		if dirty {
			c.restore(snap, target)
		}
		c.individualize(target, v)
		c.path[depth] = v
		c.pathMark[v] = true
		c.search(depth+1, target)
		c.pathMark[v] = false
		dirty = true
		if c.jump >= 0 {
			// An automorphism γ mapping the best leaf's path onto the
			// current one was just discovered below. Every node strictly
			// between here and the divergence node can abandon its
			// remaining candidates: their subtrees are γ-images of
			// subtrees hanging off the best path, which the DFS has
			// already completed. Unwind to the divergence node, which
			// resumes with the new generator merged into its orbits.
			if c.jump < depth {
				break
			}
			c.jump = -1
		}
	}
	c.path = c.path[:depth]
}

// leaf handles a discrete partition: encode the adjacency under the
// current vertex order and fold it into the best-leaf selection. Equal
// codes from distinct orders witness an automorphism.
func (c *Canonizer) leaf(depth int) {
	c.encode()
	if c.haveBest && len(c.bestTrace) == depth+1 {
		switch bytes.Compare(c.cur, c.best) {
		case -1:
			c.best = append(c.best[:0], c.cur...)
			c.bestPerm = append(c.bestPerm[:0], c.verts...)
			c.bestPath = append(c.bestPath[:0], c.path...)
		case 0:
			c.recordAutomorphism()
			// Backjump to where this path diverged from the best leaf's.
			j := 0
			for j < depth && c.path[j] == c.bestPath[j] {
				j++
			}
			c.jump = j
		}
		return
	}
	// First leaf since the last (re)start of selection, or a shallower
	// leaf than the previous best under an equal prefix.
	c.best = append(c.best[:0], c.cur...)
	c.bestPerm = append(c.bestPerm[:0], c.verts...)
	c.bestPath = append(c.bestPath[:0], c.path...)
	c.bestTrace = c.bestTrace[:depth+1]
	c.haveBest = true
}

// encode writes the labeled adjacency under the current (discrete) vertex
// order into c.cur: per-position labels, a separator, then the
// upper-triangular edge positions in lexicographic order.
func (c *Canonizer) encode() {
	g, n := c.g, c.n
	buf := c.cur[:0]
	for i := 0; i < n; i++ {
		buf = appendVarint(buf, uint64(uint32(g.Label(c.verts[i])))+1)
	}
	buf = append(buf, 0xff)
	for i := 0; i < n; i++ {
		pb := c.posBuf[:0]
		for _, w := range g.Neighbors(c.verts[i]) {
			if p := c.pos[w]; p > int32(i) {
				pb = append(pb, p)
			}
		}
		// Insertion sort: neighbor lists are tiny in pattern graphs.
		for a := 1; a < len(pb); a++ {
			x := pb[a]
			b := a
			for b > 0 && pb[b-1] > x {
				pb[b] = pb[b-1]
				b--
			}
			pb[b] = x
		}
		c.posBuf = pb
		for _, p := range pb {
			buf = appendVarint(buf, uint64(i))
			buf = appendVarint(buf, uint64(p))
		}
	}
	c.cur = buf
}

// seedTwins records the transposition of every pair of pendant twins —
// equal-label degree-1 vertices hanging off the same vertex — as an
// automorphism generator before the search starts. Consecutive pairs
// generate each twin class's full symmetric group, so orbit pruning
// explores one twin per class and depth instead of rediscovering each
// swap at a leaf: a hub with k interchangeable legs costs O(k) search
// nodes, not O(k^2). The code is unchanged, since pruning by any
// automorphism that fixes the prefix skips only subtrees whose leaves
// repeat explored codes. c.verts is in label order here, so twins of one
// class arrive consecutively per neighbor.
func (c *Canonizer) seedTwins() {
	g := c.g
	for i := range c.twin {
		c.twin[i] = -1
	}
	for _, v := range c.verts {
		if g.Degree(v) != 1 {
			continue
		}
		w := g.Neighbors(v)[0]
		if u := c.twin[w]; u >= 0 && g.Label(u) == g.Label(v) && c.nGen < maxGens {
			c.pushGen(append(c.genBuf(), u, v, v, u))
		}
		c.twin[w] = v
	}
}

// recordAutomorphism derives the automorphism mapping the best leaf's
// order onto the current leaf's order and keeps its support — flattened
// (vertex, image) pairs — as an orbit-pruning generator.
func (c *Canonizer) recordAutomorphism() {
	if c.nGen >= maxGens {
		return
	}
	gamma := c.genBuf()
	for i := 0; i < c.n; i++ {
		if c.bestPerm[i] != c.verts[i] {
			gamma = append(gamma, c.bestPerm[i], c.verts[i])
		}
	}
	if len(gamma) == 0 {
		return // identity: distinct leaves always differ, but be safe
	}
	c.pushGen(gamma)
}

// genBuf returns generator slot nGen's retained backing array, emptied,
// for the caller to fill and hand to pushGen.
func (c *Canonizer) genBuf() []int32 {
	if c.nGen < len(c.gens) {
		return c.gens[c.nGen][:0]
	}
	return nil
}

// pushGen stores gamma as live generator nGen.
func (c *Canonizer) pushGen(gamma []int32) {
	if c.nGen < len(c.gens) {
		c.gens[c.nGen] = gamma
	} else {
		c.gens = append(c.gens, gamma)
	}
	c.nGen++
}

// mergeOrbits folds generators gens[done:nGen] that fix the current
// individualized prefix into the orbit union-find, (re)initializing it on
// first use at this node, and returns the new done count. A generator
// fixes the prefix iff no path vertex is in its support, so both the
// check and the union pass are O(support), not O(n).
func (c *Canonizer) mergeOrbits(done int) int {
	if done < 0 {
		for i := range c.uf {
			c.uf[i] = int32(i)
		}
		c.ufEpoch++
		done = 0
	}
	for ; done < c.nGen; done++ {
		gamma := c.gens[done]
		fixes := true
		for i := 0; i < len(gamma); i += 2 {
			if c.pathMark[gamma[i]] {
				fixes = false
				break
			}
		}
		if !fixes {
			continue
		}
		for i := 0; i < len(gamma); i += 2 {
			c.union(gamma[i], gamma[i+1])
		}
	}
	return done
}

// inExploredOrbit reports whether v shares an orbit with any earlier
// candidate (explored ones and, transitively through the union-find,
// candidates those subsumed).
func (c *Canonizer) inExploredOrbit(v int32, earlier []int32) bool {
	rv := c.find(v)
	for _, u := range earlier {
		if c.find(u) == rv {
			return true
		}
	}
	return false
}

func (c *Canonizer) find(x int32) int32 {
	for c.uf[x] != x {
		c.uf[x] = c.uf[c.uf[x]]
		x = c.uf[x]
	}
	return x
}

func (c *Canonizer) union(a, b int32) {
	ra, rb := c.find(a), c.find(b)
	switch {
	case ra == rb:
	case ra < rb:
		c.uf[rb] = ra
	default:
		c.uf[ra] = rb
	}
}

// individualize splits {v} off the front of the cell at cs and queues
// both fragments for refinement.
func (c *Canonizer) individualize(cs, v int32) {
	pv := c.pos[v]
	u := c.verts[cs]
	c.verts[cs], c.verts[pv] = v, u
	c.pos[v], c.pos[u] = cs, pv
	cl := c.cellLen[cs]
	c.cellLen[cs] = 1
	c.cellStartOf[v] = cs
	rest := cs + 1
	c.cellLen[rest] = cl - 1
	for i := rest; i < cs+cl; i++ {
		c.cellStartOf[c.verts[i]] = rest
	}
	c.pushCell(cs)
	c.pushCell(rest)
}

// snapshot saves the mutable suffix of the partition (positions from the
// target cell on — everything below is discrete and frozen) into the
// per-depth scratch; restore undoes a child's mutations before the next
// sibling branch. Only verts and cellLen are stored: pos and cellStartOf
// are recomputed from them on restore, so the snapshot is two copies of
// the active suffix, not four of the whole partition.
func (c *Canonizer) snapshot(depth int, from int32) []int32 {
	for len(c.snaps) <= depth {
		c.snaps = append(c.snaps, nil)
	}
	w := int(int32(c.n) - from)
	s := c.snaps[depth]
	if cap(s) < 2*w {
		s = make([]int32, 2*w)
	}
	s = s[:2*w]
	copy(s[:w], c.verts[from:])
	copy(s[w:], c.cellLen[from:])
	c.snaps[depth] = s
	return s
}

func (c *Canonizer) restore(s []int32, from int32) {
	w := int(int32(c.n) - from)
	copy(c.verts[from:], s[:w])
	copy(c.cellLen[from:], s[w:])
	for i := from; i < int32(c.n); i += c.cellLen[i] {
		for j := i; j < i+c.cellLen[i]; j++ {
			v := c.verts[j]
			c.pos[v] = j
			c.cellStartOf[v] = i
		}
	}
}

// targetList copies the target cell's members into per-depth scratch (the
// live partition mutates during child exploration).
func (c *Canonizer) targetList(depth int, cs, cl int32) []int32 {
	for len(c.targets) <= depth {
		c.targets = append(c.targets, nil)
	}
	t := append(c.targets[depth][:0], c.verts[cs:cs+cl]...)
	c.targets[depth] = t
	return t
}
