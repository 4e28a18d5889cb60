package spider

import (
	"context"
	"slices"

	"repro/internal/graph"
	"repro/internal/par"
)

// StarMiner is the reusable Stage I engine: it mines the frequent stars of
// a host graph level-wise, owning every table the enumeration needs as
// flat, label-sorted scratch grown once and reused across runs. The zero
// value is ready to use.
//
// Ownership contract: the []*MinedStar returned by Mine — the stars, their
// Hosts and Leaves slices — is carved out of the StarMiner's arenas and is
// INVALIDATED by the next Mine call on the same StarMiner. The package
// function MineStarsContext uses a throwaway StarMiner, so its output is
// caller-owned forever; the spidermine Miner holds a StarMiner across runs
// and rebuilds its catalog from each run's output before the next.
//
// Internals, replacing the historical map-based level tables:
//
//   - nbrOff/nbrFlat: CSR-shaped per-vertex sorted neighbor-label table
//     (was [][]graph.Label of per-chunk carved slices);
//   - roots: one leafless star per head label carried by at least σ
//     vertices, its hosts that label's vertices ascending — grouped by a
//     stable radix pass over the labels, no comparator sort. Level 1 is
//     expand of these empty stars, so there is no separate level-1 path;
//   - expansion: per-worker starScratch ((label, host) key buffer plus
//     the output arenas), with per-item output spans concatenated in
//     frontier order, so results stay bit-identical for any worker count.
type StarMiner struct {
	nbrFlat []graph.Label
	nbrOff  []int32

	roots           []MinedStar
	heads, headsTmp []graph.V

	all, frontier, next []*MinedStar
	spans               []expandSpan
	chunks              [][2]int
	ws                  par.Workspace[starScratch]

	// Per-call state for the persistent par.Do bodies below. A closure
	// passed to par.Do escapes (it may run on spawned goroutines), so an
	// inline literal heap-allocates on every call; these capture only sm
	// and read their per-call inputs from here, allocating once per
	// StarMiner instead of once per run/level.
	curG        *graph.Graph
	curSigma    int
	curFrontier []*MinedStar
	curScrs     []*starScratch
	csrFn       func(worker, item int)
	expFn       func(worker, item int)

	// capped records whether the last Mine stopped at Options.MaxSpiders;
	// see Capped.
	capped bool
}

// Capped reports whether the last Mine call stopped at Options.MaxSpiders:
// either the level loop broke on the cap while frontier stars below
// MaxLeaves were still waiting to expand, or the last level was cut to
// fit the cap. A capped catalog may miss frequent stars, so results built
// on it are truncated by a budget.
func (sm *StarMiner) Capped() bool { return sm.capped }

// expandSpan records which worker's output buffer holds one frontier
// item's extensions, for the ordered concatenation after the join.
type expandSpan struct {
	w, lo, hi int32
}

// starScratch is one worker's expansion state: the transient
// (label, host) key buffer plus the arenas that back the retained output
// (hosts, leaf multisets, MinedStar structs). Worker i owns scratch i for
// the duration of a level; arenas reset only between runs, never between
// levels, so every star of a run stays valid until the next Mine.
type starScratch struct {
	keys []uint64
	out  []*MinedStar

	hostArena arena[graph.V]
	leafArena arena[graph.Label]
	stars     arena[MinedStar]
}

// labelBits maps a label to a uint32 whose unsigned order is the labels'
// signed order: flipping the sign bit keeps negative labels below
// non-negative ones.
func labelBits(l graph.Label) uint32 { return uint32(l) ^ 1<<31 }

// extKey packs one extension observation of expand — host v has room
// for one more leaf labeled l — into a key whose unsigned order is
// (label, host) order.
func extKey(l graph.Label, v graph.V) uint64 {
	return uint64(labelBits(l))<<32 | uint64(uint32(v))
}

func extLabel(k uint64) graph.Label { return graph.Label(int32(uint32(k>>32) ^ 1<<31)) }

func extHost(k uint64) graph.V { return graph.V(uint32(k)) }

func (s *starScratch) resetRun() {
	s.hostArena.reset()
	s.leafArena.reset()
	s.stars.reset()
}

// arena is a grow-once block allocator for run-scoped output: alloc carves
// capacity-capped slices from the current block (so append on a carved
// slice can never alias its neighbor), and reset recycles the arena for
// the next run, upsizing the block to the previous run's total demand so
// warm runs carve everything from one allocation.
type arena[T any] struct {
	cur  []T
	used int
}

func (a *arena[T]) alloc(n int) []T {
	a.used += n
	if len(a.cur)+n > cap(a.cur) {
		sz := 2 * cap(a.cur)
		if sz < 1024 {
			sz = 1024
		}
		for sz < n {
			sz <<= 1
		}
		a.cur = make([]T, 0, sz)
	}
	lo := len(a.cur)
	a.cur = a.cur[:lo+n]
	return a.cur[lo : lo+n : lo+n]
}

func (a *arena[T]) reset() {
	if a.used > cap(a.cur) {
		sz := 1024
		for sz < a.used {
			sz <<= 1
		}
		a.cur = make([]T, 0, sz)
	}
	a.cur = a.cur[:0]
	a.used = 0
}

func growI32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

// buildRoots sets sm.roots to the leafless star of every head label that
// at least sigma vertices carry, labels ascending, each with that label's
// vertices ascending as hosts. The grouping is a stable LSD radix sort of
// the vertex ids on labelBits, skipping the bytes on which every label
// agrees, so labels in 0..255 cost one counting pass.
func (sm *StarMiner) buildRoots(g *graph.Graph, sigma int) {
	labels := g.Labels()
	n := len(labels)
	heads := growI32(sm.heads, n)
	tmp := growI32(sm.headsTmp, n)
	var vary uint32
	for v, l := range labels {
		heads[v] = graph.V(v)
		vary |= uint32(l ^ labels[0]) // the bits labelBits can differ in
	}
	for shift := 0; shift < 32; shift += 8 {
		if vary>>shift&0xff == 0 {
			continue
		}
		var pos [256]int32
		for _, v := range heads {
			pos[labelBits(labels[v])>>shift&0xff]++
		}
		sum := int32(0)
		for b, c := range pos {
			pos[b] = sum
			sum += c
		}
		for _, v := range heads {
			b := labelBits(labels[v]) >> shift & 0xff
			tmp[pos[b]] = v
			pos[b]++
		}
		heads, tmp = tmp, heads
	}
	sm.heads, sm.headsTmp = heads, tmp

	roots := sm.roots[:0]
	for i := 0; i < n; {
		l := labels[heads[i]]
		j := i + 1
		for j < n && labels[heads[j]] == l {
			j++
		}
		if j-i >= sigma {
			roots = append(roots, MinedStar{Star: Star{Head: l}, Hosts: heads[i:j:j]})
		}
		i = j
	}
	sm.roots = roots
}

func (sm *StarMiner) nbrLabels(v graph.V) []graph.Label {
	return sm.nbrFlat[sm.nbrOff[v]:sm.nbrOff[v+1]]
}

// Mine enumerates all frequent stars of g level-wise; see MineStarsContext
// for the level-commit cancellation contract and the package comment for
// the output-ownership contract.
func (sm *StarMiner) Mine(ctx context.Context, g *graph.Graph, opt Options) ([]*MinedStar, error) {
	sigma := opt.MinSupport
	if sigma < 1 {
		sigma = 1
	}
	maxLeaves := opt.MaxLeaves
	if maxLeaves <= 0 {
		maxLeaves = g.MaxDegree()
	}
	for _, s := range sm.ws.All() {
		s.resetRun()
	}
	sm.capped = false

	// Per-vertex sorted neighbor-label table, CSR-shaped. Chunks partition
	// the vertex range contiguously, so workers write disjoint segments.
	n := g.N()
	sm.nbrOff = growI32(sm.nbrOff, n+1)
	total := 0
	for v := 0; v < n; v++ {
		sm.nbrOff[v] = int32(total)
		total += g.Degree(graph.V(v))
	}
	sm.nbrOff[n] = int32(total)
	if cap(sm.nbrFlat) < total {
		sm.nbrFlat = make([]graph.Label, total)
	}
	sm.nbrFlat = sm.nbrFlat[:total]
	sm.chunks = par.AppendChunks(sm.chunks[:0], n, opt.Workers)
	chunks := sm.chunks
	sm.curG = g
	if sm.csrFn == nil {
		sm.csrFn = func(_, ci int) {
			g, c := sm.curG, sm.chunks[ci]
			for v := c[0]; v < c[1]; v++ {
				seg := sm.nbrFlat[sm.nbrOff[v]:sm.nbrOff[v+1]]
				for i, w := range g.Neighbors(graph.V(v)) {
					seg[i] = g.Label(w)
				}
				slices.Sort(seg)
			}
		}
	}
	if err := par.Do(ctx, len(chunks), len(chunks), sm.csrFn); err != nil {
		return nil, err
	}

	// Level 1 is the expansion of the leafless root stars: roots come in
	// ascending head label order and expand emits leaf labels ascending,
	// so the level is already in (head, leaf) order.
	sm.buildRoots(g, sigma)
	frontier := sm.frontier[:0]
	for i := range sm.roots {
		frontier = append(frontier, &sm.roots[i])
	}
	sm.frontier = frontier
	level1, err := sm.expandLevel(ctx, g, frontier, sigma, opt.Workers, sm.next[:0])
	if err != nil {
		return nil, err
	}
	all := append(sm.all[:0], level1...)
	cur, spare := level1, frontier
	for level := 1; level < maxLeaves && len(cur) > 0; level++ {
		if opt.MaxSpiders > 0 && len(all) >= opt.MaxSpiders {
			sm.capped = true
			break
		}
		next, err := sm.expandLevel(ctx, g, cur, sigma, opt.Workers, spare[:0])
		if err != nil {
			// Return only fully committed levels: the partial catalog is
			// then a deterministic function of how many levels completed.
			sm.all = all
			return all, err
		}
		// Canonical generation (extend only with labels >= last) guarantees
		// uniqueness already; sort for determinism.
		sortMined(next)
		all = append(all, next...)
		cur, spare = next, cur
	}
	sm.frontier, sm.next = cur, spare
	if opt.MaxSpiders > 0 && len(all) > opt.MaxSpiders {
		all = all[:opt.MaxSpiders]
		sm.capped = true
	}
	sm.all = all
	return all, nil
}

// expandLevel extends every frontier star by one leaf, sharded across
// workers. Per-item outputs land in per-worker append buffers with spans
// recorded per item; concatenating spans in frontier order reproduces the
// sequential output for any worker count.
func (sm *StarMiner) expandLevel(ctx context.Context, g *graph.Graph, frontier []*MinedStar, sigma, workers int, dst []*MinedStar) ([]*MinedStar, error) {
	wk := par.Bound(len(frontier), workers)
	scrs := sm.ws.For(wk)
	for _, s := range scrs {
		s.out = s.out[:0]
	}
	if cap(sm.spans) < len(frontier) {
		sm.spans = make([]expandSpan, len(frontier))
	}
	spans := sm.spans[:len(frontier)]
	sm.curG, sm.curSigma, sm.curFrontier, sm.curScrs = g, sigma, frontier, scrs
	if sm.expFn == nil {
		sm.expFn = func(w, i int) {
			s := sm.curScrs[w]
			lo := len(s.out)
			sm.expand(sm.curG, sm.curFrontier[i], sm.curSigma, s)
			sm.spans[i] = expandSpan{w: int32(w), lo: int32(lo), hi: int32(len(s.out))}
		}
	}
	err := par.Do(ctx, len(frontier), wk, sm.expFn)
	sm.curFrontier, sm.curScrs = nil, nil
	if err != nil {
		return nil, err
	}
	for _, sp := range spans {
		dst = append(dst, scrs[sp.w].out[sp.lo:sp.hi]...)
	}
	return dst, nil
}

// expand appends to s.out every frequent one-leaf extension of ms whose
// new leaf label is >= the star's last leaf (canonical generation order),
// labels ascending, each with its hosts ascending. One pass over each
// host's sorted neighbor labels, from the last leaf label on (from the
// start for a leafless root), emits a (label, host) key for every label
// run long enough to hold one more leaf of that label: 1, or 1 + last's
// multiplicity among the leaves when the label is last (every other
// candidate label exceeds all leaves). Sorting the keys orders them by
// label, and within a label by host — the order the ascending ms.Hosts
// emitted them in, so this is the stable label sort — and cuts them into
// per-label host lists.
func (sm *StarMiner) expand(g *graph.Graph, ms *MinedStar, sigma int, s *starScratch) {
	leaves := ms.Star.Leaves
	var last graph.Label
	needLast := 1
	if len(leaves) > 0 {
		last = leaves[len(leaves)-1]
		for i := len(leaves) - 1; i >= 0 && leaves[i] == last; i-- {
			needLast++
		}
	}
	keys := s.keys[:0]
	for _, v := range ms.Hosts {
		ls := sm.nbrLabels(v)
		i := 0
		if len(leaves) > 0 {
			i, _ = slices.BinarySearch(ls, last)
		}
		for i < len(ls) {
			l := ls[i]
			j := i + 1
			for j < len(ls) && ls[j] == l {
				j++
			}
			need := 1
			if l == last {
				need = needLast
			}
			if j-i >= need {
				keys = append(keys, extKey(l, v))
			}
			i = j
		}
	}
	slices.Sort(keys)
	s.keys = keys

	for i := 0; i < len(keys); {
		l := extLabel(keys[i])
		j := i + 1
		for j < len(keys) && keys[j]>>32 == keys[i]>>32 {
			j++
		}
		if j-i >= sigma {
			hosts := s.hostArena.alloc(j - i)
			for k := i; k < j; k++ {
				hosts[k-i] = extHost(keys[k])
			}
			lcopy := s.leafArena.alloc(len(leaves) + 1)
			copy(lcopy, leaves)
			lcopy[len(leaves)] = l // l >= last: appending keeps the multiset sorted
			nms := &s.stars.alloc(1)[0]
			*nms = MinedStar{Star: Star{Head: ms.Star.Head, Leaves: lcopy}, Hosts: hosts}
			s.out = append(s.out, nms)
		}
		i = j
	}
}
