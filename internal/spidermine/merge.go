package spidermine

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// checkMerges detects pairs of working patterns whose embeddings overlap on
// host vertices and merges them when the union subgraph is frequent
// (Algorithm 4). The paper avoids pairwise checks by watching for the same
// spider (host head) being used by different patterns; we watch host-vertex
// usage, which is the materialized equivalent.
//
// A successful merge removes both parents from the working set and adds the
// merged pattern, marked Merged for Stage II pruning. The merged pattern's
// embeddings are the iso-consistent union images.
//
// On cancellation checkMerges returns the input set unchanged together
// with ctx.Err() (merges already applied this round stay on ws's
// patterns' wrappers only via the returned slice, which the caller then
// discards in favor of its committed snapshot). A working set too large
// for packed merge keys (checkMergeKeyRange) is returned unchanged with
// an error.
func (m *Miner) checkMerges(ws []*grown) ([]*grown, error) {
	if len(ws) < 2 {
		return ws, nil
	}
	if err := checkMergeKeyRange(len(ws)); err != nil {
		return ws, err
	}
	// usage is indexed by host vertex id and kept on the Miner across
	// rounds (checkMerges runs sequentially); only the touched entries are
	// filled and they are truncated again before the pair scan returns, so
	// each round is O(touched), not O(N).
	if len(m.mergeUsage) < m.g.N() {
		m.mergeUsage = make([][]usageSlot, m.g.N())
	}
	usage := m.mergeUsage
	touched := m.touched[:0]
	for wi, w := range ws {
		embs := w.p.Emb
		if len(embs) > mergeScanEmb {
			embs = embs[:mergeScanEmb]
		}
		for ei, e := range embs {
			for _, hv := range e {
				if len(usage[hv]) == 0 {
					touched = append(touched, hv)
				}
				usage[hv] = append(usage[hv], usageSlot{wi, ei})
			}
		}
	}
	m.touched = touched
	// Collect overlapping (pattern pair, embedding pair) candidates into
	// the flat reused list, deduplicated, with MergePairCap applied per
	// pattern pair in discovery order — exactly the set the historical
	// map-of-maps kept (first cap distinct embedding pairs per pattern
	// pair, in the order the usage scan surfaces them).
	if m.candSeen == nil {
		m.candSeen = make(map[uint64]struct{})
		m.pairCount = make(map[uint64]int)
	} else {
		clear(m.candSeen)
		clear(m.pairCount)
	}
	cands := m.mergeCands[:0]
	for _, hv := range touched {
		slots := usage[hv]
		usage[hv] = usage[hv][:0]
		if len(slots) < 2 {
			continue
		}
		for i := 0; i < len(slots); i++ {
			for j := i + 1; j < len(slots); j++ {
				a, b := slots[i], slots[j]
				if a.w == b.w {
					continue
				}
				if a.w > b.w {
					a, b = b, a
				}
				c := packCand(a.w, b.w, a.emb, b.emb)
				if _, dup := m.candSeen[c]; dup {
					continue
				}
				pk := c >> candPairShift
				if m.pairCount[pk] >= m.cfg.MergePairCap {
					continue
				}
				m.candSeen[c] = struct{}{}
				m.pairCount[pk]++
				cands = append(cands, c)
			}
		}
	}
	if len(cands) == 0 {
		m.mergeCands = cands
		return ws, nil
	}
	// Deterministic evaluation order: the packed keys sort as
	// (a, b, ea, eb) and cut into per-pattern-pair groups — the same order
	// the historical sorted-keys + per-key sorted-pairs walk produced.
	slices.Sort(cands)
	m.mergeCands = cands
	groups := m.pairGroups[:0]
	for i := 0; i < len(cands); {
		j := i + 1
		for j < len(cands) && cands[j]>>candPairShift == cands[i]>>candPairShift {
			j++
		}
		a, b := candPair(cands[i])
		groups = append(groups, pairGroup{pk: pairKey{a, b}, lo: int32(i), hi: int32(j)})
		i = j
	}
	m.pairGroups = groups

	consumed := m.consumed.For(len(ws))
	var merged []*grown
	// apply is the ordered reduction step shared by the sequential and
	// parallel paths: accept a merge, number it, and retire its parents.
	apply := func(pk pairKey, mp *pattern.Pattern) {
		mp.ID = m.newID()
		consumed[pk.a] = true
		consumed[pk.b] = true
		m.stats.Merges++
		radius := ws[pk.a].radius
		if r := ws[pk.b].radius; r > radius {
			radius = r
		}
		merged = append(merged, &grown{p: mp, radius: radius})
	}
	if workers := m.workerCount(len(groups)); workers > 1 {
		if err := m.mergeParallel(ws, groups, workers, consumed, apply); err != nil {
			return ws, err
		}
	} else {
		sc := m.mergeWS.For(1)[0]
		defer m.stats.addCanon(&sc.cz)
		for _, gp := range groups {
			if m.done != nil {
				if err := m.cancelled(); err != nil {
					return ws, err
				}
			}
			if consumed[gp.pk.a] || consumed[gp.pk.b] {
				continue
			}
			mp := m.tryMerge(ws[gp.pk.a].p, ws[gp.pk.b].p, cands[gp.lo:gp.hi], sc, &m.stats.IsoRun)
			if mp != nil {
				apply(gp.pk, mp)
			}
		}
	}
	if len(merged) == 0 {
		return ws, nil
	}
	out := make([]*grown, 0, len(ws))
	for i, w := range ws {
		if !consumed[i] {
			out = append(out, w)
		}
	}
	return append(out, merged...), nil
}

// usageSlot names one embedding of one working pattern during overlap
// detection.
type usageSlot struct {
	w   int // index into ws
	emb int // embedding index
}

// pairKey identifies an unordered pair of working patterns (a < b, both
// indices into ws) during a merge round.
type pairKey struct{ a, b int }

// A merge candidate — patterns ws[a], ws[b] (a < b) overlap on
// embeddings Emb[ea], Emb[eb] — is the packed key
// a<<40 | b<<16 | ea<<8 | eb, whose unsigned order is (a, b, ea, eb)
// order and whose top 48 bits (key >> candPairShift) name the pattern
// pair. Embedding indices fit their 8 bits because overlap detection
// samples at most mergeScanEmb embeddings per pattern; pattern indices fit
// their 24 bits by checkMergeKeyRange.
const (
	// mergeScanEmb caps the embeddings per pattern that overlap detection
	// samples: merging only needs *one* overlapping pair per site, and the
	// usage index otherwise grows as patterns × embeddings × pattern size.
	mergeScanEmb  = 256
	candEmbBits   = 8
	candPatBits   = 24
	candPairShift = 2 * candEmbBits
	// maxMergePatterns is the largest working set whose pattern indices
	// fit a packed key.
	maxMergePatterns = 1 << candPatBits
)

// Compile-time check that every sampled embedding index fits its field.
const _ uint = 1<<candEmbBits - mergeScanEmb

func packCand(a, b, ea, eb int) uint64 {
	return uint64(a)<<(candPairShift+candPatBits) | uint64(b)<<candPairShift | uint64(ea)<<candEmbBits | uint64(eb)
}

// candPair returns the pattern pair (a, b) of a packed candidate.
func candPair(c uint64) (a, b int) {
	return int(c >> (candPairShift + candPatBits)), int(c >> candPairShift & (1<<candPatBits - 1))
}

// candEmbs returns the embedding pair (ea, eb) of a packed candidate.
func candEmbs(c uint64) (ea, eb int) {
	return int(c >> candEmbBits & (1<<candEmbBits - 1)), int(c & (1<<candEmbBits - 1))
}

// checkMergeKeyRange rejects a working set too large for packed merge
// keys, which would otherwise alias distinct pattern pairs.
func checkMergeKeyRange(patterns int) error {
	if patterns > maxMergePatterns {
		return fmt.Errorf("spidermine: %d working patterns exceed the merge index bound of %d", patterns, maxMergePatterns)
	}
	return nil
}

// pairGroup is one pattern pair's contiguous run of candidates in the
// sorted mergeCands list.
type pairGroup struct {
	pk     pairKey
	lo, hi int32
}

// mbucket is one structure class of union subgraphs during tryMerge:
// the representative graph with its canonical code and labelling (perm[p]
// is the repr vertex at code position p), its iso-consistent embeddings,
// and the 128-bit image-hash dedupe set. Buckets are pooled per worker in
// mergeScratch; the winner's embs list is copied out, so the backing
// arrays recycle.
type mbucket struct {
	code []byte
	perm []graph.V
	repr *graph.Graph
	embs []pattern.Embedding
	seen map[[2]uint64]struct{}
}

// mergeScratch is one worker's tryMerge state: mapped-edge and union
// buffers, the union-hash dedupe set, the subgraph scratch (endpoint
// table and builder), the bucket pool, the Canonizer that keys buckets and
// its code buffer, and the isomorphism scratch for non-rigid unions.
// Owned by exactly one worker for the duration of a merge wave; the
// Canonizer's counters are folded into Stats at the wave's join.
type mergeScratch struct {
	bufA, bufB []graph.Edge
	unionBuf   []graph.Edge
	imgBuf     []graph.Edge
	seenUnions map[[2]uint64]struct{}
	sub        graph.SubgraphScratch
	buckets    []*mbucket
	cz         canon.Canonizer
	code       []byte
	iso        canon.Iso
}

// tryMerge builds union subgraphs for each candidate embedding pair (the
// caller's presorted slice), buckets them by structure, and if the largest
// structure class is frequent, returns it as the merged pattern (ID
// unassigned — the caller's ordered reduction numbers accepted merges).
// Returns nil if no frequent merged structure exists.
//
// Each distinct union is canonicalised once and finds its bucket by exact
// code bytes. A rigid union's embedding is re-expressed by composing the
// two canonical labellings; only a union with automorphisms pays one
// MapInto against the matching bucket, whose first match fixes the
// embedding vertex order.
//
// tryMerge is read-only on pa, pb, and the Miner, and confines its
// mutable state to sc, so merge rounds may evaluate many pairs
// concurrently; isoRun is the caller-owned (per-worker when parallel)
// counter of those fallback MapInto calls.
func (m *Miner) tryMerge(pa, pb *pattern.Pattern, eps []uint64, sc *mergeScratch, isoRun *int64) *pattern.Pattern {
	if sc.seenUnions == nil {
		sc.seenUnions = make(map[[2]uint64]struct{})
	} else {
		clear(sc.seenUnions)
	}
	// used counts live buckets this call; entries beyond it are pool
	// leftovers from earlier calls.
	used := 0

	for _, c := range eps {
		ea, eb := candEmbs(c)
		if ea >= len(pa.Emb) || eb >= len(pb.Emb) {
			continue
		}
		sc.bufA = canon.AppendMappedEdges(sc.bufA[:0], pa.G, canon.Mapping(pa.Emb[ea]))
		sc.bufB = canon.AppendMappedEdges(sc.bufB[:0], pb.G, canon.Mapping(pb.Emb[eb]))
		// Distinct embedding pairs routinely produce the same union edge
		// set; the subgraph build, diameter check and isomorphism bucketing
		// are all no-ops for a repeat (the image hash dedupes it anyway), so
		// skip them wholesale on a 128-bit hash of the sorted union (see
		// canon.HashEdges for the collision trade-off).
		sc.unionBuf = graph.AppendUnionEdges(sc.unionBuf[:0], sc.bufA, sc.bufB)
		union := sc.unionBuf
		uh := canon.HashEdges(union)
		if _, dup := sc.seenUnions[uh]; dup {
			continue
		}
		sc.seenUnions[uh] = struct{}{}
		ug, verts := m.g.SubgraphOfEdgesInto(union, &sc.sub)
		// Merged patterns must be connected and respect the diameter
		// bound; a union that exceeds Dmax cannot be a subgraph of a valid
		// result pattern that this merge is meant to witness.
		if !ug.ConnectedWithin(m.cfg.Dmax) {
			continue
		}
		// One canonicalisation per distinct union; its code names the
		// bucket exactly (buckets are pairwise non-isomorphic).
		var perm []graph.V
		var rigid bool
		sc.code, perm, rigid = sc.cz.AppendLabeling(sc.code[:0], ug)
		var bk *mbucket
		for _, b := range sc.buckets[:used] {
			if bytes.Equal(b.code, sc.code) {
				bk = b
				break
			}
		}
		if bk != nil {
			// Re-express the union's embedding in repr's vertex order: repr
			// vertex i hosts the image of the union vertex mapped onto i.
			re := make(pattern.Embedding, len(verts))
			if rigid {
				// The isomorphism is unique, so composing the two canonical
				// labellings yields exactly what MapInto would find.
				for p, v := range perm {
					re[bk.perm[p]] = verts[v]
				}
			} else {
				// Automorphisms leave a choice of isomorphism; MapInto's
				// first match fixes the embedding's vertex order.
				mapping := sc.iso.MapInto(ug, bk.repr)
				*isoRun++
				if mapping == nil {
					panic("spidermine: equal canonical codes without an isomorphism")
				}
				for ugv, reprv := range mapping {
					re[reprv] = verts[ugv]
				}
			}
			var h [2]uint64
			h, sc.imgBuf = canon.ImageHash(sc.imgBuf, bk.repr, canon.Mapping(re))
			if _, dup := bk.seen[h]; !dup {
				bk.seen[h] = struct{}{}
				bk.embs = append(bk.embs, re)
			}
			continue
		}
		if used < len(sc.buckets) {
			bk = sc.buckets[used]
			bk.embs = bk.embs[:0]
			clear(bk.seen)
		} else {
			bk = &mbucket{seen: make(map[[2]uint64]struct{})}
			sc.buckets = append(sc.buckets, bk)
		}
		used++
		bk.code = append(bk.code[:0], sc.code...)
		bk.perm = append(bk.perm[:0], perm...)
		bk.repr = ug
		emb := make(pattern.Embedding, len(verts))
		copy(emb, verts)
		var h [2]uint64
		h, sc.imgBuf = canon.ImageHash(sc.imgBuf, ug, canon.Mapping(emb))
		bk.seen[h] = struct{}{}
		bk.embs = append(bk.embs, emb)
	}

	// Choose the best frequent bucket: largest structure first, then most
	// embeddings, then a canonical tie-break on the smallest image key of
	// its embeddings (evaluation order must not leak into results). The
	// exact ImageKey strings are kept — the tie-break must order total —
	// but they are built only when two frequent buckets tie on edges and
	// embeddings; bestKey is then filled lazily for the incumbent.
	var best *mbucket
	bestKey, haveKey := "", false
	firstKey := func(bk *mbucket) string {
		if len(bk.embs) == 0 {
			return ""
		}
		k := bk.embs[0].ImageKey(bk.repr)
		for _, e := range bk.embs[1:] {
			if ek := e.ImageKey(bk.repr); ek < k {
				k = ek
			}
		}
		return k
	}
	for _, bk := range sc.buckets[:used] {
		if m.supFn(bk.repr, bk.embs) < m.cfg.MinSupport {
			continue
		}
		switch {
		case best == nil,
			bk.repr.M() > best.repr.M(),
			bk.repr.M() == best.repr.M() && len(bk.embs) > len(best.embs):
			best, haveKey = bk, false
		case bk.repr.M() == best.repr.M() && len(bk.embs) == len(best.embs):
			if !haveKey {
				bestKey, haveKey = firstKey(best), true
			}
			if k := firstKey(bk); k < bestKey {
				best, bestKey = bk, k
			}
		}
	}
	if best == nil {
		return nil
	}
	// The bucket's embedding list is pooled scratch — copy the winner out.
	embs := make([]pattern.Embedding, len(best.embs))
	copy(embs, best.embs)
	mp := pattern.New(best.repr, embs)
	mp.Merged = true
	mp.Origin = -1 // merged patterns grow from their entire rim
	return mp
}
