// Package spidermine implements the SpiderMine algorithm (Algorithm 1 of
// the paper): probabilistic mining of the top-K largest frequent patterns
// of a single massive network, with diameter bound Dmax and success
// probability 1−ε.
//
// The three stages:
//
//	Stage I   — mine all frequent r-spiders (internal/spider).
//	Stage II  — draw M random seed spiders (M from Lemma 2), grow each by
//	            SpiderGrow for ⌈Dmax/2r⌉ iterations, merging patterns whose
//	            embeddings start to overlap; prune everything unmerged.
//	Stage III — grow survivors to maximality; return the K largest.
//
// # Performance notes: pooled mining state
//
// The Miner owns every table and scratch buffer the pipeline needs and
// reuses them across iterations, restarts, and (via Reset) runs on new
// hosts. The per-iteration engines allocate only for retained output —
// the patterns, graphs, and embedding lists that outlive the iteration —
// never for intermediate state. The pooled structures and their
// invariants:
//
//   - Frequent-pair index (freqPairs): the Stage I single-leaf stars as a
//     flat (head, leaf) list sorted by cmpLabelPair, replacing the
//     historical per-run map[[2]Label]bool. Lookups are binary searches
//     (freqLeavesOf returns the contiguous run for a head; hasLeaf
//     searches within it). Rebuilt in place at the start of every run;
//     read-only — and therefore safely shared across workers — once
//     mining starts.
//   - Stage I tables: the spider.StarMiner is held by value and owns its
//     CSR neighbor-label table, level frontiers, and output arenas; its
//     stars are carved from those arenas and are invalidated by the next
//     run, so the Miner rebuilds its spider.Catalog (also pooled, also
//     flat) from each run's output before touching the next.
//   - Per-worker scratch arenas (par.Workspace): one growScratch /
//     mergeScratch / canon.Matcher per worker, allocated per-worker-once
//     and reused across passes, runs, and restarts. Scratch contents are
//     epoch-stamped (mark arrays) or length-reset; nothing in a scratch
//     may be referenced by retained output — anything that survives the
//     call is copied out (e.g. merge winners copy their embedding lists
//     out of the pooled buckets).
//   - Worker-indexed accumulators (par.Slots): progress flags, iso-run
//     counters, and the group-indexed merge memo (tryMerge results and
//     their evaluated flags) with its predicted-consumed copy, zero-filled
//     on For and reduced in item order, preserving the PR 2 determinism
//     contract (bit-identical results for any worker count).
//   - Retained embeddings are carved from exact-capacity flat backing
//     ([]graph.V sized before the append loop), so growing one pattern's
//     embedding list can never reallocate under a neighbor's sub-slice.
//
// # Performance notes: Stage I expansion and merge identity
//
// The two layers that dominate a GID-10 mine each do their identity or
// counting work once:
//
//   - Stage I expansion (spider.StarMiner.expand) makes one pass over each
//     host's sorted neighbor-label slice, from the star's last leaf label
//     on, and emits a packed (label, host) key for every label run long
//     enough for one more leaf; one sort of the keys (hosts arrive
//     ascending, so this is the stable label order) cuts them into the
//     per-label host lists. Output order is labels ascending, hosts
//     ascending. Level 1 is the same expansion of one leafless root star
//     per head label, so there is no separate level-1 path.
//   - Merge buckets (tryMerge) are keyed by canonical code: each distinct
//     union is canonicalised once by the worker's canon.Canonizer
//     (AppendLabeling) and finds its bucket by exact code bytes. Buckets
//     are pairwise non-isomorphic, so a union matches at most one. A rigid
//     union (refinement alone made its partition discrete) re-expresses
//     its embedding by composing the two canonical labellings, which is
//     exactly the unique isomorphism; only a union with automorphisms
//     calls Iso.MapInto, once, against the matching bucket, and MapInto's
//     first match fixes its embedding vertex order.
//     Stats.IsoRun counts those fallback calls (plus result-dedupe code
//     comparisons); the merge canonicalisations fold into
//     Stats.CanonRun/CanonNodes at each join.
//   - Union build: graph.AppendUnionEdges sorts packed edge words, and
//     graph.SubgraphOfEdgesInto dedupes endpoints through an
//     epoch-stamped host-vertex table in the worker's mergeScratch, sorts
//     only the distinct vertices (ascending host order fixes the
//     embedding order) and maps edge endpoints through the table. One
//     bit-parallel graph.ConnectedWithin call (MS-BFS over 64 sources per
//     pass) decides "connected and diameter ≤ Dmax" for each union, and
//     the diameter check of a grown pattern in extendAt. The image-key
//     tie-break between frequent buckets is built only when two of them
//     tie on edges and embeddings.
//
// # Merge rounds across workers
//
// Within a round tryMerge is read-only on the working set, so a pair
// group's result is fixed once computed. mergeParallel memoizes results
// by group index; its reduction cursor walks groups in key order,
// skipping groups with a consumed endpoint and applying memoized
// results, and stops at the first live unevaluated group. Each wave is
// predicted by a forward walk from the cursor over a copy of consumed
// that assumes every pending group, and every memoized merge, takes both
// endpoints (memoized failures take none), picking up to `workers`
// unevaluated groups with both endpoints free. The cursor group is
// always picked, so waves always progress, and a picked group is wasted
// only when an earlier merge the walk counted on fails: Stats.IsoRun and
// the merge share of Stats.CanonRun exceed the sequential run's only
// after a failed merge (TestMergeSpeculationBounded holds a GID-6 mine
// within 10%; TestMergeSchedulerReusesAndDiscards drives the reuse and
// discard paths).
//
// # Performance notes: packed keys
//
// Every hot sort or dedupe key on these layers is one unsigned word whose
// integer order is the order the code needs, so sorts are slices.Sort
// over []uint64 and maps hash eight bytes — no comparator, no struct key:
//
//   - Stage I expansion: the (label, host) word of spider.extKey.
//   - Image hashing (canon.ImageHash, canon.AppendImageKey and the
//     Matcher's image dedupe): the edge word U<<32|W, the word
//     canon.HashEdges hashes, so hashes and keys are bit-identical to a
//     comparator sort of the edges.
//   - Merge candidates (checkMerges): the word a<<40 | b<<16 | ea<<8 | eb,
//     which sorts as (a, b, ea, eb); candSeen keys on the word and
//     pairCount on its pattern-pair prefix.
//
// The rule: every packed field has a checked range, so no two keys can
// alias. Merge pattern indices stay below 2²⁴ (checkMergeKeyRange fails
// the run with an error past that) and embedding indices below
// mergeScanEmb = 256 (a compile-time assertion); host vertex ids are
// non-negative int32s.
//
// TestStarMinerMatchesReference (internal/spider) and
// TestAppendLabelingDifferential (internal/canon) are the differential
// oracles for the two layers; TestResultFingerprintsPinned (this
// package) pins whole results, so a merge that reorders embedding
// vertices fails it. TestImageHashPackedSort (internal/canon) and
// TestMergeKeyPacking (this package) pin the packed keys.
//
// The allocation budgets are pinned by TestStageIAllocBudget and
// TestFullPipelineAllocBudget (repo root), the warm 0-alloc contracts by
// TestStarMinerWarmNoAlloc (internal/spider) and TestGrowScratchWarm*
// (this package), and the cross-run reuse contract by TestMinerResetReuse
// and TestStarMinerWarmAcrossHosts. BENCH_PR8.json records the measured
// steady state.
package spidermine
