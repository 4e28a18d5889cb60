package spidermine

import (
	"repro/internal/par"
	"repro/internal/pattern"
)

// This file is the miner's worker-sharding layer. Every parallel stage
// follows the same ownership discipline (documented in doc.go and
// ROADMAP.md):
//
//   - shared-immutable: the host graph (its label index builds lazily
//     behind a sync.Once), the frequent-pair index, the spider catalog,
//     and cfg — workers only read these;
//   - per-worker scratch: one growScratch / mergeScratch / canon.Matcher
//     slot from the Miner's par.Workspace arenas, plus worker-indexed
//     accumulator slots (par.Slots) — never shared, never locked,
//     allocated per-worker-once and reused across passes, runs, and
//     restarts;
//   - ordered reduction: results land in item-indexed slots (par.Map) and
//     all cross-worker combination happens afterwards in item order, so
//     output is bit-identical to the sequential engine for any worker
//     count. Completion order and map iteration order must never reach a
//     result.

// workerCount resolves cfg.Workers against an item count: never more
// workers than items, never fewer than one.
func (m *Miner) workerCount(items int) int {
	return par.Bound(items, m.cfg.Workers)
}

// growAllParallel runs one SpiderGrow iteration over the working set with
// a bounded worker pool (workers > 1, resolved by the caller). Each
// pattern is grown independently — growPattern mutates only its own
// *grown, using the worker's scratch — so the result is identical to the
// sequential pass regardless of scheduling. Progress flags are
// worker-indexed and reduced after the join. A cancelled pass surfaces
// ctx.Err(); the caller rolls back to its last committed snapshot.
func (m *Miner) growAllParallel(ws []*grown, workers int) (bool, error) {
	scs := m.growWS.For(workers)
	anyByWorker := m.anyFlag.For(workers)
	if err := par.Do(m.ctx, len(ws), workers, func(wk, i int) {
		w := ws[i]
		if w.done {
			return
		}
		if m.growPattern(w, scs[wk]) {
			anyByWorker[wk] = true
		} else {
			w.done = true
		}
	}); err != nil {
		return false, err
	}
	for _, a := range anyByWorker {
		if a {
			return true, nil
		}
	}
	return false, nil
}

// mergeParallel evaluates merge-candidate pair groups with a worker pool
// and reduces them in sorted key order via apply, exactly as the
// sequential loop in checkMerges does. tryMerge is read-only on the
// working patterns (and ws[i].p does not change within a round), so a
// group's result is memoized by group index until the reduction reaches
// it:
//
//   - The reduction cursor walks groups in key order, skipping groups
//     with a consumed endpoint and applying memoized results, and stops at
//     the first live group not yet evaluated.
//   - The next wave is a prediction of what the sequential engine will
//     evaluate next: a forward walk from the cursor over a copy of
//     consumed that assumes every pending group, and every group whose
//     memoized result is a merge, takes both endpoints. Memoized failures
//     take none. The walk picks up to `workers` unevaluated groups whose
//     endpoints are both still free.
//
// The cursor group is always picked, so every wave makes progress, and a
// picked group is wasted only when an earlier merge the walk counted on
// fails. Accepted merges, their IDs and their order are therefore
// identical for any worker count; only the speculative-work counters
// (Stats.IsoRun and the merge canonicalisations in
// Stats.CanonRun/CanonNodes) can exceed the sequential run's, and only
// after a failed merge. mergeParallel returns ctx.Err() if a wave is
// cancelled mid-evaluation; merges already applied stay on the round's
// state, and the caller's caller rolls back to its last committed
// snapshot.
func (m *Miner) mergeParallel(ws []*grown, groups []pairGroup, workers int, consumed []bool, apply func(pairKey, *pattern.Pattern)) error {
	scs := m.mergeWS.For(workers)
	isoRuns := m.isoRuns.For(workers)
	memo := m.memo.For(len(groups))
	evaluated := m.evaluated.For(len(groups))
	taken := m.taken.For(len(ws))
	wave := m.wave[:0]
	defer func() {
		clear(memo) // drop the discarded speculative patterns
		m.wave = wave
		m.foldMergeStats(scs, isoRuns)
	}()
	for cur := 0; ; {
		for ; cur < len(groups); cur++ {
			pk := groups[cur].pk
			if consumed[pk.a] || consumed[pk.b] {
				continue
			}
			if !evaluated[cur] {
				break
			}
			if mp := memo[cur]; mp != nil {
				apply(pk, mp)
			}
		}
		if cur == len(groups) {
			return nil
		}
		copy(taken, consumed)
		wave = wave[:0]
		for i := cur; i < len(groups) && len(wave) < workers; i++ {
			pk := groups[i].pk
			if taken[pk.a] || taken[pk.b] {
				continue
			}
			if evaluated[i] && memo[i] == nil {
				continue
			}
			if !evaluated[i] {
				wave = append(wave, int32(i))
			}
			taken[pk.a], taken[pk.b] = true, true
		}
		if err := par.Do(m.ctx, len(wave), workers, func(wk, i int) {
			gi := wave[i]
			gp := groups[gi]
			memo[gi] = m.tryMerge(ws[gp.pk.a].p, ws[gp.pk.b].p, m.mergeCands[gp.lo:gp.hi], scs[wk], &isoRuns[wk])
		}); err != nil {
			return err
		}
		for _, gi := range wave {
			evaluated[gi] = true
		}
	}
}

// foldMergeStats adds the workers' fallback isomorphism tests and merge
// canonicalisations to Stats, in worker order.
func (m *Miner) foldMergeStats(scs []*mergeScratch, isoRuns []int64) {
	for wk, sc := range scs {
		m.stats.IsoRun += isoRuns[wk]
		m.stats.addCanon(&sc.cz)
	}
}
