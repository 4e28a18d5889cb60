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
// in bounded batched waves, reducing each wave in sorted key order via
// apply. tryMerge is read-only on the working patterns and confines its
// state to the worker's mergeScratch, so the groups of one wave evaluate
// concurrently; speculation is bounded to the wave, because only groups
// whose endpoints are unconsumed when the wave is gathered enter it. A
// wave member whose endpoint an earlier (in key order) wave-mate consumed
// is discarded during the reduction — exactly the groups the sequential
// engine would have skipped — so the accepted merges, their IDs, and
// their order are identical for any worker count. Only the
// speculative-work counters (Stats.IsoRun, and the merge
// canonicalisations in Stats.CanonRun/CanonNodes) can exceed the
// sequential run's. mergeParallel returns ctx.Err() if a wave is cancelled
// mid-evaluation; waves already reduced stay applied, the cancelled wave
// is discarded, and the caller's caller rolls back to its last committed
// snapshot.
func (m *Miner) mergeParallel(ws []*grown, groups []pairGroup, workers int, consumed []bool, apply func(pairKey, *pattern.Pattern)) error {
	batchCap := workers
	scs := m.mergeWS.For(workers)
	isoRuns := m.isoRuns.For(workers)
	results := m.results.For(batchCap)
	batch := m.batch[:0]
	pos := 0
	for pos < len(groups) {
		batch = batch[:0]
		for pos < len(groups) && len(batch) < batchCap {
			gp := groups[pos]
			pos++
			if consumed[gp.pk.a] || consumed[gp.pk.b] {
				continue
			}
			batch = append(batch, gp)
		}
		if err := par.Do(m.ctx, len(batch), workers, func(wk, i int) {
			gp := batch[i]
			results[i] = m.tryMerge(ws[gp.pk.a].p, ws[gp.pk.b].p, m.mergeCands[gp.lo:gp.hi], scs[wk], &isoRuns[wk])
		}); err != nil {
			m.batch = batch
			m.foldMergeStats(scs, isoRuns)
			return err
		}
		for i, gp := range batch {
			if consumed[gp.pk.a] || consumed[gp.pk.b] {
				continue
			}
			if mp := results[i]; mp != nil {
				apply(gp.pk, mp)
			}
		}
	}
	m.batch = batch
	m.foldMergeStats(scs, isoRuns)
	return nil
}

// foldMergeStats adds the workers' fallback isomorphism tests and merge
// canonicalisations to Stats, in worker order.
func (m *Miner) foldMergeStats(scs []*mergeScratch, isoRuns []int64) {
	for wk, sc := range scs {
		m.stats.IsoRun += isoRuns[wk]
		m.stats.addCanon(&sc.cz)
	}
}
