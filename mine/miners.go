package mine

import (
	"context"
	"errors"
	"time"

	"repro/internal/miner/grew"
	"repro/internal/miner/moss"
	"repro/internal/miner/origami"
	"repro/internal/miner/seus"
	"repro/internal/miner/subdue"
	"repro/internal/pattern"
	"repro/internal/spidermine"
	"repro/internal/support"
)

func init() {
	Register(adapter{"spidermine", "top-K largest frequent patterns via probabilistic spider growth (the paper's Algorithm 1)", mineSpiderMine, true})
	Register(adapter{"grew", "GREW-style heuristic contraction of vertex-disjoint instances", mineGrew, false})
	Register(adapter{"moss", "MoSS/gSpan-style complete frequent-subgraph enumeration", mineMoss, false})
	Register(adapter{"origami", "ORIGAMI-style randomized maximal-pattern sampling with α-orthogonal selection", mineOrigami, false})
	Register(adapter{"seus", "SEuS-style summary-graph candidate generation with full-graph verification", mineSeus, false})
	Register(adapter{"subdue", "SUBDUE-style MDL-compression beam search", mineSubdue, false})
}

// adapter wires one engine function into the Miner interface, wrapping it
// with the shared host validation and budget/error normalization.
type adapter struct {
	name string
	desc string
	fn   func(ctx context.Context, host Host, opts Options) (*Result, error)
	// selfProgress marks engines that stream their own stage events
	// (including the terminal "done"); the façade then must not emit a
	// second one.
	selfProgress bool
}

func (a adapter) Name() string     { return a.name }
func (a adapter) Describe() string { return a.desc }

// errWallClockBudget is the cancellation cause of the timeout context a
// MaxWallClock budget installs. Post-run classification keys on it: a run
// stopped by a context whose cause is this sentinel was stopped by the
// *budget* (truncation, nil error); any other cause means the *caller's*
// context fired (ctx.Err() plus committed partials). context.Cause
// latches at the instant the context fires, so the classification cannot
// be confused by the caller's context firing between the engine's return
// and the check here — unlike inspecting the caller's Err() after the
// fact.
var errWallClockBudget = errors.New("mine: MaxWallClock budget exhausted")

func (a adapter) Mine(ctx context.Context, host Host, opts Options) (*Result, error) {
	if err := host.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	caller := ctx
	cancel := context.CancelFunc(func() {})
	if opts.MaxWallClock > 0 {
		ctx, cancel = context.WithTimeoutCause(ctx, opts.MaxWallClock, errWallClockBudget)
	}
	defer cancel()
	start := time.Now()
	res, err := a.fn(ctx, host, opts)
	if res == nil {
		res = &Result{}
	}
	res.Miner = a.name
	res.Stats.Elapsed = time.Since(start)
	if len(res.Stats.Stages) == 0 {
		// Engines without an internal stage structure (everything but
		// spidermine) still report one whole-run stage, so per-stage
		// consumers (the serving layer's stage-duration histograms) see
		// every miner, not just the paper's.
		res.Stats.Stages = []StageTime{{Name: "mine", Duration: res.Stats.Elapsed}}
	}
	if opts.MaxPatterns > 0 && len(res.Patterns) > opts.MaxPatterns {
		res.Patterns = res.Patterns[:opts.MaxPatterns]
		if res.Truncated == TruncatedNone {
			res.Truncated = TruncatedMaxPatterns
		}
	}
	if err == nil {
		if !a.selfProgress {
			emit(opts, a.name, "done", len(res.Patterns), start)
		}
		return res, nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if context.Cause(ctx) == errWallClockBudget {
			// The MaxWallClock budget fired first: truncation, not an
			// error — even if the caller's context has fired since.
			res.Truncated = TruncatedDeadline
			return res, nil
		}
		if cerr := caller.Err(); cerr != nil {
			// The caller's own context fired (cancel or deadline) while
			// the run — and any live budget timeout child — was in
			// flight: surface the caller's error with the committed
			// partial result.
			if errors.Is(cerr, context.DeadlineExceeded) {
				res.Truncated = TruncatedDeadline
			} else {
				res.Truncated = TruncatedCanceled
			}
			return res, cerr
		}
		// A context error without a fired budget or caller context: an
		// engine-internal context stopped the run; report truncation.
		res.Truncated = TruncatedDeadline
		return res, nil
	}
	return res, err
}

// emit delivers a façade-level progress event.
func emit(opts Options, miner, stage string, patterns int, start time.Time) {
	if opts.OnProgress == nil {
		return
	}
	opts.OnProgress(ProgressEvent{
		Miner:    miner,
		Stage:    stage,
		Patterns: patterns,
		Elapsed:  time.Since(start),
	})
}

func mineSpiderMine(ctx context.Context, host Host, opts Options) (*Result, error) {
	measure, err := opts.Measure.internal(support.CountAll)
	if err != nil {
		return nil, err
	}
	cfg := spidermine.Config{
		MinSupport:       opts.MinSupport,
		K:                opts.K,
		Epsilon:          opts.Epsilon,
		Dmax:             opts.Dmax,
		Radius:           opts.Radius,
		Vmin:             opts.Vmin,
		Measure:          measure,
		Seed:             opts.Seed,
		Workers:          opts.Workers,
		MaxSpiders:       opts.MaxSpiders,
		MaxLeavesPerStar: opts.MaxLeavesPerStar,
		MaxEmbPerPattern: opts.MaxEmbeddings,
	}
	if opts.OnProgress != nil {
		cfg.OnProgress = func(ev spidermine.StageEvent) {
			opts.OnProgress(ProgressEvent{
				Miner:     "spidermine",
				Stage:     ev.Stage,
				Restart:   ev.Restart,
				Iteration: ev.Iteration,
				Spiders:   ev.Spiders,
				Patterns:  ev.Patterns,
				Merges:    ev.Merges,
				Elapsed:   ev.Elapsed,
			})
		}
	}
	var (
		res    *spidermine.Result
		runErr error
	)
	if host.DB != nil {
		res, runErr = spidermine.MineTransactionsContext(ctx, host.DB, cfg)
	} else {
		res, runErr = spidermine.MineContext(ctx, host.Graph, cfg)
	}
	out := &Result{Patterns: res.Patterns}
	if res.Stats.SpidersCapped {
		out.Truncated = TruncatedBudget
	}
	out.Stats = Stats{
		Spiders:        res.Stats.NumSpiders,
		SeedDraws:      res.Stats.M,
		GrowIterations: res.Stats.GrowIterations,
		Merges:         res.Stats.Merges,
		IsoSkipped:     res.Stats.IsoSkipped,
		IsoRun:         res.Stats.IsoRun,
		CanonRun:       res.Stats.CanonRun,
		CanonNodes:     res.Stats.CanonNodes,
		Stages: []StageTime{
			{Name: "spiders", Duration: res.Stats.StageI},
			{Name: "growth", Duration: res.Stats.StageII},
			{Name: "recovery", Duration: res.Stats.StageIII},
		},
	}
	return out, runErr
}

func mineGrew(ctx context.Context, host Host, opts Options) (*Result, error) {
	rs, err := grew.MineContext(ctx, host.union(), grew.Config{
		MinSupport: opts.MinSupport,
	})
	out := &Result{Patterns: make([]*pattern.Pattern, 0, len(rs))}
	for _, r := range rs {
		out.Patterns = append(out.Patterns, r.P)
	}
	return out, err
}

func mineMoss(ctx context.Context, host Host, opts Options) (*Result, error) {
	// HarmfulOverlap is MoSS's native measure (the paper adopts it for
	// low-label graphs where raw embeddings overlap pathologically).
	measure, err := opts.Measure.internal(support.HarmfulOverlap)
	if err != nil {
		return nil, err
	}
	res, runErr := moss.MineContext(ctx, host.union(), moss.Config{
		MinSupport:       opts.MinSupport,
		Measure:          measure,
		MaxPatterns:      opts.MaxPatterns,
		MaxEmbPerPattern: opts.MaxEmbeddings,
	})
	out := &Result{Patterns: res.Patterns}
	if !res.Completed && runErr == nil {
		if opts.MaxPatterns > 0 && len(res.Patterns) >= opts.MaxPatterns {
			out.Truncated = TruncatedMaxPatterns
		} else {
			out.Truncated = TruncatedBudget
		}
	}
	return out, runErr
}

func mineOrigami(ctx context.Context, host Host, opts Options) (*Result, error) {
	cfg := origami.Config{
		MinSupport:       opts.MinSupport,
		Seed:             opts.Seed,
		Beta:             opts.MaxPatterns,
		MaxEmbPerPattern: opts.MaxEmbeddings,
	}
	var (
		rs     []origami.Result
		runErr error
	)
	if host.DB != nil {
		rs, runErr = origami.MineContext(ctx, host.DB, cfg)
	} else {
		rs, runErr = origami.MineGraphContext(ctx, host.Graph, cfg)
	}
	out := &Result{Patterns: make([]*pattern.Pattern, 0, len(rs))}
	for _, r := range rs {
		out.Patterns = append(out.Patterns, r.P)
	}
	markCapped(out, opts)
	return out, runErr
}

// markCapped records MaxPatterns truncation for engines that apply the
// cap natively (ORIGAMI's Beta, SUBDUE's MaxBest): the result then lands
// at exactly the cap, so the façade's post-hoc `>` truncation never
// fires. Like MoSS's Completed heuristic, a result of exactly cap size
// is reported as truncated.
func markCapped(res *Result, opts Options) {
	if opts.MaxPatterns > 0 && len(res.Patterns) >= opts.MaxPatterns && res.Truncated == TruncatedNone {
		res.Truncated = TruncatedMaxPatterns
	}
}

func mineSeus(ctx context.Context, host Host, opts Options) (*Result, error) {
	rs, err := seus.MineContext(ctx, host.union(), seus.Config{
		MinSupport:  opts.MinSupport,
		VerifyLimit: opts.MaxEmbeddings,
	})
	out := &Result{Patterns: make([]*pattern.Pattern, 0, len(rs))}
	for _, r := range rs {
		out.Patterns = append(out.Patterns, r.P)
	}
	return out, err
}

func mineSubdue(ctx context.Context, host Host, opts Options) (*Result, error) {
	cfg := subdue.Config{
		MinSupport:       opts.MinSupport,
		MaxBest:          opts.MaxPatterns,
		MaxEmbPerPattern: opts.MaxEmbeddings,
	}
	rs, err := subdue.MineContext(ctx, host.union(), cfg)
	out := &Result{Patterns: make([]*pattern.Pattern, 0, len(rs))}
	for _, r := range rs {
		out.Patterns = append(out.Patterns, r.P)
	}
	markCapped(out, opts)
	return out, err
}
