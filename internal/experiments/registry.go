package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Params tunes a registry run. Quick mode shrinks workloads so the full
// suite finishes in minutes; full mode uses the paper's sizes.
type Params struct {
	Seed  int64
	Quick bool
	// Workers sets mining parallelism for every SpiderMine invocation an
	// experiment performs (0/1 sequential, > 1 that many goroutines, < 0
	// GOMAXPROCS). The parallel engine is deterministic, so regenerated
	// tables are identical across settings — only wall-clock changes.
	Workers int
}

// miningWorkers is the Workers value experiment drivers plumb into every
// spidermine.Config / spider.Options they build. It is process-global
// (atomic, so concurrent -race runs stay clean) because the figure drivers
// predate Params-threading; Run stores Params.Workers here before
// dispatching.
var miningWorkers atomic.Int32

// SetMiningWorkers sets the parallelism applied by subsequent experiment
// runs; see Params.Workers for the encoding.
func SetMiningWorkers(n int) { miningWorkers.Store(int32(n)) }

// MiningWorkers reports the current experiment parallelism setting.
func MiningWorkers() int { return int(miningWorkers.Load()) }

// runCtx is the context experiment drivers mine under, following the same
// process-global pattern as miningWorkers (the drivers predate
// Params-threading). RunContext stores the caller's ctx here for the
// duration of one experiment; drivers fetch it via MiningContext. The
// box keeps atomic.Value's concrete type constant — storing bare
// contexts would panic as soon as two different context implementations
// (timerCtx, backgroundCtx, ...) pass through.
var runCtx atomic.Value // of ctxBox

type ctxBox struct{ ctx context.Context }

// MiningContext returns the context the current experiment run should
// mine under: the ctx passed to RunContext, or context.Background().
func MiningContext() context.Context {
	if b, ok := runCtx.Load().(ctxBox); ok && b.ctx != nil {
		return b.ctx
	}
	return context.Background()
}

// scaleWorkers is MiningWorkers with an all-CPUs default: the large-scale
// sweeps (fig13/fig17-class Stage I workloads) always ran on every core
// before the -workers flag existed, and the engine is deterministic, so
// only an explicit setting should slow them down.
func scaleWorkers() int {
	if w := MiningWorkers(); w != 0 {
		return w
	}
	return -1
}

// Runner produces a report for one experiment id.
type Runner func(Params) *Report

// Registry maps experiment ids — one per table or figure of the paper's
// evaluation, plus the Lemma 2 and ablation studies — to drivers; it is
// the experiment index (`spiderbench -list` prints it). Populated in init to allow aliases (fig12→fig11, fig17→fig13)
// without an initialization cycle.
var Registry map[string]Runner

func init() {
	Registry = registryEntries()
	Registry["fig12"] = func(p Params) *Report { return Registry["fig11"](p) }
	Registry["fig17"] = func(p Params) *Report { return Registry["fig13"](p) }
}

func registryEntries() map[string]Runner {
	return map[string]Runner{
		"fig4": func(p Params) *Report { return Fig4to8(1, p.Seed) },
		"fig5": func(p Params) *Report { return Fig4to8(2, p.Seed) },
		"fig6": func(p Params) *Report { return Fig4to8(3, p.Seed) },
		"fig7": func(p Params) *Report { return Fig4to8(4, p.Seed) },
		"fig8": func(p Params) *Report { return Fig4to8(5, p.Seed) },
		"fig9": func(p Params) *Report {
			sizes := []int{100, 200, 300, 400, 500}
			timeout := 30 * time.Second
			if p.Quick {
				sizes = []int{100, 200, 300}
				timeout = 3 * time.Second
			}
			return Fig9(sizes, p.Seed, timeout)
		},
		"fig10": func(p Params) *Report {
			sizes := []int{500, 1500, 2500, 3500, 4500, 5500, 6500, 7500, 8500, 9500, 10500}
			if p.Quick {
				sizes = []int{500, 1500, 2500}
			}
			return Fig10(sizes, p.Seed)
		},
		"fig11": func(p Params) *Report {
			sizes := []int{1000, 5000, 10000, 15000, 20000, 25000, 30000, 35000, 40000}
			if p.Quick {
				sizes = []int{1000, 3000, 6000}
			}
			return Fig11and12(sizes, p.Seed)
		},
		"fig13": func(p Params) *Report {
			sizes := []int{1000, 3000, 6000, 10000, 15000, 20000}
			if p.Quick {
				sizes = []int{500, 1000}
			}
			return Fig13and17(sizes, p.Seed)
		},
		"fig14": func(p Params) *Report { return Fig14(p.Seed, scaleOf(p)) },
		"fig15": func(p Params) *Report { return Fig15(p.Seed, scaleOf(p)) },
		"fig16": func(p Params) *Report {
			timeout := 60 * time.Second
			if p.Quick {
				timeout = 3 * time.Second
			}
			return Fig16(p.Seed, timeout)
		},
		"fig18": func(p Params) *Report {
			scale := 1.0
			if p.Quick {
				scale = 0.1
			}
			return Fig18(p.Seed, scale)
		},
		"fig19": func(p Params) *Report {
			scale := 1.0
			if p.Quick {
				scale = 0.1
			}
			return Fig19([]int{1, 2, 3, 4}, p.Seed, scale)
		},
		"fig20": func(p Params) *Report { return Fig20(p.Seed, scaleOf(p)) },
		"fig21": func(p Params) *Report { return Fig21(p.Seed, scaleOf(p)) },
		"appC3": func(p Params) *Report {
			rs := []int{1, 2, 3}
			if p.Quick {
				rs = []int{1, 2}
			}
			return AppC3(rs, p.Seed, scaleOf(p))
		},
		"appC4": func(p Params) *Report {
			return AppC4([]float64{0.45, 0.25, 0.05}, p.Seed, scaleOf(p))
		},
		"lemma2": func(p Params) *Report { return Lemma2Table() },
		"grew":   func(p Params) *Report { return GrewComparison(p.Seed) },
		"guarantee": func(p Params) *Report {
			trials := 6
			if p.Quick {
				trials = 3
			}
			_, rep := GuaranteeCheck(trials, 0.1, p.Seed)
			return rep
		},
		"ablations": func(p Params) *Report { return Ablations(p.Seed) },
		"miners":    MinersComparison,
	}
}

func scaleOf(p Params) float64 {
	if p.Quick {
		return 0.25
	}
	return 1.0
}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id without cancellation.
func Run(id string, p Params) (*Report, error) {
	return RunContext(context.Background(), id, p)
}

// RunContext executes one experiment by id under ctx. The context is
// published to the drivers through MiningContext for the duration of the
// run; a fired ctx before the run starts short-circuits with ctx.Err().
func RunContext(ctx context.Context, id string, p Params) (*Report, error) {
	r, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	SetMiningWorkers(p.Workers)
	runCtx.Store(ctxBox{ctx})
	defer runCtx.Store(ctxBox{context.Background()})
	return r(p), nil
}
