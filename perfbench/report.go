package main

import (
	"fmt"
	"time"

	"repro/mine"
)

// metricDef is one reported metric: name and unit, as BENCHMARK.json
// declares them.
type metricDef struct{ name, unit string }

// endToEnd are printed by every untraced run, on every workload; README.md
// gives each one's definition per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"mine_s", "s"},
	{"topk_edges", "count"},
	{"recall", "ratio"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"poll_p50_ms", "ms"},
	{"poll_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayer are printed by every traced run, on every workload.
var perLayer = []metricDef{
	{"graph.open_s", "s"},
	{"graph.open_trusted_s", "s"},
	{"spider.stage1_s", "s"},
	{"spider.stage1_share", "ratio"},
	{"spider.spiders", "count"},
	{"spider.cap_hit", "ratio"},
	{"spider.stage1_cpu_share", "ratio"},
	{"spidermine.growth_s", "s"},
	{"spidermine.growth_share", "ratio"},
	{"spidermine.recovery_s", "s"},
	{"spidermine.recovery_share", "ratio"},
	{"spidermine.iter_s_max", "s"},
	{"spidermine.grow_iterations", "count"},
	{"spidermine.merges", "count"},
	{"spidermine.iso_run", "count"},
	{"spidermine.iso_skipped", "count"},
	{"spidermine.merge_yield", "ratio"},
	{"spidermine.merge_cpu_share", "ratio"},
	{"canon.canon_run", "count"},
	{"canon.nodes_per_run", "count"},
	{"canon.code_s", "s"},
	{"canon.match_s", "s"},
	{"par.speedup", "ratio"},
	{"par.iso_speculation", "ratio"},
	{"mine.alloc_mb_per_mine", "MB"},
	{"mine.gc_per_mine", "count"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.run_p50_ms", "ms"},
	{"serve.run_share", "ratio"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.client_cached_ratio", "ratio"},
	{"serve.cache_degraded", "count"},
	{"serve.rejections", "count"},
	{"store.bytes_written", "bytes"},
	{"store.fsyncs", "count"},
	{"store.write_amp", "ratio"},
	{"store.recover_s", "s"},
	{"trace.overhead", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's raw samples; finish turns them into metrics.
type report struct {
	env       environment
	spansPath string
	result    result

	attempted, failed int
	failures          []string

	// End-to-end metrics but ok_ratio, as the workload computes them,
	// and the pooled series behind them (seconds) for the report file.
	e2e          map[string]float64
	setupSamples samples
	mine         samples
	job          samples
	cached       samples
	poll         samples
	referenceS   float64
	series       map[string]samples // extra client series, for the report

	// Per-layer inputs (traced runs).
	silentCap      samples // 1 per traced mine that Stage I's cap cut short unreported
	cpu            cpuProfile
	mineStats      []mine.Stats
	iterMax        samples
	tracedMine     samples
	traceOverhead  float64
	openSamples    samples
	trustedSamples samples
	codeSamples    samples
	matchSamples   samples
	parW1, parW2   samples
	isoW1, isoW2   samples
	allocMB, gcs   samples
	serve          map[string]float64
	recoverS       float64
	layers         []layerTime
}

func newReport(o *options, man *manifest) *report {
	return &report{env: environmentOf(o, man), e2e: make(map[string]float64), series: make(map[string]samples)}
}

// noteOp counts one attempted operation and, when err is set, a failure.
func (r *report) noteOp(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// parSample records one mine at 1 or 2 workers for the par layer.
func (r *report) parSample(workers int, d time.Duration, isoRun int64) {
	if workers == 1 {
		r.parW1.addDur(d)
		r.isoW1.add(float64(isoRun))
		return
	}
	r.parW2.addDur(d)
	r.isoW2.add(float64(isoRun))
}

// statMedian is the median of one Stats-derived quantity over the traced
// runs.
func (r *report) statMedian(f func(mine.Stats) float64) float64 {
	var s samples
	for _, st := range r.mineStats {
		s.add(f(st))
	}
	return s.median()
}

func btof(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func stage(st mine.Stats, name string) float64 {
	for _, s := range st.Stages {
		if s.Name == name {
			return s.Duration.Seconds()
		}
	}
	return 0
}

// finish computes the metric set of this run's mode and checks it is
// complete.
func (r *report) finish(trace bool) error {
	m := make(map[string]float64)
	if !trace {
		for k, v := range r.e2e {
			m[k] = v
		}
		m["ok_ratio"] = 1 - ratio(float64(r.failed), float64(r.attempted))
	} else {
		m["graph.open_s"] = r.openSamples.median()
		m["graph.open_trusted_s"] = r.trustedSamples.median()
		m["spider.stage1_s"] = r.statMedian(func(s mine.Stats) float64 { return stage(s, "spiders") })
		m["spider.stage1_share"] = r.statMedian(func(s mine.Stats) float64 { return ratio(stage(s, "spiders"), s.Elapsed.Seconds()) })
		m["spider.spiders"] = r.statMedian(func(s mine.Stats) float64 { return float64(s.Spiders) })
		m["spider.cap_hit"] = r.silentCap.mean()
		m["spider.stage1_cpu_share"] = r.cpu.share("stage1")
		m["spidermine.merge_cpu_share"] = r.cpu.share("merge")
		m["spidermine.growth_s"] = r.statMedian(func(s mine.Stats) float64 { return stage(s, "growth") })
		m["spidermine.growth_share"] = r.statMedian(func(s mine.Stats) float64 { return ratio(stage(s, "growth"), s.Elapsed.Seconds()) })
		m["spidermine.recovery_s"] = r.statMedian(func(s mine.Stats) float64 { return stage(s, "recovery") })
		m["spidermine.recovery_share"] = r.statMedian(func(s mine.Stats) float64 { return ratio(stage(s, "recovery"), s.Elapsed.Seconds()) })
		m["spidermine.iter_s_max"] = r.iterMax.median()
		m["spidermine.grow_iterations"] = r.statMedian(func(s mine.Stats) float64 { return float64(s.GrowIterations) })
		m["spidermine.merges"] = r.statMedian(func(s mine.Stats) float64 { return float64(s.Merges) })
		m["spidermine.iso_run"] = r.statMedian(func(s mine.Stats) float64 { return float64(s.IsoRun) })
		m["spidermine.iso_skipped"] = r.statMedian(func(s mine.Stats) float64 { return float64(s.IsoSkipped) })
		m["spidermine.merge_yield"] = r.statMedian(func(s mine.Stats) float64 { return ratio(float64(s.Merges), float64(s.IsoRun)) })
		m["canon.canon_run"] = r.statMedian(func(s mine.Stats) float64 { return float64(s.CanonRun) })
		m["canon.nodes_per_run"] = r.statMedian(func(s mine.Stats) float64 { return ratio(float64(s.CanonNodes), float64(s.CanonRun)) })
		m["canon.code_s"] = r.codeSamples.median()
		m["canon.match_s"] = r.matchSamples.median()
		m["par.speedup"] = ratio(r.parW1.median(), r.parW2.median())
		m["par.iso_speculation"] = ratio(r.isoW2.median(), r.isoW1.median())
		m["mine.alloc_mb_per_mine"] = r.allocMB.median()
		m["mine.gc_per_mine"] = r.gcs.median()
		for k, v := range r.serve {
			m[k] = v
		}
		m["store.recover_s"] = r.recoverS
		m["trace.overhead"] = r.traceOverhead
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r.result = result{
		Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		r.result.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		delete(m, d.name)
	}
	for k := range m {
		return fmt.Errorf("metric %s is not declared", k)
	}
	return nil
}

// full is the report file: the contract line plus everything needed to
// read it — environment, sample counts and tails, layer self-times.
func (r *report) full() map[string]any {
	series := map[string]summary{
		"setup": r.setupSamples.summary(), "mine": r.mine.summary(), "job": r.job.summary(),
		"cached": r.cached.summary(), "poll": r.poll.summary(),
	}
	for k, s := range r.series {
		series[k] = s.summary()
	}
	out := map[string]any{
		"result":      r.result,
		"environment": r.env,
		"series_s":    series,
		"failures":    r.failures,
	}
	if r.referenceS > 0 {
		out["reference_mine_s"] = r.referenceS
	}
	if r.layers != nil {
		out["layers"] = r.layers
		out["spans"] = r.spansPath
	}
	return out
}
