package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/canon"
	"repro/internal/graph"
	"repro/mine"
)

const (
	miningWorkers = 2
	// matchLimit caps CountEmbeddings in the traced canon layer: the
	// layer is timed, not enumerated to the end.
	matchLimit = 100000
	cachedReps = 5 // result decodes per mining op

	gidMaxSpiders = 50000
)

// gidOptions are the gid10_mapped mining options; each host is mined
// with its own generator seed as the mining seed. Stage I is capped:
// uncapped, some GID-10 hosts enumerate hundreds of thousands of spiders
// and grow past 1.5 GB.
func gidOptions(seed int64, workers int) mine.Options {
	return mine.Options{MinSupport: 10, K: 5, Dmax: 8, MaxSpiders: gidMaxSpiders, Seed: seed, Workers: workers}
}

// openHost is the verified open of an SPC1 host image.
func openHost(dir string, hf hostFiles) (*graph.Graph, func() error, error) {
	m, err := mine.OpenMapped(filepath.Join(dir, hf.Image))
	if err != nil {
		return nil, nil, err
	}
	return m.Graph(), m.Close, nil
}

// watcher is a status reader running beside a Mine call: every
// pollEvery it reads the latest progress event, and records how late
// the read completed against its schedule — the wait a concurrent
// status request sees while mining holds the CPUs.
type watcher struct {
	mu   sync.Mutex
	last mine.ProgressEvent
	lat  samples
	stop chan struct{}
	done chan struct{}
}

func startWatcher() *watcher {
	w := &watcher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTimer(pollEvery)
		defer t.Stop()
		due := time.Now().Add(pollEvery)
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
			w.mu.Lock()
			_ = w.last.Stage
			w.mu.Unlock()
			now := time.Now()
			w.lat.addDur(now.Sub(due))
			due = due.Add(pollEvery)
			if due.Before(now) {
				due = now.Add(pollEvery)
			}
			t.Reset(time.Until(due))
		}
	}()
	return w
}

func (w *watcher) observe(ev mine.ProgressEvent) {
	w.mu.Lock()
	w.last = ev
	w.mu.Unlock()
}

// finish stops the watcher and returns its samples.
func (w *watcher) finish() samples {
	close(w.stop)
	<-w.done
	return w.lat
}

// gidHost is one GID-10 host of a run, with its ground truth and the
// fingerprint of its Workers: 1 reference result.
type gidHost struct {
	files hostFiles
	seed  int64
	truth []*graph.Graph
	refFP string
	// Untraced op series (seconds), topk edges and recall.
	mine, job, cached, topk, recall samples
}

// miningRun is the state of one gid10_mapped run.
type miningRun struct {
	o     *options
	hosts []*gidHost
	miner mine.Miner
	rep   *report
	cz    *canon.Canonizer
}

// opKind selects what one mining op measures in a traced run.
type opKind int

const (
	opUntraced   opKind = iota // Workers 2, no tracing: the end-to-end op
	opTraced                   // Workers 2 with spans, MemStats and the canon layer
	opSequential               // Workers 1, for the par layer
)

// op is one user request: open the host, mine it, check the result.
func (m *miningRun) op(h *gidHost, kind opKind, tr *tracer) error {
	if kind != opTraced {
		tr = nil
	}
	opts := gidOptions(h.seed, miningWorkers)
	if kind == opSequential {
		opts.Workers = 1
	}
	root := tr.begin("op", 0)
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin("graph.open", root)
	g, closeHost, err := openHost(m.o.dir, h.files)
	tr.end(sp)
	if err != nil {
		return err
	}
	defer closeHost()
	openDur := time.Since(t0)

	w := startWatcher()
	var events []mine.ProgressEvent
	opts.OnProgress = func(ev mine.ProgressEvent) {
		w.observe(ev)
		events = append(events, ev)
	}
	var md memDelta
	var prof bytes.Buffer
	if tr != nil {
		md.start()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			w.finish()
			return err
		}
	}
	sp = tr.begin("mine.Mine", root)
	tm := time.Now()
	res, err := m.miner.Mine(context.Background(), mine.SingleGraph(g), opts)
	mineDur := time.Since(tm)
	tr.end(sp)
	jobDur := time.Since(t0)
	polls := w.finish()
	rep := m.rep
	if tr != nil {
		mb, gcs := md.stop()
		pprof.StopCPUProfile()
		rep.allocMB.add(mb)
		rep.gcs.add(float64(gcs))
		if err := rep.cpu.add(prof.Bytes()); err != nil {
			return err
		}
		stageSpans(tr, sp, events)
	}
	if err != nil {
		return fmt.Errorf("mine: %w", err)
	}
	if err := h.check(res); err != nil {
		return err
	}

	switch kind {
	case opSequential:
		rep.parSample(1, mineDur, res.Stats.IsoRun)
		return nil
	case opTraced:
		rep.mineStats = append(rep.mineStats, res.Stats)
		rep.silentCap.add(btof(res.Stats.Spiders == opts.MaxSpiders && res.Truncated == mine.TruncatedNone))
		rep.iterMax.addDur(longestIteration(events))
		rep.tracedMine.addDur(mineDur)
		rep.openSamples.addDur(openDur)
		sp = tr.begin("canon", root)
		code, match := canonLayer(m.cz, res.Patterns, g)
		tr.add("canon.Append", sp, 0, code)
		tr.add("canon.CountEmbeddings", sp, code, code+match)
		tr.end(sp)
		rep.codeSamples.addDur(code)
		rep.matchSamples.addDur(match)
		return nil
	}
	rep.parSample(2, mineDur, res.Stats.IsoRun)
	rep.openSamples.addDur(openDur)
	rep.mine.addDur(mineDur)
	rep.job.addDur(jobDur)
	rep.poll = append(rep.poll, polls...)
	h.mine.addDur(mineDur)
	h.job.addDur(jobDur)
	h.topk.add(float64(topkEdges(res.Patterns)))
	h.recall.add(recall(res.Patterns, h.truth))

	// A repeat of the request answered from the stored result: decode of
	// its SPR1 encoding, the form the daemon's durable result tier keeps.
	enc, err := mine.EncodeResult(res)
	if err != nil {
		return err
	}
	for i := 0; i < cachedReps; i++ {
		t := time.Now()
		dec, err := mine.DecodeResult(enc)
		d := time.Since(t)
		rep.cached.addDur(d)
		h.cached.addDur(d)
		if err != nil {
			return err
		}
		if i == 0 {
			if err := h.check(dec); err != nil {
				return fmt.Errorf("decoded result: %w", err)
			}
		}
	}
	return nil
}

// check holds a result to the host's Workers: 1 reference.
func (h *gidHost) check(res *mine.Result) error {
	fp, err := fingerprint(res.Patterns)
	if err != nil {
		return err
	}
	if fp != h.refFP {
		return fmt.Errorf("%s: result differs from the Workers: 1 reference (%d patterns, %d edges)",
			h.files.Image, len(res.Patterns), topkEdges(res.Patterns))
	}
	return nil
}

// stageSpans turns progress events into child spans of the Mine span:
// Stage I, seeding, each grow+merge iteration, each recovery iteration,
// and the final selection.
func stageSpans(tr *tracer, parent int, events []mine.ProgressEvent) {
	var prev time.Duration
	for _, ev := range events {
		name := "spidermine." + ev.Stage
		if ev.Stage == "spiders" {
			name = "spider.stage1"
		}
		tr.add(name, parent, prev, ev.Elapsed)
		prev = ev.Elapsed
	}
}

// longestIteration is the longest grow+merge iteration of a run, from
// the Elapsed deltas of its progress events.
func longestIteration(events []mine.ProgressEvent) time.Duration {
	var longest, prev time.Duration
	for _, ev := range events {
		if ev.Stage == "growth" && ev.Elapsed-prev > longest {
			longest = ev.Elapsed - prev
		}
		prev = ev.Elapsed
	}
	return longest
}

func runMining(o *options, man *manifest, rep *report) error {
	miner, err := mine.Get("spidermine")
	if err != nil {
		return err
	}
	m := &miningRun{o: o, miner: miner, rep: rep, cz: canon.NewCanonizer()}
	for i, hf := range man.Hosts {
		h := &gidHost{files: hf, seed: hostSeed(o.seed, i)}
		if h.truth, err = readTruth(o.dir, hf); err != nil {
			return err
		}
		m.hosts = append(m.hosts, h)
	}

	// Set-up, once per host: open it and run one warm-up mine. setup_s is
	// the median over the hosts, so no one host's cost decides it.
	warm := make([]*mine.Result, len(m.hosts))
	for i, h := range m.hosts {
		t := time.Now()
		g, closeHost, err := openHost(o.dir, h.files)
		if err != nil {
			return err
		}
		warm[i], err = miner.Mine(context.Background(), mine.SingleGraph(g), gidOptions(h.seed, miningWorkers))
		closeHost()
		if err != nil {
			return fmt.Errorf("warm-up mine: %w", err)
		}
		rep.setupSamples.addDur(time.Since(t))
	}
	// The Workers: 1 references every result must equal.
	t := time.Now()
	for _, h := range m.hosts {
		g, closeHost, err := openHost(o.dir, h.files)
		if err != nil {
			return err
		}
		ref, err := miner.Mine(context.Background(), mine.SingleGraph(g), gidOptions(h.seed, 1))
		if err == nil {
			h.refFP, err = fingerprint(ref.Patterns)
		}
		closeHost()
		if err != nil {
			return fmt.Errorf("reference mine: %w", err)
		}
	}
	rep.referenceS = time.Since(t).Seconds()
	for i, h := range m.hosts {
		rep.noteOp(h.check(warm[i]))
	}

	// The measured loop visits the hosts in turn; a traced run does an
	// untraced, a traced and a sequential op on each host before moving on.
	var tr *tracer
	kinds := []opKind{opUntraced}
	if o.trace {
		tr = newTracer()
		kinds = []opKind{opUntraced, opTraced, opSequential}
	}
	clock, err := readCPUClock()
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < minMiningOps || time.Since(t0) < o.seconds; i++ {
		h := m.hosts[i/len(kinds)%len(m.hosts)]
		rep.noteOp(m.op(h, kinds[i%len(kinds)], tr))
	}
	window := time.Since(t0)
	if rep.env.StealShare, err = clock.stealShare(); err != nil {
		return err
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	// Hosts differ in cost, so each weighs the same: a metric is the mean
	// over hosts of the per-host statistic. Polls are pooled.
	perHost := func(f func(h *gidHost) float64) float64 {
		var s samples
		for _, h := range m.hosts {
			if len(h.mine) > 0 {
				s.add(f(h))
			}
		}
		return s.mean()
	}
	rep.e2e = map[string]float64{
		"setup_s":     rep.setupSamples.median(),
		"peak_rss_mb": rss,
		"mine_s":      perHost(func(h *gidHost) float64 { return h.mine.median() }),
		"topk_edges":  perHost(func(h *gidHost) float64 { return h.topk.mean() }),
		"recall":      perHost(func(h *gidHost) float64 { return h.recall.mean() }),
		"job_p50_ms":  perHost(func(h *gidHost) float64 { return h.job.quantile(0.5) }) * 1e3,
		"job_p90_ms":  perHost(func(h *gidHost) float64 { return h.job.quantile(0.9) }) * 1e3,
		"poll_p50_ms": rep.poll.quantile(0.5) * 1e3,
		"poll_p99_ms": rep.poll.quantile(0.99) * 1e3,
		"ops_per_s":   float64(len(rep.mine)) / window.Seconds(),
	}
	if !o.trace {
		return nil
	}

	for i := 0; i < setupReps; i++ {
		t := time.Now()
		mm, err := mine.OpenMappedTrusted(filepath.Join(o.dir, m.hosts[0].files.Image))
		if err != nil {
			return err
		}
		rep.trustedSamples.addDur(time.Since(t))
		mm.Close()
	}
	rep.traceOverhead = ratio(rep.tracedMine.median(), rep.mine.median())
	rep.layers = tr.layers()
	if err := tr.write(rep.spansPath); err != nil {
		return err
	}
	return m.serveProbe(m.hosts[0])
}

// serveProbe submits one host's mine to a spiderserved process once,
// then once more as a cache hit, so the serve and store layers have a
// reading on the mining workload too (where they should not move).
func (m *miningRun) serveProbe(gh *gidHost) error {
	body, err := os.ReadFile(filepath.Join(m.o.dir, gh.files.LG))
	if err != nil {
		return err
	}
	dataDir := filepath.Join(m.o.work, "probe")
	d, err := startDaemon(m.o.spiderserved, dataDir, 0, false)
	if err != nil {
		return err
	}
	defer d.kill()
	r := &serveRun{o: m.o, c: newClient(d.base), lat: make(map[string]*samples)}
	h := &corpusHost{files: gh.files, body: body}
	before, err := scrape(r.c, nil)
	if err != nil {
		return err
	}
	if err := r.upload(nil, h); err != nil {
		return err
	}
	o := gidOptions(gh.seed, miningWorkers)
	jo := jobOptions{MinSupport: o.MinSupport, K: o.K, Dmax: o.Dmax, Seed: o.Seed, Workers: o.Workers, MaxSpiders: o.MaxSpiders}
	var fresh samples
	for i := 0; i < 2; i++ {
		t := time.Now()
		snap, _, err := r.submit(nil, 0, h, jo)
		if err == nil && !snap.terminal() {
			snap, err = r.await(nil, 0, snap.ID, false)
		}
		if err != nil {
			return err
		}
		if snap.Status != "done" || snap.Cached != (i == 1) {
			return fmt.Errorf("probe job %d: status %q cached %v", i, snap.Status, snap.Cached)
		}
		if i == 0 {
			fresh.addDur(time.Since(t))
			r.queueWait.addDur(snap.Started.Sub(snap.Created))
			r.run.addDur(snap.Finished.Sub(snap.Started))
		}
	}
	after, err := scrape(r.c, nil)
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	m.rep.serveLayer(before, after, r.queueWait, r.run, fresh, 1, 1)
	return m.rep.measureRecover(dataDir, m.o.work)
}
