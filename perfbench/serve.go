package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/store"
	"repro/mine"
)

// serve_mixed runs spiderserved as a separate process and drives it with
// a closed loop of two clients, each sending its next request only after
// the previous one completed.
const (
	pollEvery   = 5 * time.Millisecond
	freshBase   = 1000 // MaxPatterns of the first fresh job; each later one adds 1
	uploadShare = 2    // of 3 corpus hosts, uploaded in set-up; the rest arrive during the run
	hotHosts    = 16   // the first hosts: repeat submits go to these
	probeHosts  = 3    // corpus hosts mined in-process for the par/mine layers
)

// Request class weights: cmd/spiderload's traffic mix restricted to the
// classes this workload sends. spiderload's cancel (10) and event-stream
// (20) classes are not sent; its /stats class (5) waits for the fix of
// the /stats deadlock (README.md), so /stats is probed once, after the
// window.
const (
	weightUpload = 5  // a random corpus host: new if it has not arrived, else a re-upload
	weightFresh  = 25 // fresh job, polled to terminal, result fetched and checked
	weightRepeat = 35 // repeat submit, answered from the cache
)

// serveMineOptions are the mining options of every serve_mixed job, and
// of the reference the generator computes per host. Jobs run
// single-threaded: with -runners 2 the daemon then uses both CPUs.
func serveMineOptions() mine.Options {
	return mine.Options{MinSupport: 3, K: 5, Seed: 1, Workers: 1}
}

// serveJobOptions are serveMineOptions in request form. A fresh job sets
// maxPatterns to a value no earlier job used: that is a new cache key,
// so the daemon mines, yet the cap is far above K and never truncates,
// so the answer must equal the host's reference. A repeat job passes 0.
func serveJobOptions(maxPatterns int) jobOptions {
	o := serveMineOptions()
	return jobOptions{MinSupport: o.MinSupport, K: o.K, Seed: o.Seed, Workers: o.Workers, MaxPatterns: maxPatterns}
}

// corpusHost is one host as the client knows it.
type corpusHost struct {
	files hostFiles
	body  []byte
	id    string
	truth []*graph.Graph
	g     *graph.Graph // decoded lazily, for the traced canon layer
	// claimed is set (under serveRun.mu) once a connection starts the
	// host's first upload.
	claimed bool
}

// serveRun is the state of one serve_mixed run; mu guards everything
// the workers record.
type serveRun struct {
	o     *options
	man   *manifest
	c     *client
	hosts []*corpusHost

	mu        sync.Mutex
	live      []int // indices of uploaded hosts
	freshSeq  int
	turn      int                 // fresh-job host rotation
	steal     float64             // steal share of machine CPU over the window
	lat       map[string]*samples // client latency by request class, seconds
	queueWait samples             // job record Started − Created, fresh jobs
	run       samples             // job record Finished − Started, fresh jobs
	recalls   samples
	topk      samples
	iterMax   samples
	traced    samples // fresh-job latency of traced jobs (trace mode)
	untraced  samples // ... and of untraced ones
	stats     []mine.Stats
	results   []*hostResult // traced runs: result patterns for the canon layer
	attempted int
	failed    int
	repeats   int
	cachedHit int
	failures  []string
}

type hostResult struct {
	host *corpusHost
	ps   []*mine.Pattern
}

// note records one attempted request and whether it failed.
func (r *serveRun) note(err error, what string) {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	if err != nil {
		r.fail(err, what)
	}
}

// fail records a failed check of a request that note already counted.
func (r *serveRun) fail(err error, what string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

func (r *serveRun) sample(class string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lat[class]
	if s == nil {
		s = new(samples)
		r.lat[class] = s
	}
	s.addDur(d)
}

func (r *serveRun) series(class string) samples {
	if s := r.lat[class]; s != nil {
		return *s
	}
	return nil
}

// upload posts a corpus host and checks the returned fingerprint id.
func (r *serveRun) upload(tr *tracer, h *corpusHost) error {
	rep := r.c.do(tr, 0, "upload", http.MethodPost, "/graphs", h.body)
	err := rep.ok(http.StatusCreated, http.StatusOK)
	var sg struct {
		ID string `json:"id"`
	}
	if err == nil {
		if err = json.Unmarshal(rep.body, &sg); err == nil && h.id != "" && sg.ID != h.id {
			err = fmt.Errorf("re-upload returned id %q, want %q", sg.ID, h.id)
		}
	}
	r.note(err, "upload "+h.files.LG)
	if err != nil {
		return err
	}
	if h.id == "" { // first upload; a re-upload returned the same id
		h.id = sg.ID
	}
	r.sample("upload", rep.dur)
	return nil
}

// submit posts one job and decodes the returned record.
func (r *serveRun) submit(tr *tracer, parent int, h *corpusHost, o jobOptions) (jobSnap, reply, error) {
	rep := r.c.do(tr, parent, "submit", http.MethodPost, "/jobs", jobBody(h.id, o))
	var snap jobSnap
	err := rep.ok(http.StatusAccepted, http.StatusOK)
	if err == nil {
		err = json.Unmarshal(rep.body, &snap)
	}
	r.note(err, "submit")
	return snap, rep, err
}

// await polls GET /jobs/{id} until the job is terminal; polls of a
// fresh job are the poll latency samples.
func (r *serveRun) await(tr *tracer, parent int, id string, record bool) (jobSnap, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		rep := r.c.do(tr, parent, "poll", http.MethodGet, "/jobs/"+id, nil)
		var snap jobSnap
		err := rep.ok(http.StatusOK)
		if err == nil {
			err = json.Unmarshal(rep.body, &snap)
		}
		r.note(err, "poll")
		if err != nil {
			return snap, err
		}
		if record {
			r.sample("poll", rep.dur)
		}
		if snap.terminal() {
			return snap, nil
		}
		if time.Now().After(deadline) {
			return snap, fmt.Errorf("job %s not terminal after 60s", id)
		}
		time.Sleep(pollEvery)
	}
}

// fresh submits a job on h with a cache key never used before, waits for it
// and checks its result: status done, a non-empty pattern list, and the
// same patterns as the host's sequential reference.
func (r *serveRun) fresh(tr *tracer, h *corpusHost) error {
	r.mu.Lock()
	r.freshSeq++
	maxPatterns := freshBase + r.freshSeq
	r.mu.Unlock()
	root := tr.begin("job.fresh", 0)
	defer tr.end(root)
	t0 := time.Now()
	snap, _, err := r.submit(tr, root, h, serveJobOptions(maxPatterns))
	if err != nil {
		return err
	}
	if !snap.terminal() {
		if snap, err = r.await(tr, root, snap.ID, true); err != nil {
			return err
		}
	}
	jobDur := time.Since(t0)

	rep := r.c.do(tr, root, "result", http.MethodGet, "/jobs/"+snap.ID+"/result", nil)
	var res struct {
		Status   string          `json:"status"`
		Error    string          `json:"error"`
		Stats    mine.Stats      `json:"stats"`
		Patterns []*mine.Pattern `json:"patterns"`
	}
	err = rep.ok(http.StatusOK)
	if err == nil {
		err = json.Unmarshal(rep.body, &res)
	}
	if err == nil && (snap.Status != "done" || res.Status != "done") {
		err = fmt.Errorf("job %s ended %q: %s", snap.ID, snap.Status, res.Error)
	}
	if err == nil && len(res.Patterns) == 0 {
		err = fmt.Errorf("job %s: empty result", snap.ID)
	}
	if err == nil {
		var fp string
		if fp, err = fingerprint(res.Patterns); err == nil && fp != h.files.RefFP {
			err = fmt.Errorf("job %s: result differs from the host's reference", snap.ID)
		}
	}
	r.note(err, "result")
	if err != nil {
		return err
	}
	var iterMax time.Duration
	if tr != nil {
		iterMax, err = r.events(tr, root, snap.ID)
		if err != nil {
			return err
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lat["fresh"]
	if s == nil {
		s = new(samples)
		r.lat["fresh"] = s
	}
	s.addDur(jobDur)
	r.queueWait.addDur(snap.Started.Sub(snap.Created))
	r.run.addDur(snap.Finished.Sub(snap.Started))
	r.recalls.add(recall(res.Patterns, h.truth))
	r.topk.add(float64(topkEdges(res.Patterns)))
	r.stats = append(r.stats, res.Stats)
	if tr != nil {
		r.traced.addDur(jobDur)
		r.iterMax.addDur(iterMax)
		r.results = append(r.results, &hostResult{host: h, ps: res.Patterns})
	} else {
		r.untraced.addDur(jobDur)
	}
	return nil
}

// events reads a finished job's NDJSON progress stream and returns its
// longest grow+merge iteration.
func (r *serveRun) events(tr *tracer, parent int, id string) (time.Duration, error) {
	rep := r.c.do(tr, parent, "events", http.MethodGet, "/jobs/"+id+"/events", nil)
	err := rep.ok(http.StatusOK)
	r.note(err, "events")
	if err != nil {
		return 0, err
	}
	var evs []mine.ProgressEvent
	sc := bufio.NewScanner(bytes.NewReader(rep.body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev mine.ProgressEvent
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Stage != "" {
			evs = append(evs, ev)
		}
	}
	return longestIteration(evs), nil
}

// repeat submits a hot host's fixed-key job, which set-up already
// computed: the daemon must answer it from its result cache.
func (r *serveRun) repeat(tr *tracer, h *corpusHost) error {
	root := tr.begin("job.repeat", 0)
	defer tr.end(root)
	snap, rep, err := r.submit(tr, root, h, serveJobOptions(0))
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.repeats++
	if snap.Cached {
		r.cachedHit++
	}
	r.mu.Unlock()
	if !snap.Cached {
		err = fmt.Errorf("repeat job %s on %s was not answered from the cache", snap.ID, h.files.LG)
		r.fail(err, "repeat")
		return err
	}
	r.sample("cached", rep.dur)
	return nil
}

func (r *serveRun) statsProbe(tr *tracer) error {
	rep := r.c.do(tr, 0, "stats", http.MethodGet, "/stats", nil)
	err := rep.ok(http.StatusOK)
	r.note(err, "stats")
	if err == nil {
		r.sample("stats", rep.dur)
	}
	return err
}

// pickUpload draws the host of an upload: a random corpus host, claimed
// for its first upload if no connection has sent it yet, or else a
// random uploaded host to send again.
func (r *serveRun) pickUpload(rng *rand.Rand) (h *corpusHost, isNew bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hosts[rng.Intn(len(r.hosts))]; !h.claimed {
		h.claimed = true
		return h, true
	}
	return r.hosts[r.live[rng.Intn(len(r.live))]], false
}

// nextLive returns the uploaded hosts in turn, so every host weighs the
// same in the fresh-job series.
func (r *serveRun) nextLive() *corpusHost {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.turn++
	return r.hosts[r.live[r.turn%len(r.live)]]
}

// pickHot returns a random host of the hot set, whose repeat results
// set-up computed.
func (r *serveRun) pickHot(rng *rand.Rand) *corpusHost {
	return r.hosts[rng.Intn(r.hot())]
}

// hot is the size of the hot set: the first hotHosts hosts, all of them
// uploaded in set-up.
func (r *serveRun) hot() int { return min(hotHosts, r.setupHosts()) }

// setupHosts is how many hosts set-up uploads.
func (r *serveRun) setupHosts() int { return len(r.hosts) * uploadShare / 3 }

func (r *serveRun) markLive(h *corpusHost) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, c := range r.hosts {
		if c == h {
			r.live = append(r.live, i)
		}
	}
}

// clientLoop is one connection of the closed loop: it draws each
// request class by weight until the deadline. A traced run mines the host
// of a fresh job twice in a row, untraced then traced, so tracing
// overhead is measured in-run on the same hosts.
func (r *serveRun) clientLoop(rng *rand.Rand, deadline time.Time, tr *tracer) {
	for time.Now().Before(deadline) {
		switch p := rng.Intn(weightUpload + weightFresh + weightRepeat); {
		case p < weightUpload:
			h, isNew := r.pickUpload(rng)
			if r.upload(tr, h) == nil && isNew {
				r.markLive(h)
			}
		case p < weightUpload+weightFresh:
			h := r.nextLive()
			if tr != nil {
				r.fresh(nil, h)
			}
			r.fresh(tr, h)
		default:
			r.repeat(tr, r.pickHot(rng))
		}
	}
}

// window runs the clients for the measured window, between two /metrics
// scrapes. /stats is probed once after the clients stop: concurrent with
// a cached submit, it can deadlock the daemon (see README.md).
func (r *serveRun) window(tr *tracer) (before, after map[string]float64, window time.Duration, err error) {
	if before, err = scrape(r.c, tr); err != nil {
		return nil, nil, 0, err
	}
	clock, err := readCPUClock()
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	deadline := t0.Add(r.o.seconds)
	var wg sync.WaitGroup
	for c := int64(0); c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.clientLoop(rand.New(rand.NewSource(2*r.o.seed+c)), deadline, tr)
		}()
	}
	wg.Wait()
	window = time.Since(t0)
	if r.steal, err = clock.stealShare(); err != nil {
		return nil, nil, 0, err
	}
	if err = r.statsProbe(tr); err != nil {
		return nil, nil, 0, err
	}
	after, err = scrape(r.c, tr)
	return before, after, window, err
}

// serveSetup starts a daemon on a fresh data dir, uploads the first
// uploadShare/3 of the corpus, computes the hot hosts' repeat jobs, stops the
// daemon with SIGTERM, restarts it on the same dir (one recovery) and
// runs one fresh job as the warm-up.
func (r *serveRun) serveSetup(dataDir string) (*daemon, error) {
	d, err := startDaemon(r.o.spiderserved, dataDir, r.man.ImageEdges, r.o.trace)
	if err != nil {
		return nil, err
	}
	r.c = newClient(d.base)
	r.live, r.turn = nil, 0
	for _, h := range r.hosts {
		h.id, h.claimed = "", false
	}
	for _, h := range r.hosts[:r.setupHosts()] {
		h.claimed = true
		if err := r.upload(nil, h); err != nil {
			d.kill()
			return nil, err
		}
		r.markLive(h)
	}
	for _, h := range r.hosts[:r.hot()] {
		snap, _, err := r.submit(nil, 0, h, serveJobOptions(0))
		if err == nil && !snap.terminal() {
			_, err = r.await(nil, 0, snap.ID, false)
		}
		if err != nil {
			d.kill()
			return nil, err
		}
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	if d, err = startDaemon(r.o.spiderserved, dataDir, r.man.ImageEdges, r.o.trace); err != nil {
		return nil, err
	}
	r.c = newClient(d.base)
	if err := r.fresh(nil, r.nextLive()); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

func runServe(o *options, man *manifest, rep *report) error {
	r := &serveRun{o: o, man: man, lat: make(map[string]*samples)}
	for _, hf := range man.Hosts {
		body, err := os.ReadFile(filepath.Join(o.dir, hf.LG))
		if err != nil {
			return err
		}
		truth, err := readTruth(o.dir, hf)
		if err != nil {
			return err
		}
		r.hosts = append(r.hosts, &corpusHost{files: hf, body: body, truth: truth})
	}

	var setup samples
	var d *daemon
	var dataDir string
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		t := time.Now()
		dataDir = filepath.Join(o.work, fmt.Sprintf("data%d", i))
		var err error
		if d, err = r.serveSetup(dataDir); err != nil {
			return err
		}
		setup.addDur(time.Since(t))
	}
	defer d.kill()
	// The warm-ups are set-up: measured series start here.
	r.mu.Lock()
	setupOps := r.attempted - r.failed
	r.lat = make(map[string]*samples)
	r.queueWait, r.run, r.recalls, r.topk, r.stats, r.untraced = nil, nil, nil, nil, nil, nil
	r.mu.Unlock()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// A traced run profiles the daemon's CPU over the window.
	var prof []byte
	profErr := make(chan error, 1)
	if o.trace {
		go func() {
			var err error
			prof, err = d.cpuProfile(max(int(o.seconds/time.Second)-1, 1))
			profErr <- err
		}()
	} else {
		profErr <- nil
	}
	before, after, window, err := r.window(tr)
	if err != nil {
		return errors.Join(err, d.dumpStacks(filepath.Join(o.reports, "spiderserved-stacks.log")))
	}
	if err := <-profErr; err != nil {
		return err
	}
	if prof != nil {
		if err := rep.cpu.add(prof); err != nil {
			return err
		}
	}
	rss, err := peakRSSMB(d.pid())
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}

	fresh, cached, poll := r.series("fresh"), r.series("cached"), r.series("poll")
	if len(fresh) == 0 || len(cached) == 0 || len(poll) == 0 {
		return fmt.Errorf("run too short: %d fresh jobs, %d cached repeats, %d polls", len(fresh), len(cached), len(poll))
	}
	completed := r.attempted - r.failed - setupOps
	rep.attempted, rep.failed, rep.failures = r.attempted, r.failed, r.failures
	rep.setupSamples, rep.mine, rep.job, rep.cached, rep.poll = setup, r.run, fresh, cached, poll
	rep.env.StealShare = r.steal
	rep.e2e = map[string]float64{
		"setup_s":     setup.median(),
		"peak_rss_mb": rss,
		"mine_s":      r.run.median(),
		"topk_edges":  r.topk.mean(),
		"recall":      r.recalls.mean(),
		"job_p50_ms":  fresh.quantile(0.5) * 1e3,
		"job_p90_ms":  fresh.quantile(0.9) * 1e3,
		"poll_p50_ms": poll.quantile(0.5) * 1e3,
		"poll_p99_ms": poll.quantile(0.99) * 1e3,
		"ops_per_s":   float64(completed) / window.Seconds(),
	}
	for class, s := range r.lat {
		rep.series[class] = *s
	}
	rep.series["queue_wait"] = r.queueWait
	rep.series["run"] = r.run
	if !o.trace {
		return nil
	}

	// Per-layer view. The mining layers come from the daemon's own
	// result Stats; graph, canon, par and mine are measured here, on the
	// same corpus, since they cannot be observed across the process
	// boundary.
	rep.mineStats = r.stats
	rep.iterMax = r.iterMax
	rep.traceOverhead = ratio(r.traced.median(), r.untraced.median())
	rep.serveLayer(before, after, r.queueWait, r.run, r.series("fresh"), r.repeats, r.cachedHit)
	if err := rep.measureRecover(dataDir, o.work); err != nil {
		return err
	}
	for _, h := range r.hosts {
		t := time.Now()
		g, err := readLG(filepath.Join(o.dir, h.files.LG))
		if err != nil {
			return err
		}
		rep.openSamples.addDur(time.Since(t))
		h.g = g
		t = time.Now()
		m, err := mine.OpenMappedTrusted(filepath.Join(o.dir, h.files.Image))
		if err != nil {
			return err
		}
		rep.trustedSamples.addDur(time.Since(t))
		m.Close()
	}
	cz := canon.NewCanonizer()
	for _, hr := range r.results {
		c, m := canonLayer(cz, hr.ps, hr.host.g)
		rep.codeSamples.addDur(c)
		rep.matchSamples.addDur(m)
	}

	miner, err := mine.Get("spidermine")
	if err != nil {
		return err
	}
	for i := 0; i < probeHosts && i < len(r.hosts); i++ {
		for _, w := range []int{1, 2} {
			opts := serveMineOptions()
			opts.Workers = w
			var md memDelta
			md.start()
			t := time.Now()
			res, err := miner.Mine(context.Background(), mine.SingleGraph(r.hosts[i].g), opts)
			dur := time.Since(t)
			mb, gcs := md.stop()
			if err != nil {
				return err
			}
			rep.parSample(w, dur, res.Stats.IsoRun)
			rep.allocMB.add(mb)
			rep.gcs.add(float64(gcs))
		}
	}
	rep.layers = tr.layers()
	return tr.write(rep.spansPath)
}

// measureRecover times store.OpenDisk on copies of a stopped daemon's
// data dir: the storage engine's recovery, without the HTTP layer.
func (rep *report) measureRecover(dataDir, work string) error {
	var rec samples
	for i := 0; i < setupReps; i++ {
		cp := filepath.Join(work, fmt.Sprintf("recover%d", i))
		if err := copyDir(dataDir, cp); err != nil {
			return err
		}
		t := time.Now()
		st, err := store.OpenDisk(cp)
		if err != nil {
			return fmt.Errorf("recover data dir copy: %w", err)
		}
		rec.addDur(time.Since(t))
		if err := st.Close(); err != nil {
			return err
		}
	}
	rep.recoverS = rec.median()
	return nil
}

// serveLayer derives the serve and store layer metrics from /metrics
// deltas over the measured window and the fresh jobs' records.
func (rep *report) serveLayer(before, after map[string]float64, queueWait, run, fresh samples, repeats, cachedHit int) {
	d := func(name string) float64 { return metricDelta(before, after, name) }
	hits, misses, degraded := d("spiderserved_cache_hits_total"), d("spiderserved_cache_misses_total"), d("spiderserved_cache_degraded_total")
	rep.serve = map[string]float64{
		"serve.queue_wait_p50_ms":   queueWait.median() * 1e3,
		"serve.run_p50_ms":          run.median() * 1e3,
		"serve.run_share":           ratio(run.sum(), fresh.sum()),
		"serve.cache_hit_ratio":     ratio(hits, hits+misses+degraded),
		"serve.client_cached_ratio": ratio(float64(cachedHit), float64(repeats)),
		"serve.cache_degraded":      degraded,
		"serve.rejections":          d("spiderserved_rejections_total{"),
		"store.bytes_written":       d("spiderserved_store_disk_bytes_written_total"),
		"store.fsyncs":              d("spiderserved_store_disk_fsyncs_total"),
		"store.write_amp":           ratio(d("spiderserved_store_disk_bytes_written_total"), d("spiderserved_upload_bytes_total")),
	}
}

// canonLayer times Canonizer.Append over the result patterns and
// CountEmbeddings of each in the host.
func canonLayer(cz *canon.Canonizer, ps []*mine.Pattern, host *graph.Graph) (code, match time.Duration) {
	var buf []byte
	t := time.Now()
	for _, p := range ps {
		buf = cz.Append(buf[:0], p.G)
	}
	code = time.Since(t)
	t = time.Now()
	for _, p := range ps {
		canon.CountEmbeddings(p.G, host, matchLimit)
	}
	return code, time.Since(t)
}

// copyDir copies the regular files of a flat directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}
