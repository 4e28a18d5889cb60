package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/spider"
	"repro/mine"
)

// The quantile function must agree with the order statistics of a sorted
// copy: exactly at q = k/(n-1), and between the two neighbours elsewhere.
func TestQuantileMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 40; n++ {
		var s samples
		for i := 0; i < n; i++ {
			s.add(rng.NormFloat64())
		}
		ref := append([]float64(nil), s...)
		sort.Float64s(ref)
		for k := 0; k < n; k++ {
			q := 0.0
			if n > 1 {
				q = float64(k) / float64(n-1)
			}
			if got := s.quantile(q); got != ref[k] {
				t.Fatalf("n=%d q=%v: got %v, want order statistic %v", n, q, got, ref[k])
			}
		}
		for i := 0; i < 20; i++ {
			q := rng.Float64()
			h := q * float64(n-1)
			lo, hi := ref[int(h)], ref[min(int(h)+1, n-1)]
			if got := s.quantile(q); got < lo || got > hi {
				t.Fatalf("n=%d q=%v: %v outside [%v, %v]", n, q, got, lo, hi)
			}
		}
	}
	if got := (samples{}).quantile(0.5); got != 0 {
		t.Fatalf("empty series: %v", got)
	}
}

func TestTailQuantileLeavesTenSamples(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {40, 0.75}, {100, 0.9}, {200, 0.95}, {1000, 0.99}, {20000, 0.999}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// A result that differs from the reference in one embedding must fail
// the check.
func TestFingerprintCheckFailsOnPerturbedResult(t *testing.T) {
	g, _ := mine.Synthetic(gen.GIDConfig(1, 1))
	miner, err := mine.Get("spidermine")
	if err != nil {
		t.Fatal(err)
	}
	opts := mine.Options{MinSupport: 2, K: 3, Dmax: 4, Seed: 1, Workers: 2}
	res, err := miner.Mine(context.Background(), mine.SingleGraph(g), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 1
	ref, err := miner.Mine(context.Background(), mine.SingleGraph(g), opts)
	if err != nil {
		t.Fatal(err)
	}
	h := &gidHost{}
	if h.refFP, err = fingerprint(ref.Patterns); err != nil {
		t.Fatal(err)
	}
	if err := h.check(res); err != nil {
		t.Fatalf("parallel result rejected: %v", err)
	}
	p := res.Patterns[0]
	if len(p.Emb) < 2 {
		t.Fatalf("pattern has %d embeddings; need two to perturb", len(p.Emb))
	}
	p.Emb = p.Emb[1:]
	if err := h.check(res); err == nil {
		t.Fatal("a result missing an embedding passed the check")
	}
}

// BENCHMARK.json must declare exactly the workloads and metrics the
// program prints.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, workloads)
	}
	for i := range names {
		if names[i] != workloads[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program %v", names, workloads)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// The profile decoder must find the mining layers in a real CPU profile.
// Stage I is a small share of a GID-2 mine, so the loop also runs the
// star miner on its own.
func TestCPUProfileShares(t *testing.T) {
	g, _ := mine.Synthetic(gen.GIDConfig(2, 1))
	miner, err := mine.Get("spidermine")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for t0 := time.Now(); time.Since(t0) < time.Second; {
		spider.MineStars(g, spider.DefaultOptions(2))
		if _, err := miner.Mine(context.Background(), mine.SingleGraph(g), mine.Options{MinSupport: 2, K: 5, Dmax: 4, Workers: 2}); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	var c cpuProfile
	if err := c.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	stage1, merge := c.share("stage1"), c.share("merge")
	if c.total == 0 || stage1 <= 0 || merge <= 0 || stage1+merge > 1 {
		t.Fatalf("total %d ns, stage1 share %v, merge share %v", c.total, stage1, merge)
	}
}

var (
	serverOnce sync.Once
	serverDir  string
	serverBin  string
	serverErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if serverDir != "" {
		os.RemoveAll(serverDir)
	}
	os.Exit(code)
}

// spiderserved builds the daemon once for the smoke runs.
func spiderserved(t *testing.T) string {
	serverOnce.Do(func() {
		serverDir, serverErr = os.MkdirTemp("", "perfbench-bin")
		if serverErr != nil {
			return
		}
		serverBin = filepath.Join(serverDir, "spiderserved")
		out, err := exec.Command("go", "build", "-o", serverBin, "repro/cmd/spiderserved").CombinedOutput()
		if err != nil {
			serverErr = err
			t.Logf("%s", out)
		}
	})
	if serverErr != nil {
		t.Fatal(serverErr)
	}
	return serverBin
}

// Each workload, shrunk, runs end to end in both modes: correct, and
// printing exactly its declared metric set.
func TestSmokeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs spiderserved")
	}
	tiny := scale{gid: 6, gidHosts: 2, corpus: 6, corpusHost: 120}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := generate(w, 1, dir, tiny); err != nil {
				t.Fatal(err)
			}
			for _, trace := range []bool{false, true} {
				o := &options{workload: w, seed: 1, seconds: time.Second, trace: trace, dir: dir,
					work: filepath.Join(dir, "work", btoaTrace(trace)), reports: filepath.Join(dir, "reports"),
					spiderserved: spiderserved(t)}
				rep, err := measure(o)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				res := rep.result
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: %+v failures %v", trace, res, rep.failures)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(want))
				}
			}
		})
	}
}

func btoaTrace(b bool) string {
	if b {
		return "traced"
	}
	return "untraced"
}
