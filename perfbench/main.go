// Command perfbench is the repository's end-to-end benchmark. It drives
// the system only from outside: the mine façade, the public functions of
// the graph, canon and store packages, and spiderserved over HTTP as a
// separate process. Build and run it through run.sh from the repository
// root:
//
//	bash perfbench/run.sh --workload gid10_mapped --seed 1 --seconds 40 --trace 0
//
// run.sh builds this program and spiderserved, runs "perfbench gen" to
// write the workload's inputs, then "perfbench run" to measure. The last
// line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A full report (input
// sizes, sample counts, tails, layer self-times) and, for --trace 1, the
// spans go to .bench_build/reports. README.md defines every workload and
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	setupReps    = 3 // set-ups per run; setup_s is their median
	minMiningOps = 3
)

// options are the command-line flags shared by gen and run.
type options struct {
	workload     string
	seed         int64
	seconds      time.Duration
	trace        bool
	dir          string // generated inputs
	work         string // scratch for data dirs
	reports      string
	spiderserved string
}

var workloads = []string{"gid10_mapped", "serve_mixed"}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) == 0 || (args[0] != "gen" && args[0] != "run") {
		fmt.Fprintln(os.Stderr, "usage: perfbench gen|run --workload W --seed N --dir D [--seconds S --trace 0|1 --work D --reports D --spiderserved BIN]")
		return 2
	}
	fs := flag.NewFlagSet("perfbench "+args[0], flag.ContinueOnError)
	var o options
	var secs, trace int
	fs.StringVar(&o.workload, "workload", "", "gid10_mapped | serve_mixed")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&secs, "seconds", 40, "measured window, seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	fs.StringVar(&o.dir, "dir", "", "input directory")
	fs.StringVar(&o.work, "work", "", "scratch directory for daemon data dirs")
	fs.StringVar(&o.reports, "reports", "", "directory for the full report and spans")
	fs.StringVar(&o.spiderserved, "spiderserved", "", "spiderserved binary")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	o.seconds, o.trace = time.Duration(secs)*time.Second, trace == 1
	if !known(o.workload) || o.dir == "" {
		fmt.Fprintf(os.Stderr, "perfbench: --workload must be one of %v and --dir set\n", workloads)
		return 2
	}
	if args[0] == "gen" {
		if _, err := generate(o.workload, o.seed, o.dir, fullScale); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench gen: %v\n", err)
			return 1
		}
		return 0
	}
	rep, err := measure(&o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench run: %v\n", err)
		return 1
	}
	out, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench run: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func known(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

// measure runs one workload and returns its finished report, after
// writing the full form of it to the reports directory.
func measure(o *options) (*report, error) {
	man, err := readManifest(o.dir)
	if err != nil {
		return nil, err
	}
	if man.Workload != o.workload || man.Seed != o.seed {
		return nil, fmt.Errorf("inputs in %s are for %s seed %d", o.dir, man.Workload, man.Seed)
	}
	if o.work == "" {
		o.work = filepath.Join(o.dir, "work")
	}
	if o.reports == "" {
		o.reports = o.dir
	}
	for _, d := range []string{o.work, o.reports} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, btoi(o.trace))
	rep := newReport(o, man)
	rep.spansPath = filepath.Join(o.reports, base+"-spans.json")
	if o.workload == "serve_mixed" {
		err = runServe(o, man, rep)
	} else {
		err = runMining(o, man, rep)
	}
	if err != nil {
		return nil, err
	}
	if err := rep.finish(o.trace); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(rep.full(), "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(o.reports, base+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: report %s\n", path)
	return rep, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// environment is the block every report carries.
type environment struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Workers    int     `json:"workers"`
	Seed       int64   `json:"seed"`
	Workload   string  `json:"workload"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Hosts      int     `json:"hosts"`
	N          int     `json:"n"`
	M          int     `json:"m"`
	Labels     int     `json:"labels"`
	Bytes      int64   `json:"corpus_bytes"`
	ImageEdges int     `json:"image_edges,omitempty"`
	StealShare float64 `json:"steal_share"` // of machine CPU time during the window
}

func environmentOf(o *options, man *manifest) environment {
	e := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Workers: miningWorkers, Seed: o.seed, Workload: o.workload, Seconds: o.seconds.Seconds(),
		Trace: o.trace, Hosts: len(man.Hosts), ImageEdges: man.ImageEdges,
	}
	if o.workload == "serve_mixed" {
		e.Workers = serveMineOptions().Workers
	}
	for _, h := range man.Hosts {
		e.N += h.N
		e.M += h.M
		e.Labels = max(e.Labels, h.Labels)
		e.Bytes += h.LGBytes
	}
	return e
}
