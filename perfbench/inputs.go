package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/mine"
)

// hostFiles names one generated host on disk: its LG text, its SPC1
// image and the LG files of its injected patterns, which recall is
// measured against. RefFP is the fingerprint of a serve_mixed host's
// sequential reference result, which every daemon answer must match;
// empty when the measured process computes its own reference.
type hostFiles struct {
	LG      string   `json:"lg"`
	Image   string   `json:"image"`
	Truth   []string `json:"truth,omitempty"`
	RefFP   string   `json:"ref_fp,omitempty"`
	N       int      `json:"n"`
	M       int      `json:"m"`
	Labels  int      `json:"labels"`
	LGBytes int64    `json:"lg_bytes"`
}

// manifest is what the generator hands the measured process: file names
// relative to the input directory, plus input sizes for the report.
type manifest struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Hosts    []hostFiles `json:"hosts"`
	// ImageEdges is the spiderserved -image-edges value: one below the
	// corpus' median host edge count, so both durable formats see writes.
	ImageEdges int `json:"image_edges,omitempty"`
}

const manifestName = "manifest.json"

// scale shrinks every workload for the package's own smoke tests; 1 is
// the benchmark proper.
type scale struct {
	gid        int // GID-6..10 row of Table 3
	gidHosts   int // gid10_mapped hosts
	corpus     int // serve_mixed hosts
	corpusHost int // serve_mixed host vertex count
}

var fullScale = scale{gid: 10, gidHosts: 8, corpus: 384, corpusHost: 300}

// hostSeed is the generator (and mining) seed of host i of a run.
func hostSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// generate writes the inputs of one workload for one seed into dir.
func generate(workload string, seed int64, dir string, sc scale) (*manifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man := &manifest{Workload: workload, Seed: seed}
	switch workload {
	case "gid10_mapped":
		man.Hosts = make([]hostFiles, sc.gidHosts)
		err := inParallel(len(man.Hosts), func(i int) (err error) {
			g, inj := mine.Synthetic(gen.GIDConfigLarge(sc.gid, hostSeed(seed, i)))
			man.Hosts[i], err = writeHost(dir, fmt.Sprintf("gid%d", i), g, inj)
			return err
		})
		if err != nil {
			return nil, err
		}
	case "serve_mixed":
		// Hosts share one size: with sizes spread ±20%, the corpus mean of
		// the mining cost moved ±12% from seed to seed. One label per
		// background vertex and a sparse background keep the injected
		// patterns recoverable: with 40 labels and degree 4, the top-5 were
		// larger spurious trees and recall was 0 on every host.
		miner, err := mine.Get("spidermine")
		if err != nil {
			return nil, err
		}
		man.Hosts = make([]hostFiles, sc.corpus)
		err = inParallel(len(man.Hosts), func(i int) error {
			g, inj := mine.Synthetic(mine.SyntheticConfig{
				N: sc.corpusHost, AvgDeg: 2, NumLabels: sc.corpusHost,
				Large: mine.InjectSpec{NV: 10, Count: 2, Support: 6},
				Seed:  hostSeed(seed, i),
			})
			ref, err := miner.Mine(context.Background(), mine.SingleGraph(g), serveMineOptions())
			if err != nil {
				return fmt.Errorf("reference mine: %w", err)
			}
			hf, err := writeHost(dir, fmt.Sprintf("host%02d", i), g, inj)
			if err != nil {
				return err
			}
			hf.RefFP, err = fingerprint(ref.Patterns)
			man.Hosts[i] = hf
			return err
		})
		if err != nil {
			return nil, err
		}
		ms := make([]int, len(man.Hosts))
		for i, h := range man.Hosts {
			ms[i] = h.M
		}
		sort.Ints(ms)
		man.ImageEdges = max(ms[len(ms)/2]-1, 1)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	b, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, err
	}
	return man, os.WriteFile(filepath.Join(dir, manifestName), b, 0o644)
}

// writeHost writes g as LG text and as an SPC1 image, and each truth
// pattern as LG.
func writeHost(dir, name string, g *graph.Graph, truth []*graph.Graph) (hostFiles, error) {
	hf := hostFiles{LG: name + ".lg", Image: name + ".spc1", N: g.N(), M: g.M(), Labels: g.NumLabels()}
	var buf bytes.Buffer
	if err := g.WriteLG(&buf, name); err != nil {
		return hf, err
	}
	hf.LGBytes = int64(buf.Len())
	if err := os.WriteFile(filepath.Join(dir, hf.LG), buf.Bytes(), 0o644); err != nil {
		return hf, err
	}
	if err := graph.WriteImageFile(g, filepath.Join(dir, hf.Image)); err != nil {
		return hf, err
	}
	for i, p := range truth {
		pn := fmt.Sprintf("%s.truth%d.lg", name, i)
		buf.Reset()
		if err := p.WriteLG(&buf, pn); err != nil {
			return hf, err
		}
		if err := os.WriteFile(filepath.Join(dir, pn), buf.Bytes(), 0o644); err != nil {
			return hf, err
		}
		hf.Truth = append(hf.Truth, pn)
	}
	return hf, nil
}

// inParallel runs f(0..n-1) on two goroutines, the machine's core count
// the benchmark is sized for, and joins their errors.
func inParallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func readManifest(dir string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var man manifest
	if err := json.Unmarshal(b, &man); err != nil {
		return nil, fmt.Errorf("parse %s: %w", manifestName, err)
	}
	return &man, nil
}

// readLG decodes one LG file.
func readLG(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, _, err := graph.ReadLG(f)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return g, nil
}

// readTruth loads a host's ground-truth patterns.
func readTruth(dir string, hf hostFiles) ([]*graph.Graph, error) {
	var out []*graph.Graph
	for _, p := range hf.Truth {
		g, err := readLG(filepath.Join(dir, p))
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}
