package spider

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// referenceStars is the naive oracle for StarMiner: for every vertex it
// enumerates each sub-multiset (1..maxLeaves leaves) of its neighbor
// labels directly, groups hosts by (head, leaves), keeps groups with at
// least sigma hosts, and orders them level by level (leaf count), then by
// cmpStars, with hosts ascending. No frontier, no carried host lists.
func referenceStars(g *graph.Graph, sigma, maxLeaves, maxSpiders int) []*MinedStar {
	if sigma < 1 {
		sigma = 1
	}
	if maxLeaves <= 0 {
		maxLeaves = g.MaxDegree()
	}
	groups := map[string]*MinedStar{}
	for v := 0; v < g.N(); v++ {
		counts := map[graph.Label]int{}
		for _, w := range g.Neighbors(graph.V(v)) {
			counts[g.Label(w)]++
		}
		labels := make([]graph.Label, 0, len(counts))
		for l := range counts {
			labels = append(labels, l)
		}
		slices.Sort(labels)
		head := g.Label(graph.V(v))
		var leaves []graph.Label
		var rec func(i int)
		rec = func(i int) {
			if i == len(labels) {
				if len(leaves) == 0 {
					return
				}
				key := fmt.Sprint(head, leaves)
				ms, ok := groups[key]
				if !ok {
					ms = &MinedStar{Star: Star{Head: head, Leaves: slices.Clone(leaves)}}
					groups[key] = ms
				}
				ms.Hosts = append(ms.Hosts, graph.V(v))
				return
			}
			base := len(leaves)
			for c := 0; c <= counts[labels[i]] && base+c <= maxLeaves; c++ {
				leaves = leaves[:base]
				for k := 0; k < c; k++ {
					leaves = append(leaves, labels[i])
				}
				rec(i + 1)
			}
			leaves = leaves[:base]
		}
		rec(0)
	}
	var out []*MinedStar
	for _, ms := range groups {
		if len(ms.Hosts) >= sigma {
			out = append(out, ms)
		}
	}
	slices.SortFunc(out, func(a, b *MinedStar) int {
		if d := len(a.Star.Leaves) - len(b.Star.Leaves); d != 0 {
			return d
		}
		return cmpStars(a, b)
	})
	if maxSpiders > 0 && len(out) > maxSpiders {
		out = out[:maxSpiders]
	}
	return out
}

// repeatedLabelGraph is a random graph over few labels with a handful of
// hubs, so stars routinely repeat leaf labels and the multiplicity rule
// of the last leaf matters. Labels start at -1: the LG reader accepts
// negative labels, so the miner must order and count them too.
func repeatedLabelGraph(n, labels, hubs int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n, 3*n)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(rng.Intn(labels) - 1))
	}
	for i := 0; i < 3*n/2; i++ {
		b.AddEdge(graph.V(rng.Intn(n)), graph.V(rng.Intn(n)))
	}
	for h := 0; h < hubs; h++ {
		hub := graph.V(rng.Intn(n))
		for i := 0; i < 6+rng.Intn(8); i++ {
			b.AddEdge(hub, graph.V(rng.Intn(n)))
		}
	}
	// For each σ the differential test uses, a head label carried by
	// exactly σ vertices that share one leaf label: its single-leaf star
	// sits exactly at the support threshold.
	for _, s := range diffSigmas {
		anchor := b.AddVertex(graph.Label(20 + s))
		for i := 0; i < s; i++ {
			b.AddEdge(anchor, b.AddVertex(graph.Label(10+s)))
		}
	}
	return b.Build()
}

// diffSigmas are the support thresholds TestStarMinerMatchesReference
// sweeps.
var diffSigmas = []int{1, 2, 3, 5}

// TestStarMinerMatchesReference is the Stage I differential test: the
// mined star list — heads, leaf multisets, hosts and their order — equals
// the naive reference over random graphs with repeated leaf labels,
// several σ, leaf caps (1 is a level-1-only catalog) and spider caps, at
// workers 1, 2 and 4, through one reused StarMiner.
func TestStarMinerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	graphs := 24
	if testing.Short() {
		graphs = 6
	}
	var sm StarMiner
	for gi := 0; gi < graphs; gi++ {
		g := repeatedLabelGraph(30+rng.Intn(40), 2+rng.Intn(3), rng.Intn(4), rng)
		for _, sigma := range diffSigmas {
			for _, maxLeaves := range []int{0, 1, 2, 4} {
				for _, maxSpiders := range []int{0, 40} {
					want := referenceStars(g, sigma, maxLeaves, maxSpiders)
					for _, workers := range []int{1, 2, 4} {
						opt := Options{MinSupport: sigma, MaxLeaves: maxLeaves, MaxSpiders: maxSpiders, Workers: workers}
						got, err := sm.Mine(context.Background(), g, opt)
						if err != nil {
							t.Fatal(err)
						}
						if err := sameStars(got, want); err != nil {
							t.Fatalf("graph %d %+v: %v", gi, opt, err)
						}
					}
				}
			}
		}
	}
}

func sameStars(got, want []*MinedStar) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d stars, reference has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Star.Head != w.Star.Head || !slices.Equal(g.Star.Leaves, w.Star.Leaves) || !slices.Equal(g.Hosts, w.Hosts) {
			return fmt.Errorf("star %d: got %s hosts %v, reference %s hosts %v",
				i, g.Star.Key(), g.Hosts, w.Star.Key(), w.Hosts)
		}
	}
	return nil
}

// TestStarMinerCapped pins the MaxSpiders report: whenever the cap cut
// the catalog (the uncapped reference is longer), Capped is set, and
// whenever Capped is clear the catalog is the complete one. Caps sweep
// every value from 1 to one past the full catalog, so they land inside
// level 1, on level boundaries and past the end; a reused StarMiner must
// clear the flag for an uncapped run.
func TestStarMinerCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	var sm StarMiner
	for gi := 0; gi < 6; gi++ {
		g := repeatedLabelGraph(30+rng.Intn(30), 2+rng.Intn(3), 1+rng.Intn(3), rng)
		for _, maxLeaves := range []int{0, 1, 3} {
			full := referenceStars(g, 2, maxLeaves, 0)
			capHit, complete := 0, 0
			for maxSpiders := 0; maxSpiders <= len(full)+1; maxSpiders++ {
				got, err := sm.Mine(context.Background(), g, Options{MinSupport: 2, MaxLeaves: maxLeaves, MaxSpiders: maxSpiders, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				cut := len(got) < len(full)
				if cut && !sm.Capped() {
					t.Fatalf("graph %d MaxLeaves %d MaxSpiders %d: %d of %d stars mined, Capped false", gi, maxLeaves, maxSpiders, len(got), len(full))
				}
				if !sm.Capped() {
					if err := sameStars(got, full); err != nil {
						t.Fatalf("graph %d MaxLeaves %d MaxSpiders %d: Capped false on an incomplete catalog: %v", gi, maxLeaves, maxSpiders, err)
					}
					complete++
				} else {
					capHit++
				}
			}
			if capHit == 0 || complete == 0 {
				t.Fatalf("graph %d MaxLeaves %d: cap hit %d times, complete %d times; the sweep must see both", gi, maxLeaves, capHit, complete)
			}
		}
		// A level-1-only catalog exactly at the cap is complete.
		l1 := referenceStars(g, 2, 1, 0)
		if _, err := sm.Mine(context.Background(), g, Options{MinSupport: 2, MaxLeaves: 1, MaxSpiders: len(l1)}); err != nil {
			t.Fatal(err)
		}
		if sm.Capped() {
			t.Fatalf("graph %d: level-1 catalog of exactly MaxSpiders=%d stars reported capped", gi, len(l1))
		}
	}
}
