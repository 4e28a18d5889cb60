package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"repro/internal/canon"
	"repro/internal/graph"
	"repro/mine"
)

// fingerprint hashes a result's patterns in report order — pattern
// graphs, embedding lists (so embedding counts), IDs and origins — as
// their JSON form, the serialization TestParallelEqualsSequential
// compares. Two results are the same exactly when the hashes match.
func fingerprint(ps []*mine.Pattern) (string, error) {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(ps); err != nil {
		return "", fmt.Errorf("fingerprint: %w", err)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// topkEdges is Σ|E| over the returned patterns.
func topkEdges(ps []*mine.Pattern) int {
	t := 0
	for _, p := range ps {
		t += p.G.M()
	}
	return t
}

// recall is the share of truth patterns covered by the result: a truth
// pattern is covered when some returned pattern has its vertex count and
// embeds in it (so the returned pattern spans it).
func recall(ps []*mine.Pattern, truth []*graph.Graph) float64 {
	if len(truth) == 0 {
		return 0
	}
	covered := 0
	for _, t := range truth {
		for _, p := range ps {
			if p.G.N() == t.N() && canon.HasEmbedding(p.G, t) {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(truth))
}
