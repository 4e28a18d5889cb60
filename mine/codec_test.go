package mine

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// codecHost is a small two-community host with repeated structure, so a
// real mining run yields patterns with embeddings to round-trip.
func codecHost() *Graph {
	b := NewGraphBuilder(24, 40)
	for c := 0; c < 4; c++ {
		base := b.AddVertex(1)
		l1 := b.AddVertex(2)
		l2 := b.AddVertex(2)
		l3 := b.AddVertex(3)
		b.AddEdge(base, l1)
		b.AddEdge(base, l2)
		b.AddEdge(base, l3)
		b.AddEdge(l1, l3)
	}
	return b.Build()
}

func mustMine(t testing.TB) *Result {
	t.Helper()
	m, err := Get("spidermine")
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Mine(context.Background(), SingleGraph(codecHost()), Options{
		MinSupport: 2, K: 4, Dmax: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("mining produced no patterns; the round-trip test needs some")
	}
	return res
}

// patternsJSON renders patterns through their canonical JSON wire form —
// graph, embeddings, identity fields — the equality basis for the
// round-trip assertion.
func patternsJSON(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestResultCodecRoundTrip(t *testing.T) {
	res := mustMine(t)
	res.Stats.Elapsed = 123 * time.Millisecond // fixed for byte comparison

	enc, err := EncodeResult(res)
	if err != nil {
		t.Fatalf("EncodeResult: %v", err)
	}
	dec, err := DecodeResult(enc)
	if err != nil {
		t.Fatalf("DecodeResult: %v", err)
	}
	if dec.Miner != res.Miner || dec.Truncated != res.Truncated {
		t.Fatalf("identity fields: got (%q, %q), want (%q, %q)", dec.Miner, dec.Truncated, res.Miner, res.Truncated)
	}
	wantStats, _ := json.Marshal(res.Stats)
	gotStats, _ := json.Marshal(dec.Stats)
	if string(gotStats) != string(wantStats) {
		t.Fatalf("stats round-trip:\n got %s\nwant %s", gotStats, wantStats)
	}
	if got, want := patternsJSON(t, dec), patternsJSON(t, res); got != want {
		t.Fatalf("patterns round-trip differs:\n got %s\nwant %s", got, want)
	}
	// Derived caches recompute identically on the decoded copy.
	for i := range res.Patterns {
		if dec.Patterns[i].Invariant() != res.Patterns[i].Invariant() {
			t.Fatalf("pattern %d invariant differs after round-trip", i)
		}
	}
	// A second encode of the decoded result is byte-identical.
	re, err := EncodeResult(dec)
	if err != nil {
		t.Fatal(err)
	}
	if string(re) != string(enc) {
		t.Fatalf("re-encode differs (%d vs %d bytes)", len(re), len(enc))
	}
}

func TestResultCodecEmptyResult(t *testing.T) {
	res := &Result{Miner: "testminer", Truncated: TruncatedMaxPatterns}
	enc, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Miner != "testminer" || dec.Truncated != TruncatedMaxPatterns || len(dec.Patterns) != 0 {
		t.Fatalf("decoded %+v", dec)
	}
}

func TestResultCodecRejectsCorruption(t *testing.T) {
	res := mustMine(t)
	enc, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      append([]byte("NOPE"), enc[4:]...),
		"truncated head": enc[:6],
		"truncated tail": enc[:len(enc)-3],
		"trailing bytes": append(append([]byte(nil), enc...), 0xff),
	}
	for name, data := range cases {
		if _, err := DecodeResult(data); !errors.Is(err, ErrBadResultCodec) {
			t.Errorf("%s: want ErrBadResultCodec, got %v", name, err)
		}
	}
	if _, err := EncodeResult(nil); err == nil {
		t.Error("EncodeResult(nil) must fail")
	}
}
