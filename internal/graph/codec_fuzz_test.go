package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// FuzzDecodeBinary fuzzes the SPG1 graph decoder, the format the durable
// store keeps uploaded hosts in. Decoding must never panic, and any input
// it accepts must re-encode to a fixed point: the re-encoding decodes to
// the same graph and encodes to the same bytes again (overlong varints
// may make the first re-encoding differ from the input). Seeds are real
// encodings: the empty graph, a path, a cycle, negative labels, and
// random graphs across the delta encoding's row and column cases.
func FuzzDecodeBinary(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	seeds := []*Graph{
		new(Graph),
		buildPath(0),
		buildPath(1, 2, 3, 4),
		buildCycle(6, 5),
		FromEdges([]Label{-3, 0, 1 << 20}, []Edge{{0, 2}, {1, 2}}),
		randomGraph(rng, 12, 30),
		randomGraph(rng, 70, 200),
	}
	for _, g := range seeds {
		f.Add(g.AppendBinary(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeBinary(data)
		if err != nil {
			if !errors.Is(err, ErrBadCodec) {
				t.Fatalf("decode error %v does not wrap ErrBadCodec", err)
			}
			return
		}
		enc := g.AppendBinary(nil)
		g2, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("re-encoding of an accepted input does not decode: %v", err)
		}
		sameGraph(t, g2, g)
		if enc2 := g2.AppendBinary(nil); !bytes.Equal(enc2, enc) {
			t.Fatalf("re-encoding is not a fixed point:\n%x\n%x", enc, enc2)
		}
	})
}

// TestDecodeBinaryRejectsImplausibleDimensions: a header whose vertex or
// edge count the remaining bytes cannot hold is rejected before the
// decoder allocates for it.
func TestDecodeBinaryRejectsImplausibleDimensions(t *testing.T) {
	header := func(n, m uint64, tail ...byte) []byte {
		b := append([]byte("SPG1"), binary.AppendUvarint(nil, n)...)
		return append(binary.AppendUvarint(b, m), tail...)
	}
	cases := map[string][]byte{
		"huge n":                 header(1<<31, 0),
		"huge m":                 header(2, 1<<31, 2, 4),
		"n past the input":       header(3, 0, 2, 4),
		"edges past the input":   header(2, 2, 2, 4, 0, 1),
		"dimensions past 2^31":   header(1<<40, 1<<40),
		"labels but no edge row": header(2, 1, 2, 4),
	}
	for name, data := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeBinary(data)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadCodec) {
			t.Errorf("%s: want ErrBadCodec, got %v", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoder allocated %d bytes before rejecting", name, grew)
		}
	}
}
