package mine

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeResult fuzzes the SPR1 result decoder, the format the serving
// layer's durable result cache keeps mined results in. Decoding must
// never panic, and any input it accepts must re-encode to a fixed point:
// the re-encoding decodes and encodes to the same bytes again (overlong
// varints and non-canonical stats JSON may make the first re-encoding
// differ from the input). Seeds are real encodings: a mined result, the
// same result truncated, and an empty one.
func FuzzDecodeResult(f *testing.F) {
	res := mustMine(f)
	for _, r := range []*Result{
		res,
		{Miner: res.Miner, Truncated: TruncatedBudget, Stats: res.Stats, Patterns: res.Patterns[:1]},
		{Miner: "testminer"},
	} {
		enc, err := EncodeResult(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeResult(data)
		if err != nil {
			if !errors.Is(err, ErrBadResultCodec) {
				t.Fatalf("decode error %v does not wrap ErrBadResultCodec", err)
			}
			return
		}
		enc, err := EncodeResult(dec)
		if err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		dec2, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("re-encoding of an accepted input does not decode: %v", err)
		}
		enc2, err := EncodeResult(dec2)
		if err != nil {
			t.Fatalf("second re-encoding fails: %v", err)
		}
		if !bytes.Equal(enc2, enc) {
			t.Fatalf("re-encoding is not a fixed point:\n%x\n%x", enc, enc2)
		}
	})
}
