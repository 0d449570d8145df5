package poly

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// wordCases covers the shapes AppendWords must encode exactly like the
// big.Int marshaller: empty, all zeros, trailing zeros, every magnitude
// width from 1 to 8 bytes and 2^64−1.
func wordCases() [][]uint64 {
	cases := [][]uint64{
		nil,
		{},
		{0},
		{0, 0, 0},
		{5, 0, 0},
		{0, 7},
		{0, 0, 9, 0},
		{math.MaxUint64},
		{1, math.MaxUint64, 0, 1 << 63},
	}
	for width := 1; width <= 8; width++ {
		lo := uint64(1) << (8 * (width - 1)) // smallest width-byte value
		hi := lo<<8 - 1                      // largest (wraps to 2^64−1 at 8)
		cases = append(cases, []uint64{lo, hi, lo + 1})
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		c := make([]uint64, rng.Intn(300))
		for j := range c {
			switch rng.Intn(4) {
			case 0:
				c[j] = 0
			case 1:
				c[j] = uint64(rng.Intn(257))
			default:
				c[j] = rng.Uint64() >> uint(rng.Intn(64))
			}
		}
		cases = append(cases, c)
	}
	return cases
}

// TestAppendWordsMatchesMarshal pins the word encoder byte for byte to
// NewUint64(c).MarshalBinary(), its size function to the encoding, and
// DecodeWords to the trimmed input.
func TestAppendWordsMatchesMarshal(t *testing.T) {
	for _, c := range wordCases() {
		want, err := NewUint64(c).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got := AppendWords(nil, c)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendWords(%v) = %x, MarshalBinary %x", c, got, want)
		}
		if n := WordsBinarySize(c); n != len(want) {
			t.Fatalf("WordsBinarySize(%v) = %d, encoding is %d bytes", c, n, len(want))
		}
		prefix := []byte{0xAA, 0xBB}
		if got := AppendWords(prefix, c); !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], want) {
			t.Fatalf("AppendWords did not append after a prefix: %x", got)
		}
		dec, rest, ok, err := DecodeWords(append(want, 0xCC))
		if err != nil || !ok {
			t.Fatalf("DecodeWords(%x): ok=%v err=%v", want, ok, err)
		}
		if !bytes.Equal(rest, []byte{0xCC}) {
			t.Fatalf("DecodeWords rest = %x, want cc", rest)
		}
		if trimmed := TrimWords(c); len(dec) != len(trimmed) || !NewUint64(dec).Equal(NewUint64(c)) {
			t.Fatalf("DecodeWords(%x) = %v, want %v", want, dec, trimmed)
		}
	}
}

// TestDecodeWordsFallback: negative and wider-than-word coefficients are
// not errors but ok=false; non-canonical magnitudes that still fit a word
// (leading zero bytes, a zero with a length, minus zero) decode.
func TestDecodeWordsFallback(t *testing.T) {
	for name, p := range map[string]Poly{
		"negative": FromInt64(3, -1, 4),
		"9-byte":   New(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 64)),
		"huge":     New(new(big.Int).Lsh(big.NewInt(1), 500)),
	} {
		enc, _ := p.MarshalBinary()
		c, rest, ok, err := DecodeWords(append(enc, 0x01))
		if err != nil || ok || c != nil {
			t.Errorf("%s: DecodeWords = %v ok=%v err=%v, want a silent fallback", name, c, ok, err)
		}
		if !bytes.Equal(rest, []byte{0x01}) {
			t.Errorf("%s: rest = %x", name, rest)
		}
	}
	for name, enc := range map[string][]byte{
		"leading zero bytes": {2, 1, 9, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0},
		"zero with length":   {1, 1, 0},
		"minus zero":         {1, 2, 2, 0, 0},
	} {
		want, _, err := DecodePoly(enc)
		if err != nil {
			t.Fatalf("%s: DecodePoly: %v", name, err)
		}
		c, _, ok, err := DecodeWords(enc)
		if err != nil || !ok || !NewUint64(c).Equal(want) {
			t.Errorf("%s: DecodeWords = %v ok=%v err=%v, want %v", name, c, ok, err, want)
		}
	}
}

// FuzzDecodeWords checks the word decoder against the big.Int reference
// on arbitrary bytes: same acceptance and errors, same value and rest
// when it decodes, and a fallback only for coefficients that are
// negative or wider than a word. Seeds live in testdata/fuzz.
func FuzzDecodeWords(f *testing.F) {
	for _, c := range wordCases()[:17] {
		f.Add(AppendWords(nil, c))
	}
	for _, p := range []Poly{FromInt64(-2, 3), New(new(big.Int).Lsh(big.NewInt(3), 70))} {
		enc, _ := p.MarshalBinary()
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantRest, wantErr := DecodePoly(data)
		c, rest, ok, err := DecodeWords(data)
		if wantErr != nil {
			if err == nil {
				t.Fatalf("DecodePoly failed (%v) but DecodeWords accepted %x", wantErr, data)
			}
			if err.Error() != wantErr.Error() {
				t.Fatalf("errors differ: %v vs %v", err, wantErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("DecodeWords failed (%v) where DecodePoly accepted %x", err, data)
		}
		if !bytes.Equal(rest, wantRest) {
			t.Fatalf("rest %x, want %x", rest, wantRest)
		}
		if !ok {
			if _, fits := want.Uint64Coeffs(nil); fits {
				t.Fatalf("fallback on %v, whose coefficients all fit a word", want)
			}
			return
		}
		if !NewUint64(c).Equal(want) || len(c) != want.Len() {
			t.Fatalf("DecodeWords = %v, DecodePoly = %v", c, want)
		}
		if enc, _ := want.MarshalBinary(); !bytes.Equal(AppendWords(nil, c), enc) {
			t.Fatalf("re-encoding differs: %x vs %x", AppendWords(nil, c), enc)
		}
	})
}
