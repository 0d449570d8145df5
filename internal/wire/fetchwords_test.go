package wire

import (
	"bytes"
	"math/big"
	"testing"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/poly"
)

// TestFetchRespWordsFormatIdentity: a FetchResp encoded from word answers
// (as a fast-path server holds them: full length, trailing zeros) is byte
// for byte the encoding of the equivalent big.Int answers, so the wire
// format needs no new version; decoding yields words that re-encode to
// the same bytes.
func TestFetchRespWordsFormatIdentity(t *testing.T) {
	words := [][]uint64{
		{45, 265},
		{0, 0, 0},
		{},
		{256, 0, 1, 255, 0, 0},
		{1<<64 - 1, 1 << 56, 7},
	}
	wordResp := FetchResp{ID: 77}
	polyResp := FetchResp{ID: 77}
	for i, w := range words {
		key := drbg.NodeKey{uint32(i)}
		wordResp.Answers = append(wordResp.Answers, core.NodePoly{Key: key, NumChildren: i, Words: w})
		polyResp.Answers = append(polyResp.Answers, core.NodePoly{Key: key, NumChildren: i, Poly: poly.NewUint64(w)})
	}
	fromWords, err := EncodeFetchResp(wordResp)
	if err != nil {
		t.Fatal(err)
	}
	fromPoly, err := EncodeFetchResp(polyResp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromWords, fromPoly) {
		t.Fatalf("word encoding %x differs from big.Int encoding %x", fromWords, fromPoly)
	}
	dec, err := DecodeFetchResp(fromPoly)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range dec.Answers {
		if a.Words == nil {
			t.Fatalf("answer %d decoded into the big.Int form", i)
		}
		if !a.Polynomial().Equal(poly.NewUint64(words[i])) || a.BinarySize() != polyResp.Answers[i].BinarySize() {
			t.Fatalf("answer %d = %v (%d B), want %v (%d B)", i, a.Words, a.BinarySize(),
				words[i], polyResp.Answers[i].BinarySize())
		}
	}
	again, err := EncodeFetchResp(dec)
	if err != nil || !bytes.Equal(again, fromPoly) {
		t.Fatalf("re-encoding differs (%v)", err)
	}
}

// TestFetchRespHostileCoefficients: answers the word codec cannot hold
// (negative, 9-byte) come back in the big.Int form, value-exact; values
// that fit a word but are not reduced, or polynomials longer than any
// ring, stay words with their raw values — reduction is the client's job,
// exactly as for the big.Int form.
func TestFetchRespHostileCoefficients(t *testing.T) {
	nine := new(big.Int).Lsh(big.NewInt(1), 64)
	long := make([]int64, 600)
	for i := range long {
		long[i] = int64(i%256 + 1)
	}
	cases := []struct {
		name  string
		p     poly.Poly
		words bool
	}{
		{"negative", poly.FromInt64(3, -1, 4), false},
		{"9-byte", poly.New(big.NewInt(1), nine), false},
		{"unreduced", poly.FromInt64(257, 1000, 1<<40), true},
		{"longer than the ring", poly.FromInt64(long...), true},
	}
	for _, c := range cases {
		resp := FetchResp{ID: 1, Answers: []core.NodePoly{{Key: drbg.NodeKey{0}, NumChildren: 1, Poly: c.p}}}
		payload, err := EncodeFetchResp(resp)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeFetchResp(payload)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		a := dec.Answers[0]
		if (a.Words != nil) != c.words {
			t.Errorf("%s: decoded into words = %v, want %v", c.name, a.Words != nil, c.words)
		}
		if !a.Polynomial().Equal(c.p) {
			t.Errorf("%s: decoded %v, want %v", c.name, a.Polynomial(), c.p)
		}
		if again, _ := EncodeFetchResp(dec); !bytes.Equal(again, payload) {
			t.Errorf("%s: re-encoding differs", c.name)
		}
	}
}
