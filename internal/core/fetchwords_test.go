package core_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/poly"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/sharing"
	"sssearch/internal/wire"
	"sssearch/internal/xpath"
)

// polyRewriter answers FetchPolys with every polynomial rewritten by fn
// and handed over in the big.Int form — the form every fetch took before
// word answers existed. With overWire set, the answers then make a round
// trip through the FetchResp codec, which decodes into words whenever
// they fit.
type polyRewriter struct {
	core.ServerAPI
	fn       func(poly.Poly) poly.Poly
	overWire bool
}

func (p polyRewriter) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	out, err := p.ServerAPI.FetchPolys(keys)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i] = core.NodePoly{Key: out[i].Key, NumChildren: out[i].NumChildren, Poly: p.fn(out[i].Polynomial())}
	}
	if !p.overWire {
		return out, nil
	}
	payload, err := wire.EncodeFetchResp(wire.FetchResp{Answers: out})
	if err != nil {
		return nil, err
	}
	dec, err := wire.DecodeFetchResp(payload)
	return dec.Answers, err
}

// withCoeff returns q with coefficient i replaced by f(old).
func withCoeff(q poly.Poly, i int, f func(*big.Int) *big.Int) poly.Poly {
	c := q.Coeffs()
	for len(c) <= i {
		c = append(c, new(big.Int))
	}
	c[i] = f(c[i])
	return poly.New(c...)
}

// TestFetchHostileCoefficientsMatchBigIntPath crafts fetch answers the
// word path must not take at face value — a negative coefficient, a
// 9-byte one, one ≥ p, a polynomial longer than the ring, plus an outright
// forgery — and checks that answers decoded off the wire (words where
// they fit) give exactly the matches or errors of the same answers held
// as big.Int polynomials. The first four are the honest share in
// disguise (equal in the ring), so they must also give the honest
// answers.
func TestFetchHostileCoefficientsMatchBigIntPath(t *testing.T) {
	fp := ring.MustFp(257)
	P := fp.P()
	n := fp.DegreeBound()
	vocab := []string{"a", "b", "c", "d"}
	doc := randomDoc(rand.New(rand.NewSource(77)), 4, 3, vocab)
	m, _ := mapping.New(fp.MaxTag(), []byte("hostile"))
	_, srv := setup(t, fp, doc, m, 31, false)
	seed := testSeed(31)

	wide := new(big.Int).Lsh(P, 64)
	cases := []struct {
		name   string
		fn     func(poly.Poly) poly.Poly
		honest bool
	}{
		{"negative", func(q poly.Poly) poly.Poly {
			return withCoeff(q, 0, func(v *big.Int) *big.Int { return new(big.Int).Sub(v, P) })
		}, true},
		{"9-byte", func(q poly.Poly) poly.Poly {
			return withCoeff(q, 0, func(v *big.Int) *big.Int { return new(big.Int).Add(v, wide) })
		}, true},
		{"≥ p", func(q poly.Poly) poly.Poly {
			return withCoeff(q, 1, func(v *big.Int) *big.Int { return new(big.Int).Add(v, P) })
		}, true},
		{"longer than the ring", func(q poly.Poly) poly.Poly {
			// + x^n − 1 ≡ 0, with −1 written as p − 1.
			q = withCoeff(q, n, func(v *big.Int) *big.Int { return new(big.Int).Add(v, big.NewInt(1)) })
			return withCoeff(q, 0, func(v *big.Int) *big.Int { return new(big.Int).Add(v, new(big.Int).Sub(P, big.NewInt(1))) })
		}, true},
		{"forged", func(q poly.Poly) poly.Poly { return q.Add(poly.One()) }, false},
	}
	outcome := func(api core.ServerAPI, tag string) string {
		eng := core.NewEngine(fp, seed, m, api, nil)
		res, err := eng.Query(xpath.MustParse("//"+tag), core.Opts{Verify: core.VerifyFull})
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprint(res.Matches, res.Unresolved)
	}
	for _, c := range cases {
		for _, tag := range vocab {
			if _, ok := m.Value(tag); !ok {
				continue
			}
			big := outcome(polyRewriter{ServerAPI: srv, fn: c.fn}, tag)
			words := outcome(polyRewriter{ServerAPI: srv, fn: c.fn, overWire: true}, tag)
			if big != words {
				t.Errorf("%s //%s: over the wire %q, big.Int form %q", c.name, tag, words, big)
			}
			if honest := outcome(srv, tag); c.honest && words != honest {
				t.Errorf("%s //%s: %q, honest server %q", c.name, tag, words, honest)
			}
		}
	}
}

// TestPolyBytesUnchangedByWords: the bytes a query accounts for fetched
// polynomials are the same whether the server answers with words or with
// the equivalent big.Int polynomials.
func TestPolyBytesUnchangedByWords(t *testing.T) {
	fp := ring.MustFp(257)
	vocab := []string{"a", "b", "c"}
	doc := randomDoc(rand.New(rand.NewSource(5)), 4, 3, vocab)
	m, _ := mapping.New(fp.MaxTag(), []byte("bytes"))
	_, srv := setup(t, fp, doc, m, 41, false)
	seed := testSeed(41)
	boxed := polyRewriter{ServerAPI: srv, fn: func(q poly.Poly) poly.Poly { return q }}
	for _, tag := range vocab {
		if _, ok := m.Value(tag); !ok {
			continue
		}
		q := xpath.MustParse("//" + tag)
		a, err := core.NewEngine(fp, seed, m, srv, nil).Query(q, core.Opts{Verify: core.VerifyFull})
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.NewEngine(fp, seed, m, boxed, nil).Query(q, core.Opts{Verify: core.VerifyFull})
		if err != nil {
			t.Fatal(err)
		}
		if a.Stats.PolysFetched == 0 {
			t.Fatalf("//%s fetched no polynomials — test is vacuous", tag)
		}
		if a.Stats.PolyBytesMoved != b.Stats.PolyBytesMoved || !reflect.DeepEqual(a.Matches, b.Matches) {
			t.Fatalf("//%s: words moved %d B (matches %v), big.Int %d B (matches %v)",
				tag, a.Stats.PolyBytesMoved, a.Matches, b.Stats.PolyBytesMoved, b.Matches)
		}
	}
}

// TestMultiServerFetchWordsMatchesBigCombine pins the word combine of
// MultiServer.FetchPolys against the big.Int oracle (BigCombine), with
// members answering in words (aliasing their trees) and in the big.Int
// form, and checks that combining never writes through a member's words.
func TestMultiServerFetchWordsMatchesBigCombine(t *testing.T) {
	s := buildMultiStack(t, 3, 4, 60)
	before := snapshotPacked(t, s.members)
	boxed := make([]core.MultiMember, len(s.members))
	for i, mem := range s.members {
		boxed[i] = core.MultiMember{X: mem.X, API: polyRewriter{ServerAPI: mem.API, fn: func(q poly.Poly) poly.Poly { return q }}}
	}
	var keys []drbg.NodeKey
	s.single.Tree().Walk(func(key drbg.NodeKey, _ *sharing.Node) bool {
		keys = append(keys, key)
		return true
	})
	want, err := s.single.FetchPolys(keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct {
		name    string
		members []core.MultiMember
		big     bool
	}{
		{"words", s.members, false},
		{"big.Int members", boxed, false},
		{"BigCombine", s.members, true},
	} {
		ms, err := core.NewMultiServer(s.ring, 3, v.members)
		if err != nil {
			t.Fatal(err)
		}
		ms.BigCombine = v.big
		got, err := ms.FetchPolys(keys)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		for i := range keys {
			if (got[i].Words != nil) == v.big {
				t.Fatalf("%s: answer form words=%v", v.name, got[i].Words != nil)
			}
			if !got[i].Polynomial().Equal(want[i].Polynomial()) {
				t.Fatalf("%s: %s differs from the single-server share", v.name, keys[i])
			}
		}
	}
	if after := snapshotPacked(t, s.members); !reflect.DeepEqual(before, after) {
		t.Fatal("combining wrote through a member's packed share vectors")
	}
}

// snapshotPacked copies every packed vector of the members' share trees.
func snapshotPacked(t *testing.T, members []core.MultiMember) [][][]uint64 {
	t.Helper()
	out := make([][][]uint64, len(members))
	for i, mem := range members {
		srv, ok := mem.API.(*server.Local)
		if !ok {
			t.Fatalf("member %d is %T, not *server.Local", i, mem.API)
		}
		srv.Tree().Walk(func(_ drbg.NodeKey, n *sharing.Node) bool {
			out[i] = append(out[i], append([]uint64(nil), n.Packed...))
			return true
		})
	}
	return out
}
