package sharing

import (
	"bytes"
	"crypto/sha256"
	"math/big"
	"testing"

	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/workload"
)

func parallelFixture(t *testing.T, r ring.Ring, nodes int, seedNum int64, secret string) (*polyenc.Tree, drbg.Seed) {
	t.Helper()
	doc := workload.RandomTree(workload.TreeConfig{Nodes: nodes, MaxFanout: 4, Vocab: 9, Seed: seedNum})
	m, err := mapping.New(r.MaxTag(), []byte(secret))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		t.Fatal(err)
	}
	return enc, drbg.Seed(sha256.Sum256([]byte(secret)))
}

// TestSplitParallelismDeterminism is the tentpole property test: Split
// with Parallelism 1, 2 and 8 must produce byte-identical trees for
// random documents, on the packed F_p path and the generic IntQuotient
// path, and all must match the sequential big.Int-boundary reference.
func TestSplitParallelismDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		ring ring.Ring
	}{
		{"Fp257", ring.MustFp(257)},
		{"Fp1009", ring.MustFp(1009)},
		{"Z", ring.MustIntQuotient(1, 0, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, nodes := range []int{1, 17, 230} {
				enc, seed := parallelFixture(t, tc.ring, nodes, int64(nodes)*3+1, "par-det")
				ref, err := SplitSequential(enc, seed)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				for _, par := range []int{1, 2, 8} {
					tree, err := SplitWithOpts(enc, seed, SplitOpts{Parallelism: par})
					if err != nil {
						t.Fatalf("nodes=%d par=%d: %v", nodes, par, err)
					}
					got, err := tree.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s nodes=%d: Parallelism=%d tree differs from sequential reference", tc.name, nodes, par)
					}
				}
			}
		})
	}
}

// TestSplitPackedMatchesBigIntReference pins the packed F_p split — bulk
// pad sampling, word subtraction, lazy Poly — to an oracle that shares
// none of it: SplitSequential on a SetFast(false) ring encodes through
// big.Int arithmetic and draws every pad coefficient with field.Rand, one
// small read at a time. A node keystream is the same bytes however it is
// read, so both must serialize byte for byte alike.
func TestSplitPackedMatchesBigIntReference(t *testing.T) {
	for _, p := range []uint64{257, 1009} {
		fp := ring.MustFp(p)
		enc, seed := parallelFixture(t, fp, 120, 5, "packed-vs-big")
		tree, err := SplitWithOpts(enc, seed, SplitOpts{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		got, err := tree.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}

		slow := ring.MustFp(p)
		slow.SetFast(false)
		slowEnc, _ := parallelFixture(t, slow, 120, 5, "packed-vs-big")
		ref, err := SplitSequential(slowEnc, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("F_%d: packed Split differs from the big.Int SplitSequential oracle", p)
		}
	}
}

// TestSplitPackedOnlyEncodePipeline drives the exact Outsource fast path
// (PackedOnly encode → packed parallel split) and checks the result
// against the default pipeline and against reconstruction.
func TestSplitPackedOnlyEncodePipeline(t *testing.T) {
	fp := ring.MustFp(257)
	doc := workload.RandomTree(workload.TreeConfig{Nodes: 90, MaxFanout: 4, Vocab: 9, Seed: 11})
	seed := drbg.Seed(sha256.Sum256([]byte("packed-only")))

	m1, err := mapping.New(fp.MaxTag(), []byte("packed-only"))
	if err != nil {
		t.Fatal(err)
	}
	encPacked, err := polyenc.EncodeWithOpts(fp, doc, m1, polyenc.Opts{PackedOnly: true, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := SplitWithOpts(encPacked, seed, SplitOpts{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}

	m2, err := mapping.New(fp.MaxTag(), []byte("packed-only"))
	if err != nil {
		t.Fatal(err)
	}
	encRef, err := polyenc.Encode(fp, doc, m2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SplitSequential(encRef, seed)
	if err != nil {
		t.Fatal(err)
	}
	fastBytes, err := fast.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	refBytes, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fastBytes, refBytes) {
		t.Fatal("PackedOnly pipeline tree differs from reference pipeline")
	}

	// Client + server must still reconstruct the reference encoding.
	back, err := ReconstructFromSeed(fp, seed, fast)
	if err != nil {
		t.Fatal(err)
	}
	encRef.Walk(func(key drbg.NodeKey, n *polyenc.Node) bool {
		bn, err := back.Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		if !fp.Equal(bn.Poly, n.Poly) {
			t.Fatalf("node %s: reconstruction mismatch", key)
		}
		return true
	})
}

// TestSeedClientPadCounters: the pad LRU must tally hits and misses into
// the wired counter set.
func TestSeedClientPadCounters(t *testing.T) {
	fp := ring.MustFp(257)
	seed := drbg.Seed(sha256.Sum256([]byte("counters")))
	c := NewSeedClient(fp, seed)
	key := drbg.NodeKey{0, 1}
	if _, err := c.Share(key); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EvalShare(key, big.NewInt(2)); err != nil {
		t.Fatal(err)
	}
	s := c.Counters().Snapshot()
	if s.PadCacheMiss != 1 {
		t.Errorf("PadCacheMiss = %d, want 1 (one regeneration)", s.PadCacheMiss)
	}
	if s.PadCacheHits != 1 {
		t.Errorf("PadCacheHits = %d, want 1 (second touch cached)", s.PadCacheHits)
	}
	// A rewired counter set receives subsequent tallies.
	ext := c.Counters()
	c.SetCounters(nil) // ignored
	if c.Counters() != ext {
		t.Fatal("SetCounters(nil) replaced the counter set")
	}
}

// TestSplitSequentialHandlesPackedOnlyTrees is the regression anchor for
// the PackedOnly hazard: the big.Int split paths must materialize the
// encoded polynomial from the packed mirror instead of silently
// subtracting pads from zero.
func TestSplitSequentialHandlesPackedOnlyTrees(t *testing.T) {
	fp := ring.MustFp(257)
	doc := workload.RandomTree(workload.TreeConfig{Nodes: 70, MaxFanout: 4, Vocab: 8, Seed: 21})
	seed := drbg.Seed(sha256.Sum256([]byte("packed-only-seq")))
	m, err := mapping.New(fp.MaxTag(), []byte("packed-only-seq"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := polyenc.EncodeWithOpts(fp, doc, m, polyenc.Opts{PackedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	seqTree, err := SplitSequential(enc, seed)
	if err != nil {
		t.Fatal(err)
	}
	fastTree, err := Split(enc, seed)
	if err != nil {
		t.Fatal(err)
	}
	seqBytes, err := seqTree.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fastBytes, err := fastTree.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqBytes, fastBytes) {
		t.Fatal("SplitSequential on a PackedOnly tree differs from Split")
	}
}
