package store_test

import (
	"bytes"
	"math/big"
	"testing"

	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/paperdata"
	"sssearch/internal/poly"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/shard"
	"sssearch/internal/sharing"
	"sssearch/internal/store"
	"sssearch/internal/workload"
)

func splitFixture(t *testing.T, r ring.Ring, nodes int) *sharing.Tree {
	t.Helper()
	doc := workload.RandomTree(workload.TreeConfig{Nodes: nodes, MaxFanout: 3, Vocab: 6, Seed: 21})
	m, err := mapping.New(r.MaxTag(), []byte("store-words"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		t.Fatal(err)
	}
	var seed drbg.Seed
	seed[3] = 0x5a
	tree, err := sharing.Split(enc, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func countPacked(tree *sharing.Tree) (packed, total int) {
	tree.Walk(func(_ drbg.NodeKey, n *sharing.Node) bool {
		total++
		if n.Packed != nil {
			packed++
		}
		return true
	})
	return packed, total
}

// TestServerStoreResaveByteIdentical: saving, loading (now into packed
// vectors on F_p) and saving again gives the same file, byte for byte,
// on both ring kinds — the SSSTORE3 format is unchanged.
func TestServerStoreResaveByteIdentical(t *testing.T) {
	for _, r := range []ring.Ring{ring.MustFp(257), paperdata.ZRing()} {
		tree := splitFixture(t, r, 50)
		var first bytes.Buffer
		if err := store.WriteServer(&first, r, tree); err != nil {
			t.Fatal(err)
		}
		r2, loaded, err := store.ReadServer(first.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		packed, total := countPacked(loaded)
		if _, fast := r.(*ring.FpCyclotomic); fast && packed != total {
			t.Fatalf("%s: %d of %d loaded nodes packed", r.Name(), packed, total)
		}
		var second bytes.Buffer
		if err := store.WriteServer(&second, r2, loaded); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%s: re-saved store differs", r.Name())
		}
	}
}

// TestShardStoreResaveByteIdentical is the same round trip for every
// shard of a partitioned tree (whose non-owned nodes are zero).
func TestShardStoreResaveByteIdentical(t *testing.T) {
	r := ring.MustFp(257)
	trees, man, err := shard.Partition(splitFixture(t, r, 60), 3)
	if err != nil {
		t.Fatal(err)
	}
	for id, tree := range trees {
		var first bytes.Buffer
		if err := store.WriteShard(&first, r, tree, man, id); err != nil {
			t.Fatal(err)
		}
		r2, loaded, man2, id2, err := store.ReadShard(first.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if packed, _ := countPacked(loaded); packed == 0 {
			t.Fatalf("shard %d: no loaded node packed", id)
		}
		var second bytes.Buffer
		if err := store.WriteShard(&second, r2, loaded, man2, id2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("shard %d: re-saved store differs", id)
		}
	}
}

// TestHostileStoreServesLikeReferenceDecode: a store file whose share
// polynomials are not canonical in the ring (negative, 9-byte, ≥ p,
// longer than the ring) loads into a server that answers evaluations and
// fetches exactly like one over the reference big.Int decode of the same
// tree.
func TestHostileStoreServesLikeReferenceDecode(t *testing.T) {
	fp := ring.MustFp(257)
	long := make([]int64, fp.DegreeBound()+5)
	for i := range long {
		long[i] = int64(3*i + 1)
	}
	root := &sharing.Node{Poly: poly.FromInt64(7, 1, 2)}
	for _, p := range []poly.Poly{
		poly.FromInt64(5, -3, 8),
		poly.New(big.NewInt(1), new(big.Int).Lsh(big.NewInt(9), 64)),
		poly.FromInt64(300, 256, 1000),
		poly.FromInt64(long...),
	} {
		root.Children = append(root.Children, &sharing.Node{Poly: p})
	}
	var file bytes.Buffer
	if err := store.WriteServer(&file, fp, &sharing.Tree{Root: root}); err != nil {
		t.Fatal(err)
	}
	r2, loaded, err := store.ReadServer(file.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := (&sharing.Tree{Root: root}).MarshalBinary()
	refTree, _, err := sharing.DecodeTree(tb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := server.NewLocal(r2, loaded)
	if err != nil {
		t.Fatal(err)
	}
	want, err := server.NewLocal(fp, refTree)
	if err != nil {
		t.Fatal(err)
	}
	keys := []drbg.NodeKey{{}, {0}, {1}, {2}, {3}}
	points := []*big.Int{big.NewInt(2), big.NewInt(200)}
	ge, err := got.EvalNodes(keys, points)
	if err != nil {
		t.Fatal(err)
	}
	we, err := want.EvalNodes(keys, points)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := got.FetchPolys(keys)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := want.FetchPolys(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		for j := range points {
			if ge[i].Values[j].Cmp(we[i].Values[j]) != 0 {
				t.Fatalf("%s at %s: %v, reference %v", k, points[j], ge[i].Values[j], we[i].Values[j])
			}
		}
		if !gp[i].Polynomial().Equal(wp[i].Polynomial()) || gp[i].BinarySize() != wp[i].BinarySize() {
			t.Fatalf("%s: fetched %v, reference %v", k, gp[i].Polynomial(), wp[i].Polynomial())
		}
	}
}
