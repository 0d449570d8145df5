package sharing

import (
	"bytes"
	"math/big"
	"testing"

	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/poly"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/workload"
)

// packedFixture splits a 40-node random document over F_257 on the packed
// path, so every node carries Node.Packed.
func packedFixture(t *testing.T) (*ring.FpCyclotomic, *Tree) {
	t.Helper()
	fp := ring.MustFp(257)
	doc := workload.RandomTree(workload.TreeConfig{Nodes: 40, MaxFanout: 3, Vocab: 6, Seed: 13})
	m, err := mapping.New(fp.MaxTag(), []byte("marshal-words"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := polyenc.Encode(fp, doc, m)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Split(enc, testSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	return fp, tree
}

// boxedCopy returns the tree with every node in the big.Int form.
func boxedCopy(n *Node) *Node {
	out := &Node{Poly: n.Polynomial()}
	for _, c := range n.Children {
		out.Children = append(out.Children, boxedCopy(c))
	}
	return out
}

func mustMarshal(t *testing.T, tree *Tree) []byte {
	t.Helper()
	b, err := tree.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMarshalPackedMatchesBigInt: a packed tree encodes to exactly the
// bytes of its big.Int copy, so the store format needs no new magic.
func TestMarshalPackedMatchesBigInt(t *testing.T) {
	_, tree := packedFixture(t)
	packed := 0
	tree.Walk(func(_ drbg.NodeKey, n *Node) bool {
		if n.Packed != nil {
			packed++
		}
		return true
	})
	if packed != tree.Count() {
		t.Fatalf("%d of %d nodes packed — fixture did not take the packed path", packed, tree.Count())
	}
	if got, want := mustMarshal(t, tree), mustMarshal(t, &Tree{Root: boxedCopy(tree.Root)}); !bytes.Equal(got, want) {
		t.Fatal("packed tree encoding differs from its big.Int copy")
	}
}

// TestDecodeTreeForPacks: on a fast-path F_p ring a loaded tree holds
// DegreeBound-length packed vectors and no big.Int polynomials, equals
// the reference decode node by node, and re-encodes to the same bytes.
// Without the fast path it decodes like DecodeTree.
func TestDecodeTreeForPacks(t *testing.T) {
	fp, tree := packedFixture(t)
	data := mustMarshal(t, tree)
	ref, rest, err := DecodeTree(data)
	if err != nil || len(rest) != 0 {
		t.Fatalf("DecodeTree: %v, %d trailing", err, len(rest))
	}
	loaded, rest, err := DecodeTreeFor(fp, data)
	if err != nil || len(rest) != 0 {
		t.Fatalf("DecodeTreeFor: %v, %d trailing", err, len(rest))
	}
	refNodes := nodesOf(ref)
	for i, n := range nodesOf(loaded) {
		if len(n.Packed) != fp.DegreeBound() || !n.Poly.IsZero() {
			t.Fatalf("node %d: packed length %d, Poly %v", i, len(n.Packed), n.Poly)
		}
		if !n.Polynomial().Equal(refNodes[i].Poly) {
			t.Fatalf("node %d differs from the reference decode", i)
		}
	}
	if !bytes.Equal(mustMarshal(t, loaded), data) {
		t.Fatal("loaded tree re-encodes differently")
	}

	slow := ring.MustFp(257)
	slow.SetFast(false)
	for _, r := range []ring.Ring{slow, ring.MustIntQuotient(1, 0, 1)} {
		plain, _, err := DecodeTreeFor(r, data)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodesOf(plain) {
			if n.Packed != nil {
				t.Fatalf("%s: node decoded packed without a fast path", r.Name())
			}
		}
	}
}

// TestDecodeTreeForHostileNodes: nodes that are not canonical in the
// ring — negative, 9-byte, ≥ p, longer than the ring — and zero nodes
// stay in the big.Int form, exactly as the reference decoder gives them,
// and the tree re-encodes to the same bytes.
func TestDecodeTreeForHostileNodes(t *testing.T) {
	fp := ring.MustFp(257)
	long := make([]int64, fp.DegreeBound()+3)
	for i := range long {
		long[i] = int64(i % 200)
	}
	hostile := []poly.Poly{
		poly.FromInt64(4, -9, 1),
		poly.New(big.NewInt(3), new(big.Int).Lsh(big.NewInt(5), 64)),
		poly.FromInt64(257, 3),
		poly.FromInt64(long...),
		poly.Zero(),
	}
	root := &Node{Poly: poly.FromInt64(1, 2, 3)}
	for _, p := range hostile {
		root.Children = append(root.Children, &Node{Poly: p})
	}
	data := mustMarshal(t, &Tree{Root: root})
	loaded, _, err := DecodeTreeFor(fp, data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Root.Packed == nil {
		t.Fatal("canonical root was not packed")
	}
	for i, c := range loaded.Root.Children {
		if c.Packed != nil || !c.Poly.Equal(hostile[i]) {
			t.Fatalf("hostile node %d: packed=%v poly %v, want big.Int %v", i, c.Packed != nil, c.Poly, hostile[i])
		}
	}
	if !bytes.Equal(mustMarshal(t, loaded), data) {
		t.Fatal("re-encoding differs")
	}
	// Corrupt inputs fail exactly as in the reference decoder.
	for _, bad := range [][]byte{nil, {0x00}, {0x01, 0x05, 0x00}, data[:len(data)-1], {0x01, 0x00, 0x01, 0x07}} {
		_, _, want := DecodeTree(bad)
		_, _, got := DecodeTreeFor(fp, bad)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Fatalf("corrupt %x: DecodeTreeFor error %v, DecodeTree %v", bad, got, want)
		}
	}
}

// TestByteSizeMatchesMarshal: ByteSize sums node sizes without encoding,
// and must equal the encoding's length for split, loaded and big.Int
// trees.
func TestByteSizeMatchesMarshal(t *testing.T) {
	fp, split := packedFixture(t)
	data := mustMarshal(t, split)
	loaded, _, err := DecodeTreeFor(fp, data)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := DecodeTree(data)
	if err != nil {
		t.Fatal(err)
	}
	zSplit, err := Split(encodePaperZ(t), testSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	for name, tree := range map[string]*Tree{"split": split, "loaded": loaded, "big.Int": ref, "Z ring": zSplit} {
		if got, want := tree.ByteSize(), len(mustMarshal(t, tree)); got != want {
			t.Errorf("%s: ByteSize %d, encoding %d bytes", name, got, want)
		}
	}
	if (&Tree{}).ByteSize() != 0 {
		t.Error("empty tree has a size")
	}
}

func nodesOf(tree *Tree) []*Node {
	var out []*Node
	tree.Walk(func(_ drbg.NodeKey, n *Node) bool {
		out = append(out, n)
		return true
	})
	return out
}
