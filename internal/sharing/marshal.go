package sharing

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sssearch/internal/drbg"
	"sssearch/internal/poly"
	"sssearch/internal/ring"
)

// Binary layout of a share tree (preorder):
//
//	varint  nNodes
//	repeat nNodes times (preorder):
//	    varint  nChildren
//	    poly    share polynomial (poly wire format)
//
// Preorder with explicit child counts reconstructs the shape uniquely.
// Packed nodes are written from their words (poly.AppendWords), big.Int
// nodes from their Poly; both give the same bytes for the same
// polynomial, so a tree's encoding does not depend on how it was built
// or loaded.

// maxTreeNodes bounds accepted trees (16M nodes).
const maxTreeNodes = 1 << 24

// MarshalBinary implements encoding.BinaryMarshaler.
func (t *Tree) MarshalBinary() ([]byte, error) {
	return t.AppendBinary(make([]byte, 0, t.ByteSize()))
}

// AppendBinary appends the tree's encoding to dst.
func (t *Tree) AppendBinary(dst []byte) ([]byte, error) {
	if t.Root == nil {
		return nil, errors.New("sharing: marshal of empty tree")
	}
	buf := binary.AppendUvarint(dst, uint64(t.Count()))
	var err error
	var rec func(n *Node)
	rec = func(n *Node) {
		if err != nil {
			return
		}
		buf = binary.AppendUvarint(buf, uint64(len(n.Children)))
		if n.Packed != nil {
			buf = poly.AppendWords(buf, n.Packed)
		} else if buf, err = n.Poly.AppendBinary(buf); err != nil {
			return
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(t.Root)
	return buf, err
}

// ByteSize returns the serialized size of the tree in bytes — the storage
// metric of experiment E7 — summed node by node, without encoding.
func (t *Tree) ByteSize() int {
	if t.Root == nil {
		return 0
	}
	size, count := 0, 0
	t.Walk(func(_ drbg.NodeKey, n *Node) bool {
		count++
		size += uvarintLen(uint64(len(n.Children)))
		if n.Packed != nil {
			size += poly.WordsBinarySize(n.Packed)
		} else {
			size += n.Poly.BinarySize()
		}
		return true
	})
	return uvarintLen(uint64(count)) + size
}

// uvarintLen is the encoded length of v as an unsigned LEB128 varint.
func uvarintLen(v uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], v)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (t *Tree) UnmarshalBinary(data []byte) error {
	tree, rest, err := DecodeTree(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errors.New("sharing: trailing bytes after tree")
	}
	*t = *tree
	return nil
}

// DecodeTree decodes one share tree from the front of data into big.Int
// polynomials (Node.Poly): the reference decoder, independent of any
// ring.
func DecodeTree(data []byte) (*Tree, []byte, error) {
	return decodeTree(data, nil)
}

// DecodeTreeFor decodes one share tree from the front of data for ring r.
// On an F_p ring with the word-sized fast path, every node whose
// polynomial is canonical in r — at most DegreeBound coefficients, each
// below p — is decoded straight into a DegreeBound-length Node.Packed
// vector, so a loaded tree holds no big.Int polynomials and re-encodes to
// the same bytes. Zero polynomials and anything else (negative, wide,
// unreduced or over-long coefficients) decode into Node.Poly, as
// DecodeTree does. Errors are those of DecodeTree.
func DecodeTreeFor(r ring.Ring, data []byte) (*Tree, []byte, error) {
	fp, ok := r.(*ring.FpCyclotomic)
	if !ok || fp.Fast() == nil {
		fp = nil
	}
	return decodeTree(data, fp)
}

func decodeTree(data []byte, fp *ring.FpCyclotomic) (*Tree, []byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, nil, errors.New("sharing: bad node count")
	}
	if n == 0 || n > maxTreeNodes {
		return nil, nil, fmt.Errorf("sharing: node count %d out of range", n)
	}
	d := treeDecoder{remaining: n, fp: fp}
	root, data, err := d.node(data[k:])
	if err != nil {
		return nil, nil, err
	}
	if d.remaining != 0 {
		return nil, nil, fmt.Errorf("sharing: node count mismatch: %d unconsumed", d.remaining)
	}
	return &Tree{Root: root}, data, nil
}

// treeDecoder carries the state of one tree decode: the nodes still
// declared and, when non-nil, the fast-path ring nodes are packed for.
type treeDecoder struct {
	remaining uint64
	fp        *ring.FpCyclotomic
}

func (d *treeDecoder) node(data []byte) (*Node, []byte, error) {
	if d.remaining == 0 {
		return nil, nil, errors.New("sharing: more nodes than declared")
	}
	d.remaining--
	nc, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, nil, errors.New("sharing: bad child count")
	}
	if nc > d.remaining {
		return nil, nil, fmt.Errorf("sharing: child count %d exceeds remaining nodes %d", nc, d.remaining)
	}
	node := &Node{}
	data, err := d.share(node, data[k:])
	if err != nil {
		return nil, nil, err
	}
	for i := uint64(0); i < nc; i++ {
		var c *Node
		c, data, err = d.node(data)
		if err != nil {
			return nil, nil, err
		}
		node.Children = append(node.Children, c)
	}
	return node, data, nil
}

// share decodes node's share polynomial from the front of data.
func (d *treeDecoder) share(node *Node, data []byte) ([]byte, error) {
	if d.fp != nil {
		words, rest, ok, err := poly.DecodeWords(data)
		if err != nil {
			return nil, err
		}
		if ok && len(words) == 0 {
			return rest, nil
		}
		if bound := d.fp.DegreeBound(); ok && len(words) <= bound && d.reduced(words) {
			if len(words) < bound {
				full := make([]uint64, bound)
				copy(full, words)
				words = full
			}
			node.Packed = words
			return rest, nil
		}
	}
	p, rest, err := poly.DecodePoly(data)
	if err != nil {
		return nil, err
	}
	node.Poly = p
	return rest, nil
}

// reduced reports whether every word is a canonical residue mod p.
func (d *treeDecoder) reduced(words []uint64) bool {
	p := d.fp.Fast().P()
	for _, v := range words {
		if v >= p {
			return false
		}
	}
	return true
}
