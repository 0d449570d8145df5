// Package drbg derives the scheme's deterministic pseudo-random streams
// from the client's seed: one AES-256-CTR keystream per tree node.
//
// The scheme's client keeps only a 32-byte seed (§4.2 of the paper: "store
// only the random seed with which the random polynomials were generated").
// Derivation by node path lets the client regenerate the share of any single
// tree node in O(path length) work, without materialising the whole tree and
// without any per-node state.
//
// Construction. For seed s, domain-separation label L and node path
// (c_1, …, c_m), the node key is
//
//	K = HMAC-SHA256(s, L ‖ 0x00 ‖ uvarint(m) ‖ uvarint(c_1) ‖ … ‖ uvarint(c_m))
//
// and the node's stream is the AES-256-CTR keystream under K with an
// all-zero IV. The path encoding is unambiguous, so every (label, path)
// pair gets its own key and no (key, counter) block ever repeats across
// nodes; the fixed IV is safe because no key is used for two streams. A
// keystream does not depend on how it is read: any split of the reads
// yields the same bytes.
package drbg

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// SeedSize is the seed length in bytes.
const SeedSize = 32

// Seed is the client's sole secret for share regeneration.
type Seed [SeedSize]byte

// NewSeed draws a fresh random seed from crypto/rand.
func NewSeed() (Seed, error) {
	var s Seed
	if _, err := io.ReadFull(rand.Reader, s[:]); err != nil {
		return Seed{}, fmt.Errorf("drbg: generating seed: %w", err)
	}
	return s, nil
}

// SeedFromBytes builds a Seed from exactly SeedSize bytes.
func SeedFromBytes(b []byte) (Seed, error) {
	var s Seed
	if len(b) != SeedSize {
		return s, fmt.Errorf("drbg: seed must be %d bytes, got %d", SeedSize, len(b))
	}
	copy(s[:], b)
	return s, nil
}

// SeedFromString parses a hex-encoded seed.
func SeedFromString(h string) (Seed, error) {
	b, err := hex.DecodeString(h)
	if err != nil {
		return Seed{}, fmt.Errorf("drbg: bad seed hex: %w", err)
	}
	return SeedFromBytes(b)
}

// String returns the hex encoding of the seed.
func (s Seed) String() string { return hex.EncodeToString(s[:]) }

// NodeKey identifies a tree node by its path of child indices from the
// root (the root itself is the empty path).
type NodeKey []uint32

// String renders a NodeKey like "/0/2/1" ("/" for the root).
func (k NodeKey) String() string {
	if len(k) == 0 {
		return "/"
	}
	var sb strings.Builder
	for _, c := range k {
		sb.WriteByte('/')
		sb.WriteString(strconv.FormatUint(uint64(c), 10))
	}
	return sb.String()
}

// Stream is one node's keystream. It implements io.Reader and never
// fails. A Stream is NOT safe for concurrent use; derive one per
// goroutine instead.
type Stream struct {
	ctr cipher.Stream
}

// Read fills p with the next len(p) keystream bytes.
func (s *Stream) Read(p []byte) (int, error) {
	clear(p)
	s.ctr.XORKeyStream(p, p)
	return len(p), nil
}

var _ io.Reader = (*Stream)(nil)

// Deriver produces independent per-node streams from one seed. It is
// safe for concurrent use (each call builds fresh state).
type Deriver struct {
	seed  Seed
	label []byte
}

// NewDeriver builds a Deriver with a domain-separation label (e.g.
// "sss/client-share/v3").
func NewDeriver(seed Seed, label string) *Deriver {
	return &Deriver{seed: seed, label: []byte(label)}
}

// ForNode returns a fresh deterministic stream for a node path. Distinct
// paths yield computationally independent streams; the same path always
// yields the identical stream.
func (d *Deriver) ForNode(key NodeKey) *Stream {
	// Unambiguous path encoding: varint length, then varint components.
	enc := make([]byte, 0, 8+len(key)*5+len(d.label))
	enc = append(enc, d.label...)
	enc = append(enc, 0x00)
	enc = binary.AppendUvarint(enc, uint64(len(key)))
	for _, c := range key {
		enc = binary.AppendUvarint(enc, uint64(c))
	}
	mac := hmac.New(sha256.New, d.seed[:])
	mac.Write(enc)
	var k [sha256.Size]byte
	block, err := aes.NewCipher(mac.Sum(k[:0]))
	if err != nil {
		panic(err) // unreachable: a SHA-256 digest is a valid AES-256 key
	}
	var iv [aes.BlockSize]byte
	return &Stream{ctr: cipher.NewCTR(block, iv[:])}
}

// Child extends a node key by one step. The receiver is not modified.
func (k NodeKey) Child(i uint32) NodeKey {
	out := make(NodeKey, len(k)+1)
	copy(out, k)
	out[len(k)] = i
	return out
}
