package drbg

import (
	"bytes"
	"encoding/hex"
	"io"
	"testing"

	"sssearch/internal/fastfield"
)

func testSeed(b byte) Seed {
	var s Seed
	for i := range s {
		s[i] = b
	}
	return s
}

// read draws n bytes from the stream of path k.
func read(d *Deriver, k NodeKey, n int) []byte {
	buf := make([]byte, n)
	d.ForNode(k).Read(buf)
	return buf
}

// TestKnownAnswer pins the construction: seed 00 01 … 1f, label
// "sss/kat/v1", path /0/2/1. The expected bytes were computed outside Go:
// the key is HMAC-SHA256(seed, "sss/kat/v1" ‖ 00 ‖ 03 00 02 01) =
// 10e1a0c9…6c478366, and the stream is AES-256-CTR under it with a zero
// IV. The pad coefficients are the first 8 accepted 9-bit samples
// (big-endian 2-byte draws masked to 0x1ff, rejecting ≥ 257).
func TestKnownAnswer(t *testing.T) {
	var seed Seed
	for i := range seed {
		seed[i] = byte(i)
	}
	d := NewDeriver(seed, "sss/kat/v1")
	key := NodeKey{0, 2, 1}

	const wantHex = "b234789936abeb32dc765d4d1a361fa0e81c58b66623cb8d72deaf750ce5b2c7"
	if got := hex.EncodeToString(read(d, key, 32)); got != wantHex {
		t.Fatalf("keystream = %s, want %s", got, wantHex)
	}

	f, err := fastfield.New(257)
	if err != nil {
		t.Fatal(err)
	}
	pad := make([]uint64, 8)
	if err := f.RandVec(d.ForNode(key), pad); err != nil {
		t.Fatal(err)
	}
	want := []uint64{52, 153, 171, 118, 54, 28, 182, 35}
	for i := range want {
		if pad[i] != want[i] {
			t.Fatalf("F_257 pad = %v, want %v", pad, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	d := NewDeriver(testSeed(7), "ctx")
	if !bytes.Equal(read(d, NodeKey{3}, 1000), read(NewDeriver(testSeed(7), "ctx"), NodeKey{3}, 1000)) {
		t.Fatal("identical seeds produced different streams")
	}
}

func TestSeedSeparation(t *testing.T) {
	a := read(NewDeriver(testSeed(1), ""), nil, 64)
	if bytes.Equal(a, read(NewDeriver(testSeed(2), ""), nil, 64)) {
		t.Fatal("different seeds produced identical streams")
	}
	if bytes.Equal(a, read(NewDeriver(testSeed(1), "x"), nil, 64)) {
		t.Fatal("different labels produced identical streams")
	}
}

// TestChunkingInvariance: a keystream is the same bytes however the
// reads split it — the property that lets the bulk sampler and
// per-coefficient draws read identical pads from one node stream.
func TestChunkingInvariance(t *testing.T) {
	d := NewDeriver(testSeed(3), "chunk")
	key := NodeKey{4, 1}
	one := read(d, key, 1000)
	for _, sizes := range [][]int{
		{1000},
		{1, 999},
		{15, 1, 16, 17, 951},
		{2, 2, 2, 2, 992},
		{512, 0, 488},
		{333, 333, 334},
	} {
		s := d.ForNode(key)
		var parts []byte
		for _, n := range sizes {
			buf := make([]byte, n)
			if _, err := s.Read(buf); err != nil {
				t.Fatal(err)
			}
			parts = append(parts, buf...)
		}
		if !bytes.Equal(one, parts) {
			t.Fatalf("reads %v differ from one read of %d bytes", sizes, len(one))
		}
	}
	// io.ReadFull over byte-at-a-time reads, the shape of field.Rand.
	s := d.ForNode(key)
	byByte := make([]byte, len(one))
	for i := range byByte {
		if _, err := io.ReadFull(s, byByte[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(one, byByte) {
		t.Fatal("byte-at-a-time reads differ from one bulk read")
	}
}

func TestStreamLooksBalanced(t *testing.T) {
	buf := read(NewDeriver(testSeed(9), "bal"), NodeKey{}, 1<<16)
	ones := 0
	for _, b := range buf {
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				ones++
			}
		}
	}
	total := len(buf) * 8
	ratio := float64(ones) / float64(total)
	if ratio < 0.49 || ratio > 0.51 {
		t.Errorf("bit ratio %f far from 0.5", ratio)
	}
}

func TestSeedRoundTrip(t *testing.T) {
	s, err := NewSeed()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SeedFromString(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if s != s2 {
		t.Fatal("seed hex round trip failed")
	}
	if _, err := SeedFromBytes([]byte{1, 2}); err == nil {
		t.Error("short seed accepted")
	}
	if _, err := SeedFromString("zz"); err == nil {
		t.Error("bad hex accepted")
	}
}

func TestDeriverNodeIndependence(t *testing.T) {
	d := NewDeriver(testSeed(5), "test/v1")
	root := NodeKey{}
	k1 := root.Child(0)
	k2 := root.Child(1)
	k11 := k1.Child(0)

	a, b, c, r := read(d, k1, 48), read(d, k2, 48), read(d, k11, 48), read(d, root, 48)
	if bytes.Equal(a, b) || bytes.Equal(a, c) || bytes.Equal(a, r) || bytes.Equal(b, c) {
		t.Fatal("node streams not independent")
	}
	// Regeneration: same path, same stream — the seed-only client property.
	if !bytes.Equal(a, read(d, k1, 48)) {
		t.Fatal("node stream not reproducible")
	}
	// Different label ⇒ different stream.
	if bytes.Equal(a, read(NewDeriver(testSeed(5), "test/v2"), k1, 48)) {
		t.Fatal("label not separating domains")
	}
}

func TestNodeKeyEncodingUnambiguous(t *testing.T) {
	// Paths [1,2] and [12] must not collide, nor [0] and [] with any prefix
	// tricks.
	d := NewDeriver(testSeed(6), "amb")
	pairs := [][2]NodeKey{
		{NodeKey{1, 2}, NodeKey{12}},
		{NodeKey{}, NodeKey{0}},
		{NodeKey{0, 0}, NodeKey{0}},
		{NodeKey{256}, NodeKey{1, 128}},
	}
	for _, p := range pairs {
		if bytes.Equal(read(d, p[0], 32), read(d, p[1], 32)) {
			t.Errorf("paths %v and %v collide", p[0], p[1])
		}
	}
}

func TestNodeKeyChildDoesNotAlias(t *testing.T) {
	k := NodeKey{1}
	c1 := k.Child(2)
	c2 := k.Child(3)
	if c1[1] != 2 || c2[1] != 3 || len(k) != 1 {
		t.Fatal("Child aliases parent storage")
	}
}

func TestNodeKeyString(t *testing.T) {
	if (NodeKey{}).String() != "/" {
		t.Errorf("root = %q", (NodeKey{}).String())
	}
	if (NodeKey{0, 2, 1}).String() != "/0/2/1" {
		t.Errorf("key = %q", NodeKey{0, 2, 1}.String())
	}
}

func BenchmarkRead1K(b *testing.B) {
	s := NewDeriver(testSeed(1), "bench").ForNode(nil)
	buf := make([]byte, 1024)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		s.Read(buf)
	}
}

func BenchmarkForNodeDepth10(b *testing.B) {
	d := NewDeriver(testSeed(1), "bench")
	k := NodeKey{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	buf := make([]byte, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.ForNode(k).Read(buf)
	}
}
