package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/paperdata"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/sharing"
)

func testSeed(b byte) drbg.Seed {
	var s drbg.Seed
	for i := range s {
		s[i] = b
	}
	return s
}

func buildTree(t *testing.T, r ring.Ring) *sharing.Tree {
	t.Helper()
	m := paperdata.Mapping(r.MaxTag())
	enc, err := polyenc.Encode(r, paperdata.Document(), m)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := sharing.Split(enc, testSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestServerRoundTripBothRings(t *testing.T) {
	dir := t.TempDir()
	rings := []ring.Ring{ring.MustFp(11), paperdata.ZRing()}
	for i, r := range rings {
		tree := buildTree(t, r)
		path := filepath.Join(dir, "srv", "store.sss")
		os.MkdirAll(filepath.Dir(path), 0o755)
		if err := SaveServer(path, r, tree); err != nil {
			t.Fatal(err)
		}
		r2, tree2, err := LoadServer(path)
		if err != nil {
			t.Fatalf("ring %d: %v", i, err)
		}
		if r2.Name() != r.Name() {
			t.Errorf("ring changed: %s vs %s", r2.Name(), r.Name())
		}
		if tree2.Count() != tree.Count() {
			t.Error("node count changed")
		}
		b1, _ := tree.MarshalBinary()
		b2, _ := tree2.MarshalBinary()
		if string(b1) != string(b2) {
			t.Error("tree bytes changed")
		}
	}
}

func TestServerCorruptionDetected(t *testing.T) {
	r := paperdata.ZRing()
	tree := buildTree(t, r)
	path := filepath.Join(t.TempDir(), "s.sss")
	if err := SaveServer(path, r, tree); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	// Flip one byte mid-file.
	data[len(data)/2] ^= 0x01
	if _, _, err := ReadServer(data); err == nil {
		t.Fatal("corruption not detected")
	}
	// Truncated.
	if _, _, err := ReadServer(data[:10]); err == nil {
		t.Fatal("truncation not detected")
	}
	// Wrong magic.
	if _, _, err := ReadServer([]byte("NOTASTORE123")); err == nil {
		t.Fatal("bad magic not detected")
	}
	// Trailing bytes break the checksum by construction; splice extra bytes
	// before the CRC to simulate.
	good, _ := os.ReadFile(path)
	bad := append(append([]byte{}, good[:len(good)-4]...), 0xAA)
	bad = append(bad, good[len(good)-4:]...)
	if _, _, err := ReadServer(bad); err == nil {
		t.Fatal("spliced bytes not detected")
	}
}

func TestClientRoundTrip(t *testing.T) {
	m, _ := mapping.New(big.NewInt(1000), []byte("secret"))
	m.AssignAll([]string{"customers", "client", "name"})
	st := &ClientState{
		Seed:    testSeed(9),
		Params:  paperdata.ZRing().Params(),
		Mapping: m,
	}
	path := filepath.Join(t.TempDir(), "client.sss")
	if err := SaveClient(path, st); err != nil {
		t.Fatal(err)
	}
	// Secret material must not be world-readable.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o600 {
		t.Errorf("client state mode = %v, want 0600", info.Mode().Perm())
	}
	got, err := LoadClient(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != st.Seed {
		t.Error("seed changed")
	}
	if got.Params.Kind != ring.KindIntQuotient {
		t.Error("params changed")
	}
	if got.Mapping.Len() != 3 {
		t.Error("mapping lost")
	}
	v1, _ := m.Value("client")
	v2, ok := got.Mapping.Value("client")
	if !ok || v1.Cmp(v2) != 0 {
		t.Error("mapping values changed")
	}
}

func TestClientCorruptionDetected(t *testing.T) {
	m, _ := mapping.New(big.NewInt(100), nil)
	st := &ClientState{Seed: testSeed(2), Params: ring.MustFp(11).Params(), Mapping: m}
	path := filepath.Join(t.TempDir(), "c.sss")
	if err := SaveClient(path, st); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	data[12] ^= 0xFF
	if _, err := ReadClient(data); err == nil {
		t.Fatal("corruption not detected")
	}
	if _, err := ReadClient(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

// withMagic rewrites a current-generation file under another magic of
// the same length and re-seals the checksum, so only the magic differs.
func withMagic(data []byte, magic string) []byte {
	out := append([]byte(magic), data[len(magic):len(data)-4]...)
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// TestRetiredGenerationRejected: generation-2 server, client and shard
// files carry pads from the retired HMAC-DRBG derivation; they must fail
// with ErrBadFormat and a message that says to re-outsource, while a
// foreign file still reads as a plain bad magic.
func TestRetiredGenerationRejected(t *testing.T) {
	var srv, cli, shd bytes.Buffer
	r := ring.MustFp(11)
	if err := WriteServer(&srv, r, buildTree(t, r)); err != nil {
		t.Fatal(err)
	}
	m, _ := mapping.New(big.NewInt(100), nil)
	if err := WriteClient(&cli, &ClientState{Seed: testSeed(2), Params: r.Params(), Mapping: m}); err != nil {
		t.Fatal(err)
	}
	sr, trees, man := shardFixture(t)
	if err := WriteShard(&shd, sr, trees[0], man, 0); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		data  []byte
		magic string
		read  func([]byte) error
	}{
		{"server", srv.Bytes(), "SSSTORE2", func(b []byte) error { _, _, err := ReadServer(b); return err }},
		{"client", cli.Bytes(), "SSCLNT2\x00", func(b []byte) error { _, err := ReadClient(b); return err }},
		{"shard", shd.Bytes(), "SSSHRD1\x00", func(b []byte) error { _, _, _, _, err := ReadShard(b); return err }},
	} {
		if err := tc.read(tc.data); err != nil {
			t.Fatalf("%s: current generation rejected: %v", tc.name, err)
		}
		err := tc.read(withMagic(tc.data, tc.magic))
		if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "re-outsource") {
			t.Errorf("%s: generation-2 file gave %v, want ErrBadFormat with a re-outsource hint", tc.name, err)
		}
		err = tc.read(withMagic(tc.data, "NOTAFILE"))
		if !errors.Is(err, ErrBadFormat) || strings.Contains(err.Error(), "re-outsource") {
			t.Errorf("%s: foreign file gave %v, want a plain ErrBadFormat", tc.name, err)
		}
	}
}

func TestSaveErrors(t *testing.T) {
	if err := SaveServer(filepath.Join(t.TempDir(), "x"), nil, nil); err == nil {
		t.Error("nil inputs accepted")
	}
	if err := SaveClient(filepath.Join(t.TempDir(), "y"), nil); err == nil {
		t.Error("nil state accepted")
	}
	// Unwritable directory.
	r := paperdata.ZRing()
	tree := buildTree(t, r)
	if err := SaveServer("/nonexistent-dir/sub/f.sss", r, tree); err == nil {
		t.Error("unwritable path accepted")
	}
}

// TestQueryAfterReload: a server store loaded from disk must serve queries
// identically (exercised further in the integration tests).
func TestQueryAfterReload(t *testing.T) {
	r := paperdata.ZRing()
	tree := buildTree(t, r)
	path := filepath.Join(t.TempDir(), "reload.sss")
	if err := SaveServer(path, r, tree); err != nil {
		t.Fatal(err)
	}
	r2, tree2, err := LoadServer(path)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate one node before/after and compare.
	a := big.NewInt(2)
	n1, _ := tree.Lookup(drbg.NodeKey{0})
	n2, _ := tree2.Lookup(drbg.NodeKey{0})
	v1, err := r.Eval(n1.Polynomial(), a)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := r2.Eval(n2.Polynomial(), a)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Cmp(v2) != 0 {
		t.Error("evaluation changed after reload")
	}
}
