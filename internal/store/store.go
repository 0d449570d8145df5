// Package store persists the scheme's durable artifacts:
//
//   - server share stores: ring parameters + share tree, CRC-protected
//     ("SSSTORE3" files) — what an outsourcing provider keeps on disk;
//   - client state: seed + private tag mapping + ring parameters
//     ("SSCLNT3\0" files) — the client's entire secret material, which is
//     all a client needs to query any number of servers.
//
// Formats are versioned by magic and fully length-checked on load; a
// flipped bit anywhere fails the checksum rather than corrupting queries.
//
// The magics move a generation whenever sharing.ShareLabel does, since
// pads derived under the new label would silently fail to cancel against
// an old server store: generation 2 came with the fast-path bulk sampler
// (a new consumption pattern of the HMAC-DRBG stream), generation 3 with
// the per-node AES-256-CTR keystream that replaced the HMAC-DRBG.
// Retired generations are recognized only to be rejected loudly, with a
// hint to re-outsource; that is deliberate.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"

	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/ring"
	"sssearch/internal/sharing"
)

var (
	serverMagic = []byte("SSSTORE3")
	clientMagic = []byte("SSCLNT3\x00")
)

// retiredMagics are the earlier generations of the server, client and
// shard magics (see the package doc).
var retiredMagics = []string{
	"SSSTORE1", "SSSTORE2",
	"SSCLNT1\x00", "SSCLNT2\x00",
	"SSSHRD1\x00",
}

// ErrBadFormat reports an unrecognized or corrupt file.
var ErrBadFormat = errors.New("store: unrecognized or corrupt file")

// badMagic is the error for data that does not start with the expected
// magic, telling a retired file generation apart from a foreign file.
func badMagic(data []byte) error {
	for _, m := range retiredMagics {
		if bytes.HasPrefix(data, []byte(m)) {
			return fmt.Errorf("%w: %q is a retired file generation whose share pads no longer cancel; re-outsource the document to migrate",
				ErrBadFormat, strings.TrimRight(m, "\x00"))
		}
	}
	return fmt.Errorf("%w: bad magic", ErrBadFormat)
}

// SaveServer writes a server share store to path (atomically via rename).
func SaveServer(path string, r ring.Ring, tree *sharing.Tree) error {
	data, err := encodeServer(r, tree)
	if err != nil {
		return err
	}
	return atomicWrite(path, data)
}

// WriteServer streams a server share store to w.
func WriteServer(w io.Writer, r ring.Ring, tree *sharing.Tree) error {
	data, err := encodeServer(r, tree)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// encodeServer returns a server share store's bytes, checksum included.
func encodeServer(r ring.Ring, tree *sharing.Tree) ([]byte, error) {
	if r == nil || tree == nil || tree.Root == nil {
		return nil, errors.New("store: nil ring or tree")
	}
	params, err := r.Params().MarshalBinary()
	if err != nil {
		return nil, err
	}
	body := make([]byte, 0, len(serverMagic)+10+len(params)+tree.ByteSize()+4)
	body = append(body, serverMagic...)
	body = binary.AppendUvarint(body, uint64(len(params)))
	body = append(body, params...)
	if body, err = tree.AppendBinary(body); err != nil {
		return nil, err
	}
	return binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body)), nil
}

// LoadServer reads a server share store from path.
func LoadServer(path string) (ring.Ring, *sharing.Tree, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return ReadServer(data)
}

// ReadServer parses a server share store from bytes.
func ReadServer(data []byte) (ring.Ring, *sharing.Tree, error) {
	if len(data) < len(serverMagic)+4 || !bytes.HasPrefix(data, serverMagic) {
		return nil, nil, badMagic(data)
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(crcBytes) {
		return nil, nil, fmt.Errorf("%w: checksum mismatch", ErrBadFormat)
	}
	rest := body[len(serverMagic):]
	plen, k := binary.Uvarint(rest)
	if k <= 0 || uint64(len(rest)-k) < plen {
		return nil, nil, fmt.Errorf("%w: bad params length", ErrBadFormat)
	}
	rest = rest[k:]
	var params ring.Params
	if err := params.UnmarshalBinary(rest[:plen]); err != nil {
		return nil, nil, fmt.Errorf("store: params: %w", err)
	}
	r, err := ring.FromParams(params)
	if err != nil {
		return nil, nil, fmt.Errorf("store: ring: %w", err)
	}
	tree, trailing, err := sharing.DecodeTreeFor(r, rest[plen:])
	if err != nil {
		return nil, nil, fmt.Errorf("store: tree: %w", err)
	}
	if len(trailing) != 0 {
		return nil, nil, fmt.Errorf("%w: trailing bytes", ErrBadFormat)
	}
	return r, tree, nil
}

// ClientState is everything the client must keep secret and durable.
type ClientState struct {
	Seed    drbg.Seed
	Params  ring.Params
	Mapping *mapping.Map
}

// SaveClient writes client state to path with 0600 permissions.
func SaveClient(path string, st *ClientState) error {
	var buf bytes.Buffer
	if err := WriteClient(&buf, st); err != nil {
		return err
	}
	return atomicWriteMode(path, buf.Bytes(), 0o600)
}

// WriteClient streams client state to w.
func WriteClient(w io.Writer, st *ClientState) error {
	if st == nil || st.Mapping == nil {
		return errors.New("store: nil client state")
	}
	params, err := st.Params.MarshalBinary()
	if err != nil {
		return err
	}
	mb, err := st.Mapping.MarshalBinary()
	if err != nil {
		return err
	}
	body := make([]byte, 0, len(clientMagic)+drbg.SeedSize+20+len(params)+len(mb))
	body = append(body, clientMagic...)
	body = append(body, st.Seed[:]...)
	body = binary.AppendUvarint(body, uint64(len(params)))
	body = append(body, params...)
	body = binary.AppendUvarint(body, uint64(len(mb)))
	body = append(body, mb...)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	if _, err := w.Write(body); err != nil {
		return err
	}
	_, err = w.Write(crc[:])
	return err
}

// LoadClient reads client state from path.
func LoadClient(path string) (*ClientState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadClient(data)
}

// ReadClient parses client state from bytes.
func ReadClient(data []byte) (*ClientState, error) {
	if len(data) < len(clientMagic)+drbg.SeedSize+4 || !bytes.HasPrefix(data, clientMagic) {
		return nil, badMagic(data)
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(crcBytes) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadFormat)
	}
	rest := body[len(clientMagic):]
	seed, err := drbg.SeedFromBytes(rest[:drbg.SeedSize])
	if err != nil {
		return nil, err
	}
	rest = rest[drbg.SeedSize:]
	plen, k := binary.Uvarint(rest)
	if k <= 0 || uint64(len(rest)-k) < plen {
		return nil, fmt.Errorf("%w: bad params length", ErrBadFormat)
	}
	rest = rest[k:]
	var params ring.Params
	if err := params.UnmarshalBinary(rest[:plen]); err != nil {
		return nil, err
	}
	rest = rest[plen:]
	mlen, k := binary.Uvarint(rest)
	if k <= 0 || uint64(len(rest)-k) < mlen {
		return nil, fmt.Errorf("%w: bad mapping length", ErrBadFormat)
	}
	rest = rest[k:]
	m := &mapping.Map{}
	if err := m.UnmarshalBinary(rest[:mlen]); err != nil {
		return nil, err
	}
	if len(rest) != int(mlen) {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadFormat)
	}
	return &ClientState{Seed: seed, Params: params, Mapping: m}, nil
}

func atomicWrite(path string, data []byte) error {
	return atomicWriteMode(path, data, 0o644)
}

func atomicWriteMode(path string, data []byte, mode os.FileMode) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, mode); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
