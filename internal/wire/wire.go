// Package wire defines the binary protocol between the query client and
// the share server: length-prefixed, CRC-protected frames carrying
// evaluation requests, scalar answers, polynomial fetches and prune
// notices.
//
// Every frame carries a request ID in its header, so a connection can
// have many requests in flight and responses can complete out of order
// without the transport decoding payloads to route them. Frame layout
// (big-endian):
//
//	magic   uint16  0x5350 ("SP")
//	type    uint8
//	reqid   uint64  request correlation ID (0 in the handshake)
//	length  uint32  payload byte count
//	payload length bytes
//	crc32   uint32  IEEE CRC over type byte + reqid + payload
//
// A session opens with a Hello carrying Version; the server answers with
// a HelloAck, or with an ErrorMsg coded CodeUnsupportedVersion and a
// closed connection. There is no negotiation beyond that accept-or-reject.
//
// All payload integers are unsigned LEB128 varints unless stated otherwise.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/big"

	"sssearch/internal/drbg"
)

// Magic identifies protocol frames.
const Magic uint16 = 0x5350

// Version is the protocol version a Hello must carry. Requests carry a
// deadline budget and trace context; errors carry a typed code and a
// retry-after hint.
const Version uint32 = 3

// MaxFrameSize bounds a single frame's payload (16 MiB).
const MaxFrameSize = 16 << 20

// MsgType enumerates frame types.
type MsgType uint8

const (
	// MsgHello opens a session (client → server): varint version.
	MsgHello MsgType = 1
	// MsgHelloAck acknowledges (server → client): varint version,
	// ring params blob.
	MsgHelloAck MsgType = 2
	// MsgEval requests evaluations: varint id, keys, big-int points.
	MsgEval MsgType = 3
	// MsgEvalResp answers MsgEval: varint id, node answers.
	MsgEvalResp MsgType = 4
	// MsgFetch requests share polynomials: varint id, keys.
	MsgFetch MsgType = 5
	// MsgFetchResp answers MsgFetch: varint id, poly answers.
	MsgFetchResp MsgType = 6
	// MsgPrune notifies dead subtrees: varint id, keys.
	MsgPrune MsgType = 7
	// MsgAck acknowledges MsgPrune: varint id.
	MsgAck MsgType = 8
	// MsgError reports a server-side failure: varint id, string message,
	// varint code, varint retry-after.
	MsgError MsgType = 9
	// MsgBye closes the session gracefully.
	MsgBye MsgType = 10
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "Hello"
	case MsgHelloAck:
		return "HelloAck"
	case MsgEval:
		return "Eval"
	case MsgEvalResp:
		return "EvalResp"
	case MsgFetch:
		return "Fetch"
	case MsgFetchResp:
		return "FetchResp"
	case MsgPrune:
		return "Prune"
	case MsgAck:
		return "Ack"
	case MsgError:
		return "Error"
	case MsgBye:
		return "Bye"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Frame is one protocol message: its type, the request ID it belongs to
// and its payload.
type Frame struct {
	Type    MsgType
	ReqID   uint64
	Payload []byte
}

var (
	// ErrBadMagic signals a stream that is not speaking this protocol.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrFrameTooLarge signals an oversized frame.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrChecksum signals payload corruption.
	ErrChecksum = errors.New("wire: checksum mismatch")
)

// headerLen is magic(2) + type(1) + reqid(8) + length(4).
const headerLen = 15

// WriteFrame writes one frame to w. It returns the number of bytes
// written. Frames that fit a pooled buffer are assembled and written in
// ONE w.Write call — one syscall and no retained header allocation;
// oversized frames fall back to chunked writes.
func WriteFrame(w io.Writer, f Frame) (int, error) {
	if len(f.Payload) > MaxFrameSize {
		return 0, ErrFrameTooLarge
	}
	var header [headerLen]byte
	binary.BigEndian.PutUint16(header[0:2], Magic)
	header[2] = byte(f.Type)
	binary.BigEndian.PutUint64(header[3:11], f.ReqID)
	binary.BigEndian.PutUint32(header[11:15], uint32(len(f.Payload)))
	crc := crc32.NewIEEE()
	crc.Write(header[2:11])
	crc.Write(f.Payload)
	var tail [4]byte
	binary.BigEndian.PutUint32(tail[:], crc.Sum32())
	if headerLen+len(f.Payload)+4 <= maxPooledBuf {
		buf := GetBuf()
		buf = append(buf, header[:]...)
		buf = append(buf, f.Payload...)
		buf = append(buf, tail[:]...)
		n, err := w.Write(buf)
		PutBuf(buf)
		if err != nil {
			return n, fmt.Errorf("wire: writing frame: %w", err)
		}
		return n, nil
	}
	total := 0
	for _, chunk := range [][]byte{header[:], f.Payload, tail[:]} {
		n, err := w.Write(chunk)
		total += n
		if err != nil {
			return total, fmt.Errorf("wire: writing frame: %w", err)
		}
	}
	return total, nil
}

// ReadFrame reads one frame from r. It returns the frame and the number
// of bytes consumed. The payload is a pooled buffer: callers that fully
// decode it may hand it back via PutBuf; callers that retain it simply
// never do.
func ReadFrame(r io.Reader) (Frame, int, error) {
	var header [headerLen]byte
	if _, err := io.ReadFull(r, header[:2]); err != nil {
		return Frame{}, 0, err
	}
	if binary.BigEndian.Uint16(header[:2]) != Magic {
		return Frame{}, 2, ErrBadMagic
	}
	if _, err := io.ReadFull(r, header[2:]); err != nil {
		return Frame{}, 2, fmt.Errorf("wire: reading header: %w", err)
	}
	length := binary.BigEndian.Uint32(header[11:15])
	if length > MaxFrameSize {
		return Frame{}, headerLen, ErrFrameTooLarge
	}
	payload := GetPayload(int(length))
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, headerLen, fmt.Errorf("wire: reading payload: %w", err)
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return Frame{}, headerLen + int(length), fmt.Errorf("wire: reading checksum: %w", err)
	}
	crc := crc32.NewIEEE()
	crc.Write(header[2:11])
	crc.Write(payload)
	if crc.Sum32() != binary.BigEndian.Uint32(tail[:]) {
		return Frame{}, headerLen + 4 + int(length), ErrChecksum
	}
	return Frame{
		Type:    MsgType(header[2]),
		ReqID:   binary.BigEndian.Uint64(header[3:11]),
		Payload: payload,
	}, headerLen + 4 + int(length), nil
}

// --- payload codecs -------------------------------------------------------

// AppendKey encodes a node key.
func AppendKey(dst []byte, k drbg.NodeKey) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(k)))
	for _, c := range k {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	return dst
}

// maxKeyLen bounds node key depth on decode.
const maxKeyLen = 1 << 16

// DecodeKey decodes a node key from the front of data.
func DecodeKey(data []byte) (drbg.NodeKey, []byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > maxKeyLen {
		return nil, nil, errors.New("wire: bad key length")
	}
	data = data[k:]
	// Every component needs at least one byte; reject depths the data
	// cannot back before allocating (DoS hardening, as in DecodeKeys).
	if n > uint64(len(data)) {
		return nil, nil, errors.New("wire: key length exceeds available bytes")
	}
	key := make(drbg.NodeKey, n)
	for i := uint64(0); i < n; i++ {
		v, k := binary.Uvarint(data)
		if k <= 0 || v > 1<<32-1 {
			return nil, nil, errors.New("wire: bad key component")
		}
		key[i] = uint32(v)
		data = data[k:]
	}
	return key, data, nil
}

// AppendKeys encodes a key list.
func AppendKeys(dst []byte, keys []drbg.NodeKey) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = AppendKey(dst, k)
	}
	return dst
}

// maxListLen bounds list lengths on decode.
const maxListLen = 1 << 22

// DecodeKeys decodes a key list.
func DecodeKeys(data []byte) ([]drbg.NodeKey, []byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > maxListLen {
		return nil, nil, errors.New("wire: bad key count")
	}
	data = data[k:]
	// Every key needs at least one byte; reject counts the data cannot
	// possibly back before allocating (DoS hardening).
	if n > uint64(len(data)) {
		return nil, nil, errors.New("wire: key count exceeds available bytes")
	}
	keys := make([]drbg.NodeKey, n)
	for i := uint64(0); i < n; i++ {
		var err error
		keys[i], data, err = DecodeKey(data)
		if err != nil {
			return nil, nil, err
		}
	}
	return keys, data, nil
}

// AppendBig encodes a signed big.Int (sign byte + magnitude).
func AppendBig(dst []byte, v *big.Int) []byte {
	switch v.Sign() {
	case 0:
		return append(dst, 0)
	case 1:
		dst = append(dst, 1)
	default:
		dst = append(dst, 2)
	}
	b := v.Bytes()
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// maxBigBytes bounds a big.Int magnitude on decode (1 MiB).
const maxBigBytes = 1 << 20

// DecodeBig decodes a signed big.Int.
func DecodeBig(data []byte) (*big.Int, []byte, error) {
	if len(data) == 0 {
		return nil, nil, errors.New("wire: empty big.Int")
	}
	sign := data[0]
	data = data[1:]
	if sign == 0 {
		return new(big.Int), data, nil
	}
	if sign > 2 {
		return nil, nil, fmt.Errorf("wire: bad sign byte %d", sign)
	}
	l, k := binary.Uvarint(data)
	if k <= 0 || l > maxBigBytes {
		return nil, nil, errors.New("wire: bad big.Int length")
	}
	data = data[k:]
	if uint64(len(data)) < l {
		return nil, nil, errors.New("wire: truncated big.Int")
	}
	v := new(big.Int).SetBytes(data[:l])
	if sign == 2 {
		v.Neg(v)
	}
	return v, data[l:], nil
}

// AppendBigs encodes a big.Int list.
func AppendBigs(dst []byte, vs []*big.Int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = AppendBig(dst, v)
	}
	return dst
}

// DecodeBigs decodes a big.Int list.
func DecodeBigs(data []byte) ([]*big.Int, []byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > maxListLen {
		return nil, nil, errors.New("wire: bad big.Int count")
	}
	data = data[k:]
	if n > uint64(len(data)) {
		return nil, nil, errors.New("wire: big.Int count exceeds available bytes")
	}
	out := make([]*big.Int, n)
	for i := uint64(0); i < n; i++ {
		var err error
		out[i], data, err = DecodeBig(data)
		if err != nil {
			return nil, nil, err
		}
	}
	return out, data, nil
}

// AppendString encodes a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// maxStringLen bounds strings on decode (64 KiB).
const maxStringLen = 1 << 16

// DecodeString decodes a length-prefixed string.
func DecodeString(data []byte) (string, []byte, error) {
	l, k := binary.Uvarint(data)
	if k <= 0 || l > maxStringLen {
		return "", nil, errors.New("wire: bad string length")
	}
	data = data[k:]
	if uint64(len(data)) < l {
		return "", nil, errors.New("wire: truncated string")
	}
	return string(data[:l]), data[l:], nil
}
