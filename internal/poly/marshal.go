package poly

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"slices"
)

// Binary layout (all varint = unsigned LEB128 via encoding/binary):
//
//	varint  nCoeffs
//	repeat nCoeffs times:
//	    byte    sign (0 = zero, 1 = positive, 2 = negative)
//	    varint  len(bytes)      (omitted when sign == 0)
//	    bytes   big-endian magnitude
//
// The encoding is canonical: trailing zero coefficients are never written.

// maxCoeffBytes bounds a single coefficient encoding (1 MiB) to keep a
// corrupt or hostile input from driving huge allocations.
const maxCoeffBytes = 1 << 20

// maxMarshalCoeffs bounds the coefficient count accepted by UnmarshalBinary.
const maxMarshalCoeffs = 1 << 24

// MarshalBinary implements encoding.BinaryMarshaler.
func (p Poly) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 8+len(p.c)*9)
	buf = binary.AppendUvarint(buf, uint64(len(p.c)))
	for _, v := range p.c {
		switch v.Sign() {
		case 0:
			buf = append(buf, 0)
		case 1:
			buf = append(buf, 1)
			b := v.Bytes()
			buf = binary.AppendUvarint(buf, uint64(len(b)))
			buf = append(buf, b...)
		case -1:
			buf = append(buf, 2)
			b := v.Bytes()
			buf = binary.AppendUvarint(buf, uint64(len(b)))
			buf = append(buf, b...)
		}
	}
	return buf, nil
}

// BinarySize returns len(MarshalBinary()) without allocating — transfer
// accounting on the query hot path must not marshal just to count.
func (p Poly) BinarySize() int {
	n := uvarintLen(uint64(len(p.c)))
	for _, v := range p.c {
		n++ // sign byte
		if v.Sign() != 0 {
			b := (v.BitLen() + 7) / 8
			n += uvarintLen(uint64(b)) + b
		}
	}
	return n
}

// uvarintLen is the encoded length of v as an unsigned LEB128 varint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// AppendBinary appends the canonical encoding of p to dst.
func (p Poly) AppendBinary(dst []byte) ([]byte, error) {
	b, err := p.MarshalBinary()
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// UnmarshalBinary decodes a polynomial previously encoded with
// MarshalBinary. It replaces the receiver's contents.
func (p *Poly) UnmarshalBinary(data []byte) error {
	q, rest, err := DecodePoly(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errors.New("poly: trailing bytes after polynomial")
	}
	*p = q
	return nil
}

// DecodePoly decodes one polynomial from the front of data, returning the
// remaining bytes: the streaming big.Int decoder of the wire protocol and
// the on-disk store, and the fallback when DecodeWords reports ok=false.
func DecodePoly(data []byte) (Poly, []byte, error) {
	n, data, err := decodeCount(data)
	if err != nil {
		return Poly{}, nil, err
	}
	c := make([]*big.Int, n)
	for i := range c {
		var sign byte
		var mag []byte
		sign, mag, data, err = decodeCoeff(data)
		if err != nil {
			return Poly{}, nil, err
		}
		v := new(big.Int).SetBytes(mag)
		if sign == 2 {
			v.Neg(v)
		}
		c[i] = v
	}
	return Poly{c: c}.trim(), data, nil
}

// AppendWords appends the encoding of the polynomial with the given word
// coefficients (ascending degree) to dst. The bytes are exactly those of
// NewUint64(c).MarshalBinary() — trailing zero words are not written — but
// no coefficient is boxed. c is only read.
func AppendWords(dst []byte, c []uint64) []byte {
	c = TrimWords(c)
	dst = slices.Grow(dst, binary.MaxVarintLen64+len(c)*10)
	dst = binary.AppendUvarint(dst, uint64(len(c)))
	var be [8]byte
	for _, v := range c {
		if v == 0 {
			dst = append(dst, 0)
			continue
		}
		n := (bits.Len64(v) + 7) / 8
		binary.BigEndian.PutUint64(be[:], v)
		dst = append(dst, 1, byte(n))
		dst = append(dst, be[8-n:]...)
	}
	return dst
}

// WordsBinarySize returns len(AppendWords(nil, c)) without encoding.
func WordsBinarySize(c []uint64) int {
	c = TrimWords(c)
	n := uvarintLen(uint64(len(c))) + len(c)
	for _, v := range c {
		if v != 0 {
			n += 1 + (bits.Len64(v)+7)/8
		}
	}
	return n
}

// TrimWords returns c without its trailing zero words: the coefficients
// the canonical encoding writes.
func TrimWords(c []uint64) []uint64 {
	for len(c) > 0 && c[len(c)-1] == 0 {
		c = c[:len(c)-1]
	}
	return c
}

// DecodeWords decodes one polynomial from the front of data straight into
// word coefficients (ascending degree, trailing zeros trimmed), returning
// the remaining bytes. It accepts exactly the inputs DecodePoly accepts,
// with the same errors. When the polynomial is well formed but some
// coefficient is negative or wider than a word, it returns ok=false and
// no error, and the caller decodes the same bytes with DecodePoly.
func DecodeWords(data []byte) (c []uint64, rest []byte, ok bool, err error) {
	n, data, err := decodeCount(data)
	if err != nil {
		return nil, nil, false, err
	}
	c = make([]uint64, n)
	ok = true
	for i := range c {
		var sign byte
		var mag []byte
		sign, mag, data, err = decodeCoeff(data)
		if err != nil {
			return nil, nil, false, err
		}
		// A magnitude may carry leading zero bytes; its value decides.
		for len(mag) > 0 && mag[0] == 0 {
			mag = mag[1:]
		}
		if len(mag) > 8 || (sign == 2 && len(mag) > 0) {
			// Keep scanning: the structural errors must still surface.
			ok = false
			continue
		}
		var v uint64
		for _, b := range mag {
			v = v<<8 | uint64(b)
		}
		c[i] = v
	}
	if !ok {
		return nil, data, false, nil
	}
	return TrimWords(c), data, true, nil
}

// decodeCount reads the coefficient count of an encoded polynomial.
func decodeCount(data []byte) (uint64, []byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return 0, nil, errors.New("poly: bad coefficient count")
	}
	if n > maxMarshalCoeffs {
		return 0, nil, fmt.Errorf("poly: coefficient count %d exceeds limit", n)
	}
	data = data[k:]
	// Each coefficient needs at least its sign byte: reject impossible
	// counts before allocating (DoS hardening).
	if n > uint64(len(data)) {
		return 0, nil, errors.New("poly: coefficient count exceeds available bytes")
	}
	return n, data, nil
}

// decodeCoeff reads one coefficient: its sign byte and its big-endian
// magnitude (nil for sign 0), which aliases data.
func decodeCoeff(data []byte) (sign byte, mag, rest []byte, err error) {
	if len(data) == 0 {
		return 0, nil, nil, errors.New("poly: truncated coefficient")
	}
	sign, data = data[0], data[1:]
	switch sign {
	case 0:
		return 0, nil, data, nil
	case 1, 2:
		l, k := binary.Uvarint(data)
		if k <= 0 {
			return 0, nil, nil, errors.New("poly: bad coefficient length")
		}
		if l > maxCoeffBytes {
			return 0, nil, nil, fmt.Errorf("poly: coefficient length %d exceeds limit", l)
		}
		data = data[k:]
		if uint64(len(data)) < l {
			return 0, nil, nil, errors.New("poly: truncated coefficient bytes")
		}
		return sign, data[:l], data[l:], nil
	default:
		return 0, nil, nil, fmt.Errorf("poly: invalid sign byte %d", sign)
	}
}
