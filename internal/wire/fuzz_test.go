package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"sssearch/internal/drbg"
)

// The decoders sit on the trust boundary: arbitrary network bytes must
// never panic them, only produce errors (or valid values). The fuzz
// targets below run their checked-in seed corpora (testdata/fuzz) on
// every `go test`; `go test -fuzz FuzzReadFrame ./internal/wire/` (or
// FuzzDecodeMessages) explores further.

// FuzzReadFrame reads frames back to back from an arbitrary stream. Every
// frame the reader accepts must re-encode to exactly the bytes it
// consumed, and its payload goes through the decoder for its type.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		rd := bytes.NewReader(stream)
		consumed := 0
		for {
			fr, n, err := ReadFrame(rd)
			if err != nil {
				return
			}
			var buf bytes.Buffer
			if _, err := WriteFrame(&buf, fr); err != nil {
				t.Fatalf("accepted frame does not re-encode: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), stream[consumed:consumed+n]) {
				t.Fatalf("frame at %d re-encodes differently", consumed)
			}
			consumed += n
			decodePayload(fr.Type, fr.Payload)
		}
	})
}

// decodePayload runs the decoder for a frame type, ignoring its result.
func decodePayload(typ MsgType, p []byte) {
	switch typ {
	case MsgHello:
		DecodeHello(p)
	case MsgHelloAck:
		DecodeHelloAck(p)
	case MsgEval:
		DecodeEvalReq(p)
	case MsgEvalResp:
		DecodeEvalResp(p)
	case MsgFetch:
		DecodeFetchReq(p)
	case MsgFetchResp:
		DecodeFetchResp(p)
	case MsgPrune:
		DecodePruneReq(p)
	case MsgAck:
		DecodeAck(p)
	case MsgError:
		DecodeError(p)
	}
}

// FuzzDecodeMessages runs every payload decoder on the same bytes. A
// payload a decoder accepts must re-encode to bytes that decode again
// and re-encode identically, so no decoder accepts a value its encoder
// cannot reproduce.
func FuzzDecodeMessages(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeKey(data)
		DecodeKeys(data)
		DecodeBig(data)
		DecodeBigs(data)
		DecodeString(data)
		stable := func(what string, enc func([]byte) ([]byte, error)) {
			once, err := enc(data)
			if err != nil {
				return // rejected input
			}
			twice, err := enc(once)
			if err != nil {
				t.Fatalf("%s: re-encoded payload rejected: %v", what, err)
			}
			if !bytes.Equal(once, twice) {
				t.Fatalf("%s: re-encoding not stable:\n%x\n%x", what, once, twice)
			}
		}
		stable("hello", func(p []byte) ([]byte, error) {
			h, err := DecodeHello(p)
			return EncodeHello(h), err
		})
		stable("hello ack", func(p []byte) ([]byte, error) {
			a, err := DecodeHelloAck(p)
			if err != nil {
				return nil, err
			}
			return EncodeHelloAck(a)
		})
		stable("eval request", func(p []byte) ([]byte, error) {
			r, err := DecodeEvalReq(p)
			return EncodeEvalReq(r), err
		})
		stable("eval response", func(p []byte) ([]byte, error) {
			r, err := DecodeEvalResp(p)
			return EncodeEvalResp(r), err
		})
		stable("fetch request", func(p []byte) ([]byte, error) {
			r, err := DecodeFetchReq(p)
			return EncodeFetchReq(r), err
		})
		stable("fetch response", func(p []byte) ([]byte, error) {
			r, err := DecodeFetchResp(p)
			if err != nil {
				return nil, err
			}
			return EncodeFetchResp(r)
		})
		stable("prune request", func(p []byte) ([]byte, error) {
			r, err := DecodePruneReq(p)
			return EncodePruneReq(r), err
		})
		stable("ack", func(p []byte) ([]byte, error) {
			id, err := DecodeAck(p)
			return EncodeAck(id), err
		})
		stable("error", func(p []byte) ([]byte, error) {
			e, err := DecodeError(p)
			return EncodeError(e), err
		})
	})
}

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

// TestReadFrameNeverPanicsOnRandomStream runs the frame reader over many
// short random streams with a fixed seed, so plain `go test` covers more
// than the checked-in corpus of FuzzReadFrame.
func TestReadFrameNeverPanicsOnRandomStream(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		stream := randBytes(r, r.Intn(100))
		ReadFrame(bytes.NewReader(stream))
	}
}

// TestReadAnyNeverPanicsOnRandomStream (named for the dual-format reader
// it once covered): random bytes behind the protocol magic must never
// panic the reader, and a stream opening with the retired 0x5353 legacy
// magic must be rejected as bad magic.
func TestReadAnyNeverPanicsOnRandomStream(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		stream := randBytes(r, r.Intn(120))
		ReadFrame(bytes.NewReader(stream))
	}
	for i := 0; i < 2000; i++ {
		var stream []byte
		if i%2 == 0 {
			stream = append(stream, 0x53, 0x53) // retired legacy magic
		} else {
			stream = append(stream, 0x53, 0x50) // protocol magic
		}
		stream = append(stream, randBytes(r, r.Intn(60))...)
		_, _, err := ReadFrame(bytes.NewReader(stream))
		if i%2 == 0 && err != ErrBadMagic {
			t.Fatalf("legacy-magic stream %x: got %v, want ErrBadMagic", stream, err)
		}
	}
}

// TestMutatedFramesRejected: every single-bit flip of a valid handshake
// frame — the first thing a daemon parses from an unauthenticated peer —
// must be rejected by the frame reader or the Hello decoder.
func TestMutatedFramesRejected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, Frame{Type: MsgHello, Payload: EncodeHello(Hello{Version: Version})}); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	accepted := 0
	for pos := range valid {
		for bit := 0; bit < 8; bit++ {
			mutated := append([]byte(nil), valid...)
			mutated[pos] ^= 1 << bit
			f, _, err := ReadFrame(bytes.NewReader(mutated))
			if err != nil {
				continue
			}
			if h, err := DecodeHello(f.Payload); err == nil && f.Type == MsgHello && h.Version == Version && f.ReqID == 0 {
				accepted++
			}
		}
	}
	// Magic, type, request ID, payload and CRC are all checked, and a
	// CRC-32 catches every single-bit error in what it covers.
	if accepted != 0 {
		t.Errorf("%d/%d single-bit mutations accepted as a valid Hello", accepted, 8*len(valid))
	}
}

// TestFramedTruncationRejected: every strict prefix of a valid frame must
// fail cleanly, never hang or panic.
func TestFramedTruncationRejected(t *testing.T) {
	payload := EncodeEvalReq(EvalReq{ID: 42, Keys: []drbg.NodeKey{{1, 2}, {3}}})
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, Frame{Type: MsgEval, ReqID: 42, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for cut := 0; cut < len(valid); cut++ {
		if _, _, err := ReadFrame(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(valid))
		}
	}
	// The untruncated frame decodes and round-trips.
	f, n, err := ReadFrame(bytes.NewReader(valid))
	if err != nil || n != len(valid) {
		t.Fatalf("valid frame rejected: %v (consumed %d of %d)", err, n, len(valid))
	}
	if f.ReqID != 42 || f.Type != MsgEval {
		t.Fatalf("frame header mangled: %+v", f)
	}
	dec, err := DecodeEvalReq(f.Payload)
	if err != nil || dec.ID != 42 || len(dec.Keys) != 2 {
		t.Fatalf("frame payload mangled: %+v, %v", dec, err)
	}
}

// TestFramedMutationsRejected: single-bit flips anywhere in a request
// frame must be caught (magic, type, reqid, length or CRC checks).
func TestFramedMutationsRejected(t *testing.T) {
	payload := EncodeEvalReq(EvalReq{ID: 7, Keys: nil, Points: nil})
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, Frame{Type: MsgEval, ReqID: 7, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	r := rand.New(rand.NewSource(6))
	rejected := 0
	const trials = 500
	for i := 0; i < trials; i++ {
		mutated := append([]byte(nil), valid...)
		pos := r.Intn(len(mutated))
		mutated[pos] ^= byte(1 << r.Intn(8))
		f, _, err := ReadFrame(bytes.NewReader(mutated))
		if err != nil {
			rejected++
			continue
		}
		// A flip the framing cannot see must at least keep the request ID
		// honest or fail payload decode downstream.
		if _, derr := DecodeEvalReq(f.Payload); derr != nil {
			rejected++
		}
	}
	if rejected < trials-10 {
		t.Errorf("only %d/%d mutations rejected", rejected, trials)
	}
}

// TestInterleavedFramedStream: a stream carrying frames of every request
// and response type back to back must parse each frame intact and in
// order, exactly consuming the stream.
func TestInterleavedFramedStream(t *testing.T) {
	var buf bytes.Buffer
	type sent struct {
		typ   MsgType
		reqID uint64
	}
	types := []MsgType{MsgEval, MsgEvalResp, MsgFetch, MsgAck, MsgError}
	var want []sent
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		typ := types[i%len(types)]
		var payload []byte
		if typ == MsgEval {
			payload = EncodeEvalReq(EvalReq{ID: uint64(i), Keys: []drbg.NodeKey{{uint32(i)}}})
		} else {
			payload = EncodeAck(uint64(i))
		}
		id := r.Uint64()
		if _, err := WriteFrame(&buf, Frame{Type: typ, ReqID: id, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		want = append(want, sent{typ, id})
	}
	rd := bytes.NewReader(buf.Bytes())
	for i, w := range want {
		f, _, err := ReadFrame(rd)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != w.typ || f.ReqID != w.reqID {
			t.Fatalf("frame %d: got %+v, want %+v", i, f, w)
		}
		var id uint64
		if f.Type == MsgEval {
			dec, derr := DecodeEvalReq(f.Payload)
			id, err = dec.ID, derr
		} else {
			id, err = DecodeAck(f.Payload)
		}
		if err != nil || id != uint64(i) {
			t.Fatalf("frame %d payload: id %d, %v", i, id, err)
		}
	}
	if rd.Len() != 0 {
		t.Fatalf("%d trailing bytes after the last frame", rd.Len())
	}
}

// TestDecodeEncodedRandomMessages: round-trip stability under random but
// WELL-FORMED messages (complements the fuzz targets above).
func TestDecodeEncodedRandomMessages(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		req := EvalReq{ID: r.Uint64()}
		for k := 0; k < r.Intn(5); k++ {
			key := make([]uint32, r.Intn(4))
			for j := range key {
				key[j] = r.Uint32() % 1000
			}
			req.Keys = append(req.Keys, key)
		}
		dec, err := DecodeEvalReq(EncodeEvalReq(req))
		if err != nil {
			t.Fatalf("well-formed message rejected: %v", err)
		}
		if dec.ID != req.ID || len(dec.Keys) != len(req.Keys) {
			t.Fatal("round trip changed message")
		}
	}
}
