package wire

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"runtime"
	"testing"
	"time"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/poly"
	"sssearch/internal/ring"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []Frame{
		{Type: MsgHello, Payload: []byte{1, 2, 3}},
		{Type: MsgBye, ReqID: 1<<64 - 1, Payload: nil},
		{Type: MsgEval, ReqID: 42, Payload: bytes.Repeat([]byte{0xAB}, 10000)},
		{Type: MsgFetchResp, ReqID: 7, Payload: bytes.Repeat([]byte{0xCD}, maxPooledBuf)},
	}
	for _, f := range frames {
		wn, err := WriteFrame(&buf, f)
		if err != nil {
			t.Fatal(err)
		}
		if wn != headerLen+len(f.Payload)+4 {
			t.Errorf("wrote %d bytes for a %d-byte payload", wn, len(f.Payload))
		}
		got, rn, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if wn != rn {
			t.Errorf("wrote %d read %d bytes", wn, rn)
		}
		if got.Type != f.Type || got.ReqID != f.ReqID || !bytes.Equal(got.Payload, f.Payload) {
			t.Errorf("frame changed in transit")
		}
	}
}

func TestFrameCorruption(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, Frame{Type: MsgEval, ReqID: 3, Payload: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip a payload byte → checksum failure.
	bad := append([]byte(nil), raw...)
	bad[headerLen+1] ^= 0xFF
	if _, _, err := ReadFrame(bytes.NewReader(bad)); err != ErrChecksum {
		t.Errorf("corrupted payload: err = %v, want ErrChecksum", err)
	}
	// Flip a request-ID byte → the CRC covers the header too.
	badID := append([]byte(nil), raw...)
	badID[5] ^= 0x01
	if _, _, err := ReadFrame(bytes.NewReader(badID)); err != ErrChecksum {
		t.Errorf("corrupted request ID: err = %v, want ErrChecksum", err)
	}
	// Bad magic.
	bad2 := append([]byte(nil), raw...)
	bad2[0] = 0x00
	if _, _, err := ReadFrame(bytes.NewReader(bad2)); err != ErrBadMagic {
		t.Errorf("bad magic: err = %v", err)
	}
	// Truncated stream.
	if _, _, err := ReadFrame(bytes.NewReader(raw[:5])); err == nil {
		t.Error("truncated header accepted")
	}
	if _, _, err := ReadFrame(bytes.NewReader(raw[:headerLen+2])); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, _, err := ReadFrame(bytes.NewReader(raw[:len(raw)-1])); err == nil {
		t.Error("truncated checksum accepted")
	}
	// Oversized frame declared in header.
	huge := append([]byte(nil), raw[:headerLen]...)
	huge[11], huge[12], huge[13], huge[14] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := ReadFrame(bytes.NewReader(huge)); err != ErrFrameTooLarge {
		t.Errorf("oversized frame: err = %v", err)
	}
	if _, err := WriteFrame(&buf, Frame{Payload: make([]byte, MaxFrameSize+1)}); err != ErrFrameTooLarge {
		t.Errorf("oversized write: err = %v", err)
	}
}

func TestKeyCodec(t *testing.T) {
	keys := []drbg.NodeKey{{}, {0}, {1, 2, 3}, {4294967295}}
	for _, k := range keys {
		data := AppendKey(nil, k)
		got, rest, err := DecodeKey(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 || got.String() != k.String() {
			t.Errorf("key %v round trip failed: %v", k, got)
		}
	}
	list := AppendKeys(nil, keys)
	got, rest, err := DecodeKeys(list)
	if err != nil || len(rest) != 0 || len(got) != len(keys) {
		t.Fatalf("keys list: %v %v %v", got, rest, err)
	}
	if _, _, err := DecodeKey([]byte{}); err == nil {
		t.Error("empty key input accepted")
	}
	if _, _, err := DecodeKeys([]byte{0x02, 0x01}); err == nil {
		t.Error("truncated key list accepted")
	}
}

func TestBigCodec(t *testing.T) {
	vals := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(-1),
		big.NewInt(1 << 40), new(big.Int).Neg(new(big.Int).Lsh(big.NewInt(1), 200)),
	}
	for _, v := range vals {
		data := AppendBig(nil, v)
		got, rest, err := DecodeBig(data)
		if err != nil || len(rest) != 0 {
			t.Fatalf("big %v: %v %v", v, got, err)
		}
		if got.Cmp(v) != 0 {
			t.Errorf("big %v round trip gave %v", v, got)
		}
	}
	list := AppendBigs(nil, vals)
	got, rest, err := DecodeBigs(list)
	if err != nil || len(rest) != 0 || len(got) != len(vals) {
		t.Fatal("bigs list broken")
	}
	if _, _, err := DecodeBig(nil); err == nil {
		t.Error("empty big accepted")
	}
	if _, _, err := DecodeBig([]byte{9}); err == nil {
		t.Error("bad sign accepted")
	}
}

func TestStringCodec(t *testing.T) {
	for _, s := range []string{"", "hi", "üñíçødé"} {
		data := AppendString(nil, s)
		got, rest, err := DecodeString(data)
		if err != nil || len(rest) != 0 || got != s {
			t.Errorf("string %q: got %q err %v", s, got, err)
		}
	}
	if _, _, err := DecodeString([]byte{0x05, 'a'}); err == nil {
		t.Error("truncated string accepted")
	}
}

func TestHelloMessages(t *testing.T) {
	h, err := DecodeHello(EncodeHello(Hello{Version: 7}))
	if err != nil || h.Version != 7 {
		t.Fatal("hello round trip failed")
	}
	params := ring.MustFp(101).Params()
	payload, err := EncodeHelloAck(HelloAck{Version: Version, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	ack, err := DecodeHelloAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Version != Version || ack.Params.Kind != ring.KindFpCyclotomic || ack.Params.P.Int64() != 101 {
		t.Errorf("hello ack = %+v", ack)
	}
	zparams := ring.MustIntQuotient(1, 0, 1).Params()
	payload, _ = EncodeHelloAck(HelloAck{Version: Version, Params: zparams})
	ack, err = DecodeHelloAck(payload)
	if err != nil || ack.Params.Kind != ring.KindIntQuotient {
		t.Errorf("Z hello ack: %v %v", ack, err)
	}
	if _, err := DecodeHello(nil); err == nil {
		t.Error("empty hello accepted")
	}
}

// TestHandshakeDecodersRejectMalformed: a version varint wider than 32
// bits must not truncate to a valid version, and the fixed-size Hello and
// Ack payloads must end where their last field does.
func TestHandshakeDecodersRejectMalformed(t *testing.T) {
	wide := binary.AppendUvarint(nil, 1<<32+uint64(Version))
	if h, err := DecodeHello(wide); err == nil {
		t.Errorf("hello version 2^32+%d decoded as %d", Version, h.Version)
	}
	ackPayload, err := EncodeHelloAck(HelloAck{Version: Version, Params: ring.MustFp(101).Params()})
	if err != nil {
		t.Fatal(err)
	}
	_, k := binary.Uvarint(ackPayload)
	wideAck := append(append([]byte(nil), wide...), ackPayload[k:]...)
	if a, err := DecodeHelloAck(wideAck); err == nil {
		t.Errorf("hello ack version 2^32+%d decoded as %d", Version, a.Version)
	}
	if _, err := DecodeHello(append(EncodeHello(Hello{Version: Version}), 0x00)); err == nil {
		t.Error("trailing bytes after hello accepted")
	}
	if _, err := DecodeAck(append(EncodeAck(77), 0x00)); err == nil {
		t.Error("trailing bytes after ack accepted")
	}
	// The largest 32-bit version still decodes exactly.
	if h, err := DecodeHello(EncodeHello(Hello{Version: 1<<32 - 1})); err != nil || h.Version != 1<<32-1 {
		t.Errorf("max 32-bit version: %+v %v", h, err)
	}
}

func TestEvalMessages(t *testing.T) {
	req := EvalReq{
		ID:     42,
		Keys:   []drbg.NodeKey{{}, {1, 2}},
		Points: []*big.Int{big.NewInt(2), big.NewInt(5)},
	}
	dec, err := DecodeEvalReq(EncodeEvalReq(req))
	if err != nil {
		t.Fatal(err)
	}
	if dec.ID != 42 || len(dec.Keys) != 2 || len(dec.Points) != 2 {
		t.Errorf("eval req = %+v", dec)
	}
	resp := EvalResp{
		ID: 42,
		Answers: []core.NodeEval{
			{Key: drbg.NodeKey{}, NumChildren: 2, Values: []*big.Int{big.NewInt(0), big.NewInt(3)}},
			{Key: drbg.NodeKey{0}, NumChildren: 0, Values: []*big.Int{big.NewInt(4), big.NewInt(1)}},
		},
	}
	decR, err := DecodeEvalResp(EncodeEvalResp(resp))
	if err != nil {
		t.Fatal(err)
	}
	if decR.ID != 42 || len(decR.Answers) != 2 {
		t.Fatalf("eval resp = %+v", decR)
	}
	if decR.Answers[0].NumChildren != 2 || decR.Answers[0].Values[1].Int64() != 3 {
		t.Errorf("answer 0 = %+v", decR.Answers[0])
	}
	if _, err := DecodeEvalResp([]byte{0x01}); err == nil {
		t.Error("truncated eval resp accepted")
	}
	// Trailing bytes rejected.
	if _, err := DecodeEvalReq(append(EncodeEvalReq(req), 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestFetchMessages(t *testing.T) {
	req := FetchReq{ID: 9, Keys: []drbg.NodeKey{{0, 1}}}
	dec, err := DecodeFetchReq(EncodeFetchReq(req))
	if err != nil || dec.ID != 9 || len(dec.Keys) != 1 {
		t.Fatalf("fetch req: %+v %v", dec, err)
	}
	resp := FetchResp{
		ID: 9,
		Answers: []core.NodePoly{
			{Key: drbg.NodeKey{0, 1}, NumChildren: 3, Poly: poly.FromInt64(45, 265)},
		},
	}
	payload, err := EncodeFetchResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	decR, err := DecodeFetchResp(payload)
	if err != nil {
		t.Fatal(err)
	}
	if decR.Answers[0].NumChildren != 3 || !decR.Answers[0].Polynomial().Equal(poly.FromInt64(45, 265)) {
		t.Errorf("fetch resp = %+v", decR.Answers[0])
	}
}

func TestPruneAckError(t *testing.T) {
	p := PruneReq{ID: 3, Keys: []drbg.NodeKey{{5}}}
	dec, err := DecodePruneReq(EncodePruneReq(p))
	if err != nil || dec.ID != 3 {
		t.Fatal("prune round trip failed")
	}
	id, err := DecodeAck(EncodeAck(77))
	if err != nil || id != 77 {
		t.Fatal("ack round trip failed")
	}
	e, err := DecodeError(EncodeError(ErrorMsg{ID: 5, Message: "boom"}))
	if err != nil || e.ID != 5 || e.Message != "boom" {
		t.Fatal("error round trip failed")
	}
	re := &RemoteError{ID: 5, Message: "boom"}
	if re.Error() == "" {
		t.Error("empty error string")
	}
}

// tail returns the fixed request tail: deadline, trace ID, flags.
func tail(millis, traceID, flags uint64) []byte {
	out := binary.AppendUvarint(nil, millis)
	out = binary.AppendUvarint(out, traceID)
	return binary.AppendUvarint(out, flags)
}

func TestV3RequestDeadlines(t *testing.T) {
	// Every request ends with the deadline budget, trace ID and trace
	// flags, written even when zero and required on decode.
	req := EvalReq{
		ID:            7,
		Keys:          []drbg.NodeKey{{1}},
		Points:        []*big.Int{big.NewInt(3)},
		TimeoutMillis: 1500,
	}
	body := binary.AppendUvarint(nil, 7)
	body = AppendKeys(body, req.Keys)
	body = AppendBigs(body, req.Points)
	if got, want := EncodeEvalReq(req), append(body, tail(1500, 0, 0)...); !bytes.Equal(got, want) {
		t.Fatalf("eval layout:\n got %x\nwant %x", got, want)
	}
	dec, err := DecodeEvalReq(EncodeEvalReq(req))
	if err != nil || dec.TimeoutMillis != 1500 || dec.TraceID != 0 || dec.TraceSampled {
		t.Fatalf("eval deadline round trip: %+v %v", dec, err)
	}
	req.TimeoutMillis = 0
	if got, want := EncodeEvalReq(req), append(body, tail(0, 0, 0)...); !bytes.Equal(got, want) {
		t.Fatalf("zero tail not written:\n got %x\nwant %x", got, want)
	}
	// A body with the tail missing, or cut after any of its fields, is
	// rejected.
	for cut := 0; cut < 3; cut++ {
		short := append(append([]byte(nil), body...), tail(0, 0, 0)[:cut]...)
		if _, err := DecodeEvalReq(short); err == nil {
			t.Errorf("eval request with %d of 3 tail fields accepted", cut)
		}
	}

	keys := []drbg.NodeKey{{2}}
	fbody := AppendKeys(binary.AppendUvarint(nil, 8), keys)
	if got, want := EncodeFetchReq(FetchReq{ID: 8, Keys: keys, TimeoutMillis: 250}), append(fbody, tail(250, 0, 0)...); !bytes.Equal(got, want) {
		t.Fatalf("fetch layout:\n got %x\nwant %x", got, want)
	}
	if _, err := DecodeFetchReq(fbody); err == nil {
		t.Error("fetch request without tail accepted")
	}
	f, err := DecodeFetchReq(EncodeFetchReq(FetchReq{ID: 8, Keys: keys, TimeoutMillis: 250}))
	if err != nil || f.TimeoutMillis != 250 {
		t.Fatalf("fetch deadline round trip: %+v %v", f, err)
	}
	pbody := AppendKeys(binary.AppendUvarint(nil, 9), keys)
	if got, want := EncodePruneReq(PruneReq{ID: 9, Keys: keys, TimeoutMillis: 10}), append(pbody, tail(10, 0, 0)...); !bytes.Equal(got, want) {
		t.Fatalf("prune layout:\n got %x\nwant %x", got, want)
	}
	if _, err := DecodePruneReq(pbody); err == nil {
		t.Error("prune request without tail accepted")
	}
	p, err := DecodePruneReq(EncodePruneReq(PruneReq{ID: 9, Keys: keys, TimeoutMillis: 10}))
	if err != nil || p.TimeoutMillis != 10 {
		t.Fatalf("prune deadline round trip: %+v %v", p, err)
	}
	// Garbage after the tail is rejected.
	if _, err := DecodeEvalReq(append(EncodeEvalReq(req), 0x01)); err == nil {
		t.Error("trailing bytes after tail accepted")
	}
}

func TestV3RequestTrace(t *testing.T) {
	// A traced request round-trips trace ID + sampled flag on all three
	// request types, with and without a deadline budget.
	req := EvalReq{
		ID:           7,
		Keys:         []drbg.NodeKey{{1}},
		Points:       []*big.Int{big.NewInt(3)},
		TraceID:      0xdeadbeefcafef00d,
		TraceSampled: true,
	}
	dec, err := DecodeEvalReq(EncodeEvalReq(req))
	if err != nil || dec.TraceID != req.TraceID || !dec.TraceSampled || dec.TimeoutMillis != 0 {
		t.Fatalf("eval trace round trip: %+v %v", dec, err)
	}
	untraced := req
	untraced.TraceID, untraced.TraceSampled = 0, false
	body := EncodeEvalReq(untraced)
	body = body[:len(body)-3] // strip the all-zero tail
	if got, want := EncodeEvalReq(req), append(body, tail(0, req.TraceID, 1)...); !bytes.Equal(got, want) {
		t.Fatalf("trace layout:\n got %x\nwant %x", got, want)
	}
	// Trace + deadline together.
	req.TimeoutMillis = 1500
	if got, want := EncodeEvalReq(req), append(body, tail(1500, req.TraceID, 1)...); !bytes.Equal(got, want) {
		t.Fatalf("trace+deadline layout:\n got %x\nwant %x", got, want)
	}
	dec, err = DecodeEvalReq(EncodeEvalReq(req))
	if err != nil || dec.TraceID != req.TraceID || !dec.TraceSampled || dec.TimeoutMillis != 1500 {
		t.Fatalf("eval trace+deadline round trip: %+v %v", dec, err)
	}

	f, err := DecodeFetchReq(EncodeFetchReq(FetchReq{ID: 8, Keys: []drbg.NodeKey{{2}}, TraceID: 42, TraceSampled: true}))
	if err != nil || f.TraceID != 42 || !f.TraceSampled {
		t.Fatalf("fetch trace round trip: %+v %v", f, err)
	}
	p, err := DecodePruneReq(EncodePruneReq(PruneReq{ID: 9, Keys: []drbg.NodeKey{{3}}, TimeoutMillis: 10, TraceID: 43, TraceSampled: true}))
	if err != nil || p.TraceID != 43 || !p.TraceSampled || p.TimeoutMillis != 10 {
		t.Fatalf("prune trace round trip: %+v %v", p, err)
	}
	// Garbage after the trace flags varint is rejected.
	if _, err := DecodeEvalReq(append(EncodeEvalReq(req), 0x01)); err == nil {
		t.Error("trailing bytes after trace accepted")
	}
}

func TestTypedErrorCodec(t *testing.T) {
	// Layout: id, message, code, retry-after — all four always written.
	shed := ErrorMsg{ID: 11, Message: "shed", Code: CodeOverloaded, RetryAfterMillis: 5}
	want := AppendString(binary.AppendUvarint(nil, 11), "shed")
	want = append(want, byte(CodeOverloaded), 5)
	if got := EncodeError(shed); !bytes.Equal(got, want) {
		t.Fatalf("typed error layout:\n got %x\nwant %x", got, want)
	}
	dec, err := DecodeError(EncodeError(shed))
	if err != nil || dec != shed {
		t.Fatalf("typed error round trip: %+v %v", dec, err)
	}
	plain := ErrorMsg{ID: 11, Message: "shed"}
	want = AppendString(binary.AppendUvarint(nil, 11), "shed")
	if got := EncodeError(plain); !bytes.Equal(got, append(want, 0, 0)) {
		t.Fatalf("generic error layout: %x", got)
	}
	dec2, err := DecodeError(EncodeError(plain))
	if err != nil || dec2 != plain {
		t.Fatalf("generic error round trip: %+v %v", dec2, err)
	}
	// Code and retry-after are required.
	if _, err := DecodeError(want); err == nil {
		t.Error("error without code accepted")
	}
	if _, err := DecodeError(append(want, 0x01)); err == nil {
		t.Error("error without retry-after accepted")
	}
	if _, err := DecodeError(append(want, 0x01, 0x80)); err == nil {
		t.Error("truncated retry-after accepted")
	}
	if _, err := DecodeError(append(want, 0x01, 0x00, 0x00)); err == nil {
		t.Error("trailing bytes after retry-after accepted")
	}
	wideCode := binary.AppendUvarint(append([]byte(nil), want...), 1<<32+uint64(CodeOverloaded))
	if e, err := DecodeError(append(wideCode, 0)); err == nil {
		t.Errorf("error code 2^32+1 decoded as %d", e.Code)
	}
}

func TestRemoteErrorHints(t *testing.T) {
	shed := &RemoteError{ID: 1, Message: "shed", Code: CodeOverloaded, RetryAfter: 5 * time.Millisecond}
	if !shed.Overloaded() || !shed.RetryableHint() {
		t.Error("shed error must be retryable")
	}
	if d, ok := shed.RetryAfterHint(); !ok || d != 5*time.Millisecond {
		t.Errorf("retry-after hint = %v %v", d, ok)
	}
	generic := &RemoteError{ID: 2, Message: "bad key"}
	if generic.Overloaded() || generic.RetryableHint() {
		t.Error("generic remote error must stay terminal")
	}
	if _, ok := generic.RetryAfterHint(); ok {
		t.Error("generic remote error must carry no hint")
	}
	expired := &RemoteError{ID: 3, Message: "late", Code: CodeDeadlineExpired}
	if expired.RetryableHint() {
		t.Error("deadline-expired must not be blindly retryable")
	}
	for _, e := range []*RemoteError{shed, generic, expired} {
		if e.Error() == "" {
			t.Error("empty error string")
		}
	}
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	payload := EncodeEvalResp(EvalResp{
		ID: 1,
		Answers: []core.NodeEval{
			{Key: drbg.NodeKey{1, 2, 3}, NumChildren: 4, Values: []*big.Int{big.NewInt(12345)}},
		},
	})
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := WriteFrame(&buf, Frame{Type: MsgEvalResp, ReqID: 1, Payload: payload}); err != nil {
			b.Fatal(err)
		}
		if _, _, err := ReadFrame(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeKeyBoundsAllocation: a declared key depth the data cannot
// back is rejected before the key is allocated; allocating first would
// let three bytes declaring depth 65536 cost 256 KiB per call.
func TestDecodeKeyBoundsAllocation(t *testing.T) {
	data := []byte{0x80, 0x80, 0x04} // uvarint 65536, no components
	if _, _, err := DecodeKey(data); err == nil {
		t.Fatal("key depth beyond the data accepted")
	}
	const calls = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		DecodeKey(data)
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall > 1024 {
		t.Fatalf("DecodeKey allocated %d B per call for a 3-byte input", perCall)
	}
	// A key whose components are all present still decodes.
	key := drbg.NodeKey{3, 1, 4, 1, 5}
	got, rest, err := DecodeKey(AppendKey(nil, key))
	if err != nil || got.String() != key.String() || len(rest) != 0 {
		t.Fatalf("round trip: got %v rest %d err %v", got, len(rest), err)
	}
}
