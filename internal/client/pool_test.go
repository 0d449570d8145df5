package client

import (
	"errors"
	"math"
	"math/big"
	"net"
	"strings"
	"testing"

	"sssearch/internal/drbg"
	"sssearch/internal/ring"
	"sssearch/internal/wire"
)

// TestPoolPickCounterOverflow: the round-robin index must stay in range
// when the uint64 counter wraps. Converting the counter to int before
// the modulo went negative past MaxInt (and panicked with an
// out-of-range index); the fix reduces in uint64 first. The counter is
// pre-seeded to the wrap boundary so the test crosses it immediately.
func TestPoolPickCounterOverflow(t *testing.T) {
	p, err := NewPool([]*Remote{{}, {}, {}})
	if err != nil {
		t.Fatal(err)
	}
	p.next.Store(math.MaxUint64 - 1)
	seen := make(map[*poolMember]int)
	for i := 0; i < 3*4; i++ {
		m, err := p.pick() // panics on the old int conversion
		if err != nil {
			t.Fatalf("pick failed: %v", err)
		}
		seen[m]++
	}
	// Round-robin must keep touching every slot across the wrap. The wrap
	// itself skews the distribution (2^64 is not a multiple of 3), so
	// assert coverage, not exact counts.
	for i, m := range p.members {
		if seen[m] == 0 {
			t.Errorf("slot %d never picked across the counter wrap", i)
		}
	}
}

// TestNewPoolRejectsNil: a nil session would crash on first pick; the
// constructor must reject it with the offending slot.
func TestNewPoolRejectsNil(t *testing.T) {
	if _, err := NewPool(nil); err == nil {
		t.Error("NewPool(nil) succeeded")
	}
	if _, err := NewPool([]*Remote{}); err == nil {
		t.Error("NewPool(empty) succeeded")
	}
	if _, err := NewPool([]*Remote{{}, nil, {}}); err == nil {
		t.Error("NewPool with a nil slot succeeded")
	}
	p, err := NewPool([]*Remote{{}, {}})
	if err != nil {
		t.Fatalf("NewPool rejected a valid slice: %v", err)
	}
	if p.Size() != 2 {
		t.Fatalf("Size = %d, want 2", p.Size())
	}
}

// dropAfterHandshake serves one end of a pipe: it accepts the Hello,
// then closes the connection as soon as a request arrives — a member
// that fails every call with a transport fault.
func dropAfterHandshake(t *testing.T, conn net.Conn) {
	defer conn.Close()
	if _, _, err := wire.ReadFrame(conn); err != nil {
		return
	}
	ack, err := wire.EncodeHelloAck(wire.HelloAck{Version: wire.Version, Params: ring.MustFp(257).Params()})
	if err != nil {
		t.Error(err)
		return
	}
	if _, err := wire.WriteFrame(conn, wire.Frame{Type: wire.MsgHelloAck, Payload: ack}); err != nil {
		return
	}
	_, _, _ = wire.ReadFrame(conn)
}

// TestPoolExhaustedMatchesNoHealthyMembers: when every member fails with
// a transport fault in one pass, the pool's error must match
// ErrNoHealthyMembers (the class callers retry on) and still wrap the
// last transport error.
func TestPoolExhaustedMatchesNoHealthyMembers(t *testing.T) {
	var remotes []*Remote
	for i := 0; i < 3; i++ {
		cli, srv := net.Pipe()
		go dropAfterHandshake(t, srv)
		r, err := NewRemote(cli, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		remotes = append(remotes, r)
	}
	p, err := NewPool(remotes)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.EvalNodes([]drbg.NodeKey{{}}, []*big.Int{big.NewInt(3)})
	if !errors.Is(err, ErrNoHealthyMembers) {
		t.Fatalf("error %v does not match ErrNoHealthyMembers", err)
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("error %v does not wrap the last transport error", err)
	}
	if !strings.Contains(err.Error(), "pool members exhausted") {
		t.Fatalf("error %v does not say the members were exhausted", err)
	}
}
