package server

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"sssearch/internal/client"
	"sssearch/internal/wire"
)

// rejectHello sends a raw Hello carrying version over conn and returns the
// daemon's reply, which must be an ErrorMsg.
func rejectHello(conn net.Conn, version uint32) (wire.ErrorMsg, error) {
	if _, err := wire.WriteFrame(conn, wire.Frame{Type: wire.MsgHello, Payload: wire.EncodeHello(wire.Hello{Version: version})}); err != nil {
		return wire.ErrorMsg{}, err
	}
	f, _, err := wire.ReadFrame(conn)
	if err != nil {
		return wire.ErrorMsg{}, fmt.Errorf("version %d: reading handshake reply: %w", version, err)
	}
	if f.Type != wire.MsgError {
		return wire.ErrorMsg{}, fmt.Errorf("version %d: handshake reply %s, want Error", version, f.Type)
	}
	return wire.DecodeError(f.Payload)
}

// TestHelloUnsupportedVersionRejected: a Hello carrying any version other
// than wire.Version gets the typed unsupported-version error, after which
// the daemon closes the connection and HandleConn returns.
func TestHelloUnsupportedVersionRejected(t *testing.T) {
	local, _ := buildLocalStore(t)
	d := NewDaemon(local, nil)
	for _, v := range []uint32{1, 2, 0} {
		srv, cli := net.Pipe()
		served := make(chan error, 1)
		go func() { served <- d.HandleConn(srv) }()
		em, err := rejectHello(cli, v)
		if err != nil {
			t.Fatal(err)
		}
		if em.Code != wire.CodeUnsupportedVersion {
			t.Errorf("version %d: error code %d, want CodeUnsupportedVersion (%q)", v, em.Code, em.Message)
		}
		select {
		case err := <-served:
			if err == nil {
				t.Errorf("version %d: HandleConn returned nil, want the rejection", v)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("version %d: HandleConn did not return", v)
		}
		if _, _, err := wire.ReadFrame(cli); err == nil {
			t.Errorf("version %d: connection still open after the rejection", v)
		}
		cli.Close()
	}
}

// TestDialFailsOnceOnVersionRejection: a client whose Hello the daemon
// rejects gets the typed error from Dial after exactly one connection —
// there is no downgrade redial. The listener stands in for a daemon of a
// different protocol version: it forwards each connection to HandleConn
// with the Hello's version rewritten to one the daemon rejects.
func TestDialFailsOnceOnVersionRejection(t *testing.T) {
	local, _ := buildLocalStore(t)
	d := NewDaemon(local, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int32
	proxyErr := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			if _, _, err := wire.ReadFrame(conn); err != nil { // the client's Hello
				conn.Close()
				continue
			}
			srv, toDaemon := net.Pipe()
			go d.HandleConn(srv)
			em, err := rejectHello(toDaemon, wire.Version+1)
			toDaemon.Close()
			if err != nil {
				proxyErr <- err
				conn.Close()
				continue
			}
			_, _ = wire.WriteFrame(conn, wire.Frame{Type: wire.MsgError, Payload: wire.EncodeError(em)})
			conn.Close()
		}
	}()

	r, err := client.Dial(l.Addr().String(), nil)
	if err == nil {
		r.Close()
		t.Fatal("Dial succeeded against a daemon rejecting its version")
	}
	l.Close()
	<-done
	select {
	case err := <-proxyErr:
		t.Fatal(err)
	default:
	}
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeUnsupportedVersion {
		t.Fatalf("Dial error %v, want a RemoteError with CodeUnsupportedVersion", err)
	}
	if n := accepted.Load(); n != 1 {
		t.Fatalf("Dial opened %d connections, want exactly 1 (no redial)", n)
	}
}
