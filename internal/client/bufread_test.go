package client_test

import (
	"net"
	"sync/atomic"
	"testing"

	"sssearch/internal/client"
	"sssearch/internal/drbg"
	"sssearch/internal/server"
	"sssearch/internal/workload"
)

// countingConn counts Read calls on its side of a connection.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// TestFrameReadsBuffered: both ends read frames through one buffered
// reader per connection. A frame is magic, header, payload and CRC — four
// Read calls on a raw connection — so a lockstep exchange must average
// well under two Reads per frame on each side.
func TestFrameReadsBuffered(t *testing.T) {
	w := buildWorld(t, workload.RandomTree(workload.TreeConfig{Nodes: 30, MaxFanout: 3, Vocab: 6, Seed: 5}))
	cli, srv := net.Pipe()
	cc, sc := &countingConn{Conn: cli}, &countingConn{Conn: srv}
	d := server.NewDaemon(w.local, nil)
	done := make(chan error, 1)
	go func() { done <- d.HandleConn(sc) }()
	r, err := client.NewRemote(cc, nil)
	if err != nil {
		t.Fatal(err)
	}
	const calls = 40
	for i := 0; i < calls; i++ {
		if _, err := r.EvalNodes([]drbg.NodeKey{w.keys[i%len(w.keys)]}, pts(2)); err != nil {
			t.Fatal(err)
		}
	}
	// Hello + calls requests reached the daemon; HelloAck + calls
	// responses reached the client. Each side may also be blocked in one
	// more Read for the next frame.
	frames := int64(calls + 1)
	clientReads := cc.reads.Load()
	serverReads := sc.reads.Load()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	for _, side := range []struct {
		name  string
		reads int64
	}{{"client", clientReads}, {"daemon", serverReads}} {
		if side.reads > 2*frames {
			t.Errorf("%s: %d Reads for %d frames (want < 2 per frame)", side.name, side.reads, frames)
		}
		t.Logf("%s: %d Reads for %d frames", side.name, side.reads, frames)
	}
}
