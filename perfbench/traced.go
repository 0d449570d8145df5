package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sssearch"
	"sssearch/internal/client"
	"sssearch/internal/coalesce"
	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/metrics"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/sharing"
	"sssearch/internal/store"
	"sssearch/internal/xpath"
)

// Span names. The read path has one span per query and one per call at
// each seam: D1 engine → client API, D2 daemon → store (the coalescer),
// D3 coalescer → server.Local. The write path has one span per call.
const (
	spanQuery   = "query"
	spanClient  = "client"  // D1
	spanDaemon  = "daemon"  // D2
	spanLocal   = "local"   // D3
	spanPublish = "publish" // parent of the write-path spans below
	spanEncode  = "polyenc.encode"
	spanSplit   = "sharing.split"
	spanSave    = "store.save"
	spanLoad    = "store.load"
	spanSwap    = "server.swap"
)

// span is one timed call at a layer seam. Start and End are nanoseconds
// since the tracer started. Parent and Query are 0 where the caller is
// not known: with several concurrent readers on one session, a seam call
// cannot be told apart by query from outside the program.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Query  uint64 `json:"query"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Keys   int    `json:"keys,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0 time.Time
	// linked is set when one reader is the only client: then every seam
	// call belongs to the query the reader has open, and each seam's open
	// span is the parent of the calls the layer below makes meanwhile.
	linked bool
	ids    atomic.Uint64
	// open[name] holds the ID of the span currently open at that seam
	// (linked mode only).
	open map[string]*atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer(linked bool) *tracer {
	t := &tracer{t0: time.Now(), linked: linked, open: map[string]*atomic.Uint64{}}
	for _, n := range []string{spanQuery, spanClient, spanDaemon, spanPublish} {
		t.open[n] = new(atomic.Uint64)
	}
	return t
}

// parentOf names the seam whose open span is the parent of a span.
var parentOf = map[string]string{
	spanClient: spanQuery, spanDaemon: spanClient, spanLocal: spanDaemon,
	spanEncode: spanPublish, spanSplit: spanPublish, spanSave: spanPublish,
	spanLoad: spanPublish, spanSwap: spanPublish,
}

// do times fn as a span called name. Write-path spans are always linked
// to their publish span: one owner goroutine runs them in sequence.
func (t *tracer) do(name, op string, keys int, fn func() error) error {
	s := span{ID: t.ids.Add(1), Name: name, Op: op, Keys: keys}
	write := name == spanPublish || parentOf[name] == spanPublish
	if t.linked || write {
		if p := t.open[parentOf[name]]; p != nil {
			s.Parent = p.Load()
		}
		if slot := t.open[name]; slot != nil {
			slot.Store(s.ID)
		}
		if !write {
			s.Query = t.open[spanQuery].Load()
		}
	}
	if name == spanQuery {
		s.Query = s.ID
	}
	start := time.Now()
	err := fn()
	end := time.Now()
	s.Start, s.End = int64(start.Sub(t.t0)), int64(end.Sub(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return err
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// seam is the timing decorator at a layer boundary: every call into the
// layer below becomes a span. It forwards core.CtxEvaler, so the layer
// above reaches the same methods below it as without the seam.
type seam struct {
	inner core.ServerAPI
	t     *tracer
	name  string
}

func (s *seam) EvalNodes(keys []drbg.NodeKey, points []*big.Int) (out []core.NodeEval, err error) {
	err = s.t.do(s.name, "eval", len(keys), func() error {
		out, err = s.inner.EvalNodes(keys, points)
		return err
	})
	return out, err
}

func (s *seam) EvalNodesCtx(ctx context.Context, keys []drbg.NodeKey, points []*big.Int) (out []core.NodeEval, err error) {
	err = s.t.do(s.name, "eval", len(keys), func() error {
		out, err = core.EvalNodesWithCtx(ctx, s.inner, keys, points)
		return err
	})
	return out, err
}

func (s *seam) FetchPolys(keys []drbg.NodeKey) (out []core.NodePoly, err error) {
	err = s.t.do(s.name, "fetch", len(keys), func() error {
		out, err = s.inner.FetchPolys(keys)
		return err
	})
	return out, err
}

func (s *seam) Prune(keys []drbg.NodeKey) error {
	return s.t.do(s.name, "prune", len(keys), func() error { return s.inner.Prune(keys) })
}

// storeSeam is a seam in front of a server.Store; it forwards Ring().
type storeSeam struct {
	seam
	store server.Store
}

func newStoreSeam(st server.Store, t *tracer, name string) *storeSeam {
	return &storeSeam{seam: seam{inner: st, t: t, name: name}, store: st}
}

func (s *storeSeam) Ring() ring.Ring { return s.store.Ring() }

var (
	_ core.CtxEvaler = (*seam)(nil)
	_ server.Store   = (*storeSeam)(nil)
	_ core.CtxEvaler = (*storeSeam)(nil)
)

// tracedStack is the same deployment as publicStack, assembled from the
// internal constructors sssearch calls, with a seam at D1, D2 and D3.
type tracedStack struct {
	in        *inputs
	t         *tracer
	storePath string

	r      ring.Ring
	seed   drbg.Seed
	m      *mapping.Map
	tree   *sharing.Tree
	daemon *server.Daemon
	done   chan error
	// served lists every Local and coalescer served so far, swapped-out
	// ones too, so their counters add up over a run.
	mu     sync.Mutex
	served []servedStore

	counters *metrics.Counters
	conn     interface{ Close() error }
	eng      *core.Engine

	write writeTimes
}

// writeTimes is one pass of the traced write path. save, load and swap
// stay zero in set-up, which serves the split tree directly.
type writeTimes struct {
	encode, split, save, load, swap time.Duration
	storeBytes                      int64
}

// timed runs fn inside a span called name and stores its duration in d.
func (t *tracer) timed(name string, d *time.Duration, fn func() error) error {
	t0 := time.Now()
	err := t.do(name, "", 0, fn)
	*d = time.Since(t0)
	return err
}

// tracedOutsource is sssearch.Outsource built from the internal
// constructors, with a span around encode and split.
func tracedOutsource(in *inputs, t *tracer, wt *writeTimes) (ring.Ring, *mapping.Map, *sharing.Tree, error) {
	r, err := ring.NewFpCyclotomic(big.NewInt(257))
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := mapping.New(r.MaxTag(), in.cfg.Secret)
	if err != nil {
		return nil, nil, nil, err
	}
	var enc *polyenc.Tree
	if err := t.timed(spanEncode, &wt.encode, func() (err error) {
		enc, err = polyenc.EncodeWithOpts(r, in.doc, m, polyenc.Opts{PackedOnly: true})
		return err
	}); err != nil {
		return nil, nil, nil, err
	}
	var tree *sharing.Tree
	if err := t.timed(spanSplit, &wt.split, func() (err error) {
		tree, err = sharing.SplitWithOpts(enc, in.cfg.Seed, sharing.SplitOpts{})
		return err
	}); err != nil {
		return nil, nil, nil, err
	}
	return r, m, tree, nil
}

// serveStore wraps tree the way ServeTCP and SwapStore do — Local under a
// coalescer — with seam D3 under the coalescer and seam D2 above it.
func (ts *tracedStack) serveStore(r ring.Ring, tree *sharing.Tree) (server.Store, error) {
	local, err := server.NewLocal(r, tree)
	if err != nil {
		return nil, err
	}
	co := coalesce.New(newStoreSeam(local, ts.t, spanLocal), nil)
	ts.mu.Lock()
	ts.served = append(ts.served, servedStore{local, co})
	ts.mu.Unlock()
	return newStoreSeam(co, ts.t, spanDaemon), nil
}

func setupTraced(in *inputs, dir string, t *tracer) (ts *tracedStack, err error) {
	ts = &tracedStack{in: in, t: t, storePath: filepath.Join(dir, "traced.sss"), seed: in.cfg.Seed}
	defer func() {
		if err != nil {
			ts.close()
		}
	}()
	err = t.do(spanPublish, "", 0, func() (err error) {
		ts.r, ts.m, ts.tree, err = tracedOutsource(in, t, &ts.write)
		return err
	})
	if err != nil {
		return ts, fmt.Errorf("traced outsource: %w", err)
	}
	ts.write.storeBytes = int64(ts.tree.ByteSize())
	st, err := ts.serveStore(ts.r, ts.tree)
	if err != nil {
		return ts, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ts, err
	}
	ts.daemon = server.NewDaemon(st, nil)
	ts.done = make(chan error, 1)
	go func() { ts.done <- ts.daemon.Serve(l) }()

	addr := l.Addr().String()
	ts.counters = &metrics.Counters{}
	var api core.ServerAPI
	if in.spec.pool {
		p, err := client.DialPool(addr, in.spec.readers, ts.counters)
		if err != nil {
			return ts, err
		}
		ts.conn, api = p, client.NewBatcher(p, ts.counters)
	} else {
		rem, err := client.Dial(addr, ts.counters)
		if err != nil {
			return ts, err
		}
		ts.conn, api = rem, rem
	}
	// The session ring comes from the key's parameters, as in sssearch.
	sr, err := ring.FromParams(ts.r.Params())
	if err != nil {
		return ts, err
	}
	ts.eng = core.NewEngineShared(sr, ts.seed, ts.m, &seam{inner: api, t: t, name: spanClient}, ts.counters, sharing.NewSharedPadCache(sr, ts.seed))
	return ts, nil
}

// search mirrors sssearch.Session.Search on the traced engine, inside a
// query span.
func (ts *tracedStack) search(q string) (matches []sssearch.NodeKey, stats sssearch.Stats, err error) {
	err = ts.t.do(spanQuery, "", 0, func() error {
		pq, err := xpath.Parse(q)
		if err != nil {
			return err
		}
		res, err := ts.eng.Query(pq, core.Opts{Verify: core.VerifyResolve})
		if errors.Is(err, core.ErrUnknownTag) {
			return nil
		}
		if err != nil {
			return err
		}
		matches, stats = res.Matches, res.Stats
		return nil
	})
	return matches, stats, err
}

type servedStore struct {
	local *server.Local
	co    *coalesce.Server
}

// serverCounters sums the eval-cache tallies of every Local and the
// coalescing tallies of every coalescer served so far.
func (ts *tracedStack) serverCounters() (local, co metrics.Snapshot) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, s := range ts.served {
		local = local.Add(s.local.Counters().Snapshot())
		co = co.Add(s.co.Counters().Snapshot())
	}
	return local, co
}

// close mirrors publicStack.close: connections, then a bounded graceful
// shutdown that also waits for Serve to return, then the store file.
// Closing twice is harmless.
func (ts *tracedStack) close() error {
	var errs []error
	if ts.conn != nil {
		errs = append(errs, ts.conn.Close())
		ts.conn = nil
	}
	if ts.daemon != nil {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		errs = append(errs, ts.daemon.Shutdown(ctx))
		cancel()
		<-ts.done
		ts.daemon = nil
	}
	errs = append(errs, removeIfExists(ts.storePath))
	return errors.Join(errs...)
}

// tracedPublish is one owner iteration on the traced stack, under one
// publish span: the traced Outsource, then store.SaveServer,
// store.LoadServer and the swap, each in its own span. The saved store
// must equal want byte for byte.
func (ts *tracedStack) tracedPublish(path string, want []byte) (wt writeTimes, err error) {
	err = ts.t.do(spanPublish, "", 0, func() error {
		r, _, tree, err := tracedOutsource(ts.in, ts.t, &wt)
		if err != nil {
			return err
		}
		if err := ts.t.timed(spanSave, &wt.save, func() error { return store.SaveServer(path, r, tree) }); err != nil {
			return err
		}
		if err := ts.t.timed(spanLoad, &wt.load, func() (err error) {
			r, tree, err = store.LoadServer(path)
			return err
		}); err != nil {
			return err
		}
		return ts.t.timed(spanSwap, &wt.swap, func() error {
			st, err := ts.serveStore(r, tree)
			if err != nil {
				return err
			}
			_, err = ts.daemon.SwapStore(st)
			return err
		})
	})
	if err != nil {
		return wt, err
	}
	got, err := os.ReadFile(path)
	if err != nil {
		return wt, err
	}
	if !bytes.Equal(got, want) {
		return wt, errStoreMismatch
	}
	wt.storeBytes = int64(len(got))
	return wt, nil
}

// tracedOwnerResult is what the traced owner loop measured.
type tracedOwnerResult struct {
	writes            []writeTimes
	attempted, failed int
}

// tracedOwner is publicOwner on the traced stack.
func tracedOwner(ts *tracedStack, deadline time.Time) (tracedOwnerResult, error) {
	var res tracedOwnerResult
	if err := store.SaveServer(ts.storePath, ts.r, ts.tree); err != nil {
		return res, err
	}
	want, err := os.ReadFile(ts.storePath)
	if err != nil {
		return res, err
	}
	path := filepath.Join(filepath.Dir(ts.storePath), "traced-publish.sss")
	defer os.Remove(path)
	for due := time.Now(); due.Before(deadline); due = due.Add(publishPeriod) {
		waitUntil(due)
		res.attempted++
		wt, err := ts.tracedPublish(path, want)
		if errors.Is(err, errStoreMismatch) {
			return res, err
		}
		if err != nil {
			res.failed++
			continue
		}
		res.writes = append(res.writes, wt)
	}
	return res, nil
}
