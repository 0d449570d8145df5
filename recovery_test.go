package sssearch

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync"
	"testing"

	"sssearch/internal/client"
	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/mapping"
	"sssearch/internal/obs"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/shard"
	"sssearch/internal/sharing"
	"sssearch/internal/wire"
	"sssearch/internal/workload"
	"sssearch/internal/xmltree"
	"sssearch/internal/xpath"
)

// recoveryWorld is one document outsourced over F_97 (n = 96 = 2^5·3, so
// long products run the radix-2 and radix-3 butterflies): the encoded
// tree, its single-server share tree and the client's secret material.
type recoveryWorld struct {
	doc  *xmltree.Node
	enc  *polyenc.Tree
	tree *sharing.Tree
	m    *mapping.Map
	seed drbg.Seed
}

// recoveryVocab is small against the document size, so tags nest in
// themselves often and most steps have ambiguous nodes to recover.
var recoveryVocab = []string{"t0", "t1", "t2", "t3"}

func newRecoveryWorld(t *testing.T) *recoveryWorld {
	t.Helper()
	r := ring.MustFp(97)
	doc := workload.RandomTree(workload.TreeConfig{Nodes: 100, MaxFanout: 3, Vocab: len(recoveryVocab), Seed: 1515})
	m, err := mapping.New(r.MaxTag(), []byte("batched-recovery"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AssignAll(recoveryVocab); err != nil {
		t.Fatal(err)
	}
	enc, err := polyenc.Encode(r, doc, m)
	if err != nil {
		t.Fatal(err)
	}
	var seed drbg.Seed
	for i := range seed {
		seed[i] = 0x5C
	}
	tree, err := sharing.Split(enc, seed)
	if err != nil {
		t.Fatal(err)
	}
	return &recoveryWorld{doc: doc, enc: enc, tree: tree, m: m, seed: seed}
}

// callLog sits between the engine and a topology and records every
// evaluation wave and every fetch request the engine issues.
type callLog struct {
	core.ServerAPI
	mu      sync.Mutex
	evals   int
	fetches [][]drbg.NodeKey
}

func (c *callLog) EvalNodes(keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	c.mu.Lock()
	c.evals++
	c.mu.Unlock()
	return c.ServerAPI.EvalNodes(keys, points)
}

func (c *callLog) FetchPolys(keys []drbg.NodeKey) ([]core.NodePoly, error) {
	c.mu.Lock()
	c.fetches = append(c.fetches, keys)
	c.mu.Unlock()
	return c.ServerAPI.FetchPolys(keys)
}

func (c *callLog) reset() {
	c.mu.Lock()
	c.evals, c.fetches = 0, nil
	c.mu.Unlock()
}

// recoveryTopologies builds each deployment shape over the world's share
// tree, served with ring r (fast path on or off).
func recoveryTopologies(t *testing.T, w *recoveryWorld, r *ring.FpCyclotomic) []struct {
	name string
	api  core.ServerAPI
} {
	t.Helper()
	local, err := server.NewLocal(r, w.tree)
	if err != nil {
		t.Fatal(err)
	}
	addr := startDaemon(t, local)
	remote, err := client.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	pool, err := client.DialPool(addr, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })

	shares, err := sharing.MultiSplit(w.enc, w.seed, 2, 3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]core.MultiMember, len(shares))
	for i, s := range shares {
		srv, err := server.NewLocal(r, s.Tree)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = core.MultiMember{X: s.X, API: srv}
	}
	multi, err := core.NewMultiServer(r, 2, members)
	if err != nil {
		t.Fatal(err)
	}

	trees, man, err := shard.Partition(w.tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]core.ServerAPI, len(trees))
	for s, st := range trees {
		l, err := server.NewLocal(r, st)
		if err != nil {
			t.Fatal(err)
		}
		if backends[s], err = shard.NewGuard(r, l, man, s); err != nil {
			t.Fatal(err)
		}
	}
	router, err := shard.NewRouter(man, backends)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		api  core.ServerAPI
	}{
		{"Local", local}, {"Dial", remote}, {"DialPool", pool},
		{"MultiServer2of3", multi}, {"Router4", router},
	}
}

// recoveryQueries are the queries of the batched-recovery tests, with the
// number of tags each recovers under VerifyResolve and VerifyFull: one
// per ambiguous node, plus one per final match under VerifyFull. The
// counts were taken from a recovery loop that fetched each node on its
// own; grouping the fetches must not change which tags are solved.
var recoveryQueries = []struct {
	q             string
	resolve, full int64
}{
	{"//t0", 38, 67},
	{"//t1", 31, 53},
	{"//t2", 36, 63},
	{"//t3", 34, 56},
	{"//t0//t1", 50, 69},
	{"//t1/t2", 34, 37},
	{"//t2//t2", 71, 97},
	{"//t3/*", 34, 52},
	{"/t0//t3//t0", 1, 1},
	{"//*/t1", 30, 52},
}

// TestBatchedRecoveryDifferential: on every topology, with the fast path
// on and off and at both recovering verify levels, each query returns the
// plaintext oracle's matches, solves as many tags as the per-node loop
// did, and costs one round per evaluation wave plus one fetch round per
// step that recovers (plus VerifyFull's one re-derivation round).
func TestBatchedRecoveryDifferential(t *testing.T) {
	w := newRecoveryWorld(t)
	for _, fast := range []bool{true, false} {
		r := ring.MustFp(97)
		r.SetFast(fast)
		for _, topo := range recoveryTopologies(t, w, r) {
			t.Run(fmt.Sprintf("fast=%v/%s", fast, topo.name), func(t *testing.T) {
				log := &callLog{ServerAPI: topo.api}
				eng := core.NewEngine(r, w.seed, w.m, log, nil)
				for _, verify := range []core.VerifyLevel{core.VerifyResolve, core.VerifyFull} {
					for _, tc := range recoveryQueries {
						name := fmt.Sprintf("fast=%v/%s/%s/%s", fast, topo.name, verify, tc.q)
						q := xpath.MustParse(tc.q)
						log.reset()
						res, err := eng.Query(q, core.Opts{Verify: verify})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						want := map[string]bool{}
						for _, n := range q.Evaluate(w.doc) {
							want[n.Key().String()] = true
						}
						if len(res.Matches) != len(want) {
							t.Fatalf("%s: %d matches, oracle %d", name, len(res.Matches), len(want))
						}
						for _, k := range res.Matches {
							if !want[k.String()] {
								t.Fatalf("%s: match %s not in the oracle", name, k)
							}
						}
						wantTags := tc.resolve
						if verify == core.VerifyFull {
							wantTags = tc.full
						}
						if res.Stats.TagsRecovered != wantTags {
							t.Errorf("%s: %d tags recovered, the per-node loop recovered %d", name, res.Stats.TagsRecovered, wantTags)
						}
						fetches := int64(len(log.fetches))
						if res.Stats.Rounds != int64(log.evals)+fetches {
							t.Errorf("%s: %d rounds for %d evaluation waves and %d fetch rounds", name, res.Stats.Rounds, log.evals, fetches)
						}
						maxFetches := int64(len(q.Steps()))
						if verify == core.VerifyFull && len(res.Matches) > 0 {
							maxFetches++
						}
						if fetches > maxFetches || (fetches == 0) != (res.Stats.TagsRecovered == 0) {
							t.Errorf("%s: %d fetch rounds for %d steps and %d recoveries", name, fetches, len(q.Steps()), res.Stats.TagsRecovered)
						}
					}
				}
			})
		}
	}
}

// TestBatchedRecoveryTamperedPolynomial: a server that corrupts one
// polynomial of a multi-node fetch round still fails the query with the
// typed inconsistency error, on the word path and the big.Int path.
func TestBatchedRecoveryTamperedPolynomial(t *testing.T) {
	w := newRecoveryWorld(t)
	for _, fast := range []bool{true, false} {
		r := ring.MustFp(97)
		r.SetFast(fast)
		local, err := server.NewLocal(r, w.tree)
		if err != nil {
			t.Fatal(err)
		}
		// Find the largest fetch round of an honest run and a node in it
		// that is not the first one recovered.
		var target drbg.NodeKey
		var query string
		var batch int
		for _, tc := range recoveryQueries {
			log := &callLog{ServerAPI: local}
			eng := core.NewEngine(r, w.seed, w.m, log, nil)
			if _, err := eng.Query(xpath.MustParse(tc.q), core.Opts{Verify: core.VerifyResolve}); err != nil {
				t.Fatal(err)
			}
			for _, keys := range log.fetches {
				if len(keys) > batch {
					batch, query, target = len(keys), tc.q, keys[len(keys)-1]
				}
			}
		}
		if batch < 3 {
			t.Fatalf("no fetch round with several nodes (largest %d)", batch)
		}
		tam := &server.Tamperer{Inner: local, CorruptPolyAt: target}
		log := &callLog{ServerAPI: tam}
		eng := core.NewEngine(r, w.seed, w.m, log, nil)
		_, err = eng.Query(xpath.MustParse(query), core.Opts{Verify: core.VerifyResolve})
		if !errors.Is(err, polyenc.ErrInconsistent) {
			t.Fatalf("fast=%v %s, %s corrupted in a %d-key round: error %v, want ErrInconsistent", fast, query, target, batch, err)
		}
		if tam.PolyTampered == 0 {
			t.Fatal("tamperer never fired — test is vacuous")
		}
		if eng.Counters().Snapshot().VerifyFailures == 0 {
			t.Error("verify failure not counted")
		}
	}
}

// frameTap records the request frames a client writes to its connection.
// The client writes each small frame with one Write call.
type frameTap struct {
	net.Conn
	mu     sync.Mutex
	frames []wire.Frame
}

func (c *frameTap) Write(p []byte) (int, error) {
	if f, _, err := wire.ReadFrame(bytes.NewReader(p)); err == nil {
		f.Payload = append([]byte(nil), f.Payload...)
		c.mu.Lock()
		c.frames = append(c.frames, f)
		c.mu.Unlock()
	}
	return c.Conn.Write(p)
}

// TestRecoveryFetchCarriesTrace: the recovery round of a traced
// VerifyResolve query goes out under the query's trace ID, like its
// evaluation waves.
func TestRecoveryFetchCarriesTrace(t *testing.T) {
	w := newRecoveryWorld(t)
	r := ring.MustFp(97)
	local, err := server.NewLocal(r, w.tree)
	if err != nil {
		t.Fatal(err)
	}
	cli, srv := net.Pipe()
	go func() { _ = server.NewDaemon(local, nil).HandleConn(srv) }()
	tap := &frameTap{Conn: cli}
	remote, err := client.NewRemote(tap, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	eng := core.NewEngine(r, w.seed, w.m, remote, nil)
	eng.SetObserver(&obs.Observer{})
	obs.SetSampleEvery(1)
	defer obs.SetSampleEvery(0)
	res, err := eng.Query(xpath.MustParse("//t2"), core.Opts{Verify: core.VerifyResolve})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TagsRecovered == 0 {
		t.Fatal("query recovered no tags — test is vacuous")
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	traces := map[uint64]bool{}
	fetches := 0
	for _, f := range tap.frames {
		switch f.Type {
		case wire.MsgEval:
			req, err := wire.DecodeEvalReq(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			traces[req.TraceID] = true
		case wire.MsgFetch:
			req, err := wire.DecodeFetchReq(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if req.TraceID == 0 || !req.TraceSampled {
				t.Fatalf("fetch frame carries no sampled trace (id %#x, sampled %v)", req.TraceID, req.TraceSampled)
			}
			traces[req.TraceID] = true
			fetches++
		}
	}
	if fetches != 1 {
		t.Fatalf("%d fetch frames, want one recovery round", fetches)
	}
	if len(traces) != 1 || traces[0] {
		t.Fatalf("query frames carry trace IDs %v, want one non-zero ID", traces)
	}
}
