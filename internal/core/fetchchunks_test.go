package core

import (
	"context"
	"math/big"
	"sync"
	"testing"

	"sssearch/internal/drbg"
	"sssearch/internal/metrics"
	"sssearch/internal/ring"
)

// chunkServer answers fetches with empty polynomials and records each
// request's keys; calls may arrive concurrently.
type chunkServer struct {
	mu    sync.Mutex
	calls [][]drbg.NodeKey
}

func (s *chunkServer) EvalNodes([]drbg.NodeKey, []*big.Int) ([]NodeEval, error) {
	panic("chunkServer: no evaluations expected")
}

func (s *chunkServer) FetchPolys(keys []drbg.NodeKey) ([]NodePoly, error) {
	s.mu.Lock()
	s.calls = append(s.calls, keys)
	s.mu.Unlock()
	out := make([]NodePoly, len(keys))
	for i, k := range keys {
		out[i] = NodePoly{Key: k, Words: []uint64{1}, NumChildren: i % 3}
	}
	return out, nil
}

func (s *chunkServer) Prune([]drbg.NodeKey) error { return nil }

// TestFetchPolysChunksOneRound: a recovery fetch too large for one frame
// goes out as concurrent chunked requests that together cover every key
// once, and counts as one round.
func TestFetchPolysChunksOneRound(t *testing.T) {
	srv := &chunkServer{}
	counters := &metrics.Counters{}
	// F_65537: a worst-case answer is ~640 KiB, so 60 keys need 3 frames.
	e := &Engine{ring: ring.MustFp(65537), api: srv, counters: counters}
	r := newRun(context.Background(), e, nil, nil, Opts{})
	keys := make([]drbg.NodeKey, 60)
	for i := range keys {
		keys[i] = drbg.NodeKey{uint32(i)}
	}
	answers, err := r.fetchPolys(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(srv.calls) != 3 {
		t.Fatalf("%d fetch requests, want 3 chunks", len(srv.calls))
	}
	seen := map[string]int{}
	for _, call := range srv.calls {
		for _, k := range call {
			seen[k.String()]++
		}
	}
	for _, k := range keys {
		if seen[k.String()] != 1 {
			t.Fatalf("key %s requested %d times", k, seen[k.String()])
		}
		if _, ok := answers[k.String()]; !ok {
			t.Fatalf("no answer for %s", k)
		}
	}
	snap := counters.Snapshot()
	if snap.Rounds != 1 || snap.PolysFetched != int64(len(keys)) {
		t.Fatalf("rounds %d, polys fetched %d; want 1 and %d", snap.Rounds, snap.PolysFetched, len(keys))
	}
}
