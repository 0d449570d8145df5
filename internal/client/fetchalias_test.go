package client_test

import (
	"context"
	"fmt"
	"math/big"
	"reflect"
	"sync"
	"testing"

	"sssearch/internal/client"
	"sssearch/internal/coalesce"
	"sssearch/internal/core"
	"sssearch/internal/drbg"
	"sssearch/internal/poly"
	"sssearch/internal/ring"
	"sssearch/internal/server"
	"sssearch/internal/sharing"
	"sssearch/internal/workload"
)

// localTarget lets a Batcher drive a server.Local in process, so its
// fetch answers reach the caller still aliasing the server's packed
// share vectors, with no wire copy in between.
type localTarget struct{ *server.Local }

func (l localTarget) EvalNodesCtx(_ context.Context, keys []drbg.NodeKey, points []*big.Int) ([]core.NodeEval, error) {
	return l.EvalNodes(keys, points)
}

func (l localTarget) FetchPolysCtx(_ context.Context, keys []drbg.NodeKey) ([]core.NodePoly, error) {
	return l.FetchPolys(keys)
}

func (l localTarget) PruneCtx(_ context.Context, keys []drbg.NodeKey) error { return l.Prune(keys) }

// TestFetchWordsSharedAcrossLayers fetches the same nodes concurrently
// through coalesce.Server, client.Batcher (in process and over the wire)
// and core.MultiServer, all over one server.Local whose answers alias its
// packed share vectors, and runs VerifyFull queries (tag recovery)
// through each. Every answer must match the reference and the server's
// vectors must come out unchanged; under -race any write through an
// aliased answer is a reported race.
func TestFetchWordsSharedAcrossLayers(t *testing.T) {
	w := buildWorldRing(t, workload.RandomTree(workload.TreeConfig{Nodes: 80, MaxFanout: 3, Vocab: 5, Seed: 61}), ring.MustFp(257))
	fp := w.ring.(*ring.FpCyclotomic)
	snapshot := func() [][]uint64 {
		var out [][]uint64
		w.local.Tree().Walk(func(_ drbg.NodeKey, n *sharing.Node) bool {
			out = append(out, append([]uint64(nil), n.Packed...))
			return true
		})
		return out
	}
	before := snapshot()
	want := make([]poly.Poly, len(w.keys))
	ref, err := w.local.FetchPolys(w.keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range ref {
		if a.Words == nil {
			t.Fatalf("%s: server answered without words — test is vacuous", a.Key)
		}
		want[i] = a.Polynomial()
	}

	remote, err := client.Dial(w.addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	// k = 1: every member's share is the secret itself, so two members
	// over the same server combine to its answer.
	multi, err := core.NewMultiServer(fp, 1, []core.MultiMember{{X: 1, API: w.local}, {X: 2, API: w.local}})
	if err != nil {
		t.Fatal(err)
	}
	apis := map[string]core.ServerAPI{
		"coalesce":       coalesce.New(w.local, nil),
		"batcher":        client.NewBatcher(localTarget{w.local}, nil),
		"batcher remote": client.NewBatcher(remote, nil),
		"multiserver":    multi,
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for name, api := range apis {
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(name string, api core.ServerAPI, g int) {
				defer wg.Done()
				for it := 0; it < 3; it++ {
					off := (g + it) % 4
					got, err := api.FetchPolys(w.keys[off:])
					if err != nil {
						errs <- fmt.Errorf("%s: %w", name, err)
						return
					}
					for i, a := range got {
						if !a.Polynomial().Equal(want[off+i]) {
							errs <- fmt.Errorf("%s: %s differs from the reference", name, a.Key)
							return
						}
					}
				}
				eng := core.NewEngine(fp, w.seed, w.m, api, nil)
				for v := 0; v < 5; v++ {
					tag := fmt.Sprintf("t%d", v)
					if _, ok := w.m.Value(tag); !ok {
						continue
					}
					if _, err := eng.Lookup(tag, core.Opts{Verify: core.VerifyFull}); err != nil {
						errs <- fmt.Errorf("%s //%s: %w", name, tag, err)
						return
					}
				}
			}(name, api, g)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !reflect.DeepEqual(before, snapshot()) {
		t.Fatal("a layer wrote through the server's packed share vectors")
	}
}
