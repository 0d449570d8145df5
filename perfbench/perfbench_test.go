package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sssearch"
	"sssearch/internal/store"
)

func hotReadInputs(t *testing.T) *inputs {
	t.Helper()
	in, err := makeInputs(specs["hot-read"], 1)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestTracedStatsMatchPublic checks that the seams change no code path:
// the same query sequence on a fresh public stack and a fresh traced
// stack gives identical per-query Stats, cache tallies and wire bytes
// included.
func TestTracedStatsMatchPublic(t *testing.T) {
	in := hotReadInputs(t)
	dir := t.TempDir()
	pub, err := setupPublic(in, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.close()
	ts, err := setupTraced(in, dir, newTracer(true))
	if err != nil {
		t.Fatal(err)
	}
	defer ts.close()
	tracedWarm, err := warmUp(in, ts.search)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pub.warm, tracedWarm) {
		t.Fatalf("warm-up Stats differ:\npublic %+v\ntraced %+v", pub.warm, tracedWarm)
	}
	seqP, seqT := newSequence(in.spec, in.seed), newSequence(in.spec, in.seed)
	never := time.Now().Add(time.Hour)
	for i := 0; i < 3*len(queryMix); i++ {
		q, _ := seqP.next(never)
		if qt, _ := seqT.next(never); qt != q {
			t.Fatalf("sequences diverge at %d: %s vs %s", i, q, qt)
		}
		pm, ps, err := pub.search(q)
		if err != nil {
			t.Fatal(err)
		}
		tm, tst, err := ts.search(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAnswer(in, q, pm); err != nil {
			t.Fatal(err)
		}
		if err := checkAnswer(in, q, tm); err != nil {
			t.Fatal(err)
		}
		if ps != tst {
			t.Fatalf("%s: Stats differ:\npublic %+v\ntraced %+v", q, ps, tst)
		}
	}
}

// TestTracedWritePathByteIdentical checks that the traced write path saves
// exactly the store sssearch.Outsource produces, and that its publish
// step accepts it.
func TestTracedWritePathByteIdentical(t *testing.T) {
	in := hotReadInputs(t)
	dir := t.TempDir()
	b, err := sssearch.Outsource(in.doc, in.cfg)
	if err != nil {
		t.Fatal(err)
	}
	pubPath := filepath.Join(dir, "public.sss")
	if err := b.Server.Save(pubPath); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(pubPath)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(true)
	var wt writeTimes
	r, _, tree, err := tracedOutsource(in, tr, &wt)
	if err != nil {
		t.Fatal(err)
	}
	tracedPath := filepath.Join(dir, "traced.sss")
	if err := store.SaveServer(tracedPath, r, tree); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(tracedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("traced store (%d B) differs from sssearch.Outsource's (%d B)", len(got), len(want))
	}

	ts, err := setupTraced(in, dir, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.close()
	if _, err := ts.tracedPublish(filepath.Join(dir, "publish.sss"), want); err != nil {
		t.Fatal(err)
	}
	if _, err := warmUp(in, ts.search); err != nil {
		t.Fatalf("after swap: %v", err)
	}
}

// TestSpanLinks checks that a single reader's spans nest: every seam span
// has its query and a parent, and self times from the links equal the
// differences of the per-seam totals the layer metrics use.
func TestSpanLinks(t *testing.T) {
	in := hotReadInputs(t)
	tr := newTracer(true)
	ts, err := setupTraced(in, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.close()
	mark := len(tr.snapshot())
	if _, err := warmUp(in, ts.search); err != nil {
		t.Fatal(err)
	}
	spans := tr.snapshot()[mark:]
	byID := map[uint64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Name == spanQuery {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || s.Query == 0 || p.Name != parentOf[s.Name] {
			t.Fatalf("span %+v: parent %+v", s, p)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %+v outside its parent %+v", s, p)
		}
	}
	sum, self := sumSpans(spans), selfTimes(spans)
	for name, want := range map[string]time.Duration{
		spanQuery:  sum[spanQuery].dur - sum[spanClient].dur,
		spanClient: sum[spanClient].dur - sum[spanDaemon].dur,
		spanDaemon: sum[spanDaemon].dur - sum[spanLocal].dur,
		spanLocal:  sum[spanLocal].dur,
	} {
		if self[name] != want {
			t.Errorf("%s: self time %v from links, %v from totals", name, self[name], want)
		}
	}
}

// TestSequenceBlocks checks that the query stream is a function of the
// seed and that every block holds exactly the workload's mix.
func TestSequenceBlocks(t *testing.T) {
	sp := specs["cold-pool"]
	var block int
	for _, w := range sp.weights {
		block += w
	}
	a, b := newSequence(sp, 7), newSequence(sp, 7)
	never := time.Now().Add(time.Hour)
	for n := 0; n < 3; n++ {
		counts := map[string]int{}
		for i := 0; i < block; i++ {
			q, _ := a.next(never)
			if qb, _ := b.next(never); qb != q {
				t.Fatalf("same seed, different stream: %s vs %s", q, qb)
			}
			counts[q]++
		}
		if n == 2 {
			if _, ok := a.next(time.Now()); ok {
				t.Fatal("a block boundary past the deadline must end the stream")
			}
		}
		for _, q := range queryMix {
			if counts[q] != mixWeight(sp, q) {
				t.Fatalf("block %d: %s ran %d times, want %d", n, q, counts[q], mixWeight(sp, q))
			}
		}
	}
}

func TestTailLatency(t *testing.T) {
	ds := make([]time.Duration, 250)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	// 250 samples: p99 has 2 above it, p95 has 12.
	if v, p, beyond := tailLatency(ds); v != 238*time.Millisecond || p != 95 || beyond != 12 {
		t.Fatalf("tail = %v p%d (%d beyond)", v, p, beyond)
	}
	if v, p, _ := tailLatency(ds[:50]); v != 50*time.Millisecond || p != 100 {
		t.Fatalf("short sample: tail = %v p%d", v, p)
	}
	if m := median(ds[:4]); m != 2500*time.Microsecond {
		t.Fatalf("median = %v", m)
	}
}

// TestTeardown runs a short phase, readers beside the owner, on each kind
// of deployment, public or traced, Dial or DialPool, and checks that
// closing it leaves no goroutine running and no file behind.
func TestTeardown(t *testing.T) {
	pooled := specs["cold-pool"]
	pooled.units, pooled.minElems = 100, 0
	for _, sp := range []spec{specs["hot-read"], pooled} {
		in, err := makeInputs(sp, 1)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		before := runtime.NumGoroutine()
		pub, err := setupPublic(in, dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := phase(in, pub.search, func(deadline time.Time) error {
			_, err := publicOwner(pub, deadline)
			return err
		}, 300*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := pub.close(); err != nil {
			t.Fatal(err)
		}
		ts, err := setupTraced(in, dir, newTracer(sp.readers == 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := phase(in, ts.search, func(deadline time.Time) error {
			_, err := tracedOwner(ts, deadline)
			return err
		}, 300*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := ts.close(); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after teardown, %d before", sp.name, runtime.NumGoroutine(), before)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
			t.Fatalf("%s: files left behind: %v %v", sp.name, left, err)
		}
	}
}
