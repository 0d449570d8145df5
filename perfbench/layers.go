package main

import (
	"errors"
	"runtime"
	"time"
)

// tracedRun measures the per-layer metrics. It first runs the workload on
// the public stack without tracing, for half the time, then rebuilds it
// from the internal constructors with seams D1–D3 and the write-path
// spans and runs it again for the other half. The runtime metrics come
// from the untraced half, the layer metrics from the traced half, and
// the difference in mean search latency is the tracing overhead.
func tracedRun(in *inputs, dir, spanFile string, d time.Duration) (*result, error) {
	half := d / 2
	res := &result{Correct: true, Metrics: map[string]metric{}}

	// Untraced half.
	st, err := setupPublic(in, dir)
	if err != nil {
		return nil, err
	}
	var ownU ownerResult
	var owner func(time.Time) error
	if in.spec.owner {
		owner = func(deadline time.Time) (err error) {
			ownU, err = publicOwner(st, deadline)
			return err
		}
	}
	runtime.GC()
	rt0 := readRuntime()
	rdU, err := phase(in, st.search, owner, half)
	rt1 := readRuntime()
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	// Traced half. One reader is the only client of its daemon, so its
	// seam calls can be linked to their query; two readers sharing a
	// pooled session cannot be told apart from outside.
	runtime.GC()
	t := newTracer(in.spec.readers == 1)
	ts, err := setupTraced(in, dir, t)
	if err != nil {
		return nil, err
	}
	defer ts.close()
	if _, err := warmUp(in, ts.search); err != nil {
		return nil, err
	}
	runtime.GC()
	mark := len(t.snapshot())
	c0 := ts.counters.Snapshot()
	l0, co0 := ts.serverCounters()
	var ownT tracedOwnerResult
	owner = nil
	if in.spec.owner {
		owner = func(deadline time.Time) (err error) {
			ownT, err = tracedOwner(ts, deadline)
			return err
		}
	}
	rdT, err := phase(in, ts.search, owner, half)
	if err != nil {
		return nil, err
	}
	c := ts.counters.Snapshot().Sub(c0)
	l1, co1 := ts.serverCounters()
	l, co := l1.Sub(l0), co1.Sub(co0)
	spans := t.snapshot()[mark:]
	if err := t.write(spanFile); err != nil {
		return nil, err
	}
	if err := ts.close(); err != nil {
		return nil, err
	}
	if len(rdU.lat) == 0 || len(rdT.lat) == 0 {
		return nil, errors.New("no search completed")
	}
	res.Attempted = rdU.attempted + ownU.attempted + rdT.attempted + ownT.attempted
	res.Failed = rdU.failed + ownU.failed + rdT.failed + ownT.failed

	sum := sumSpans(spans)
	q := sum[spanQuery]
	d1, d2, d3 := sum[spanClient], sum[spanDaemon], sum[spanLocal]
	nq := float64(q.calls)
	perQ := func(v float64) float64 { return v / nq }
	perQms := func(d time.Duration) float64 { return ms(d) / nq }

	// Client side: the engine's own time, the call into the client API,
	// and what the protocol cost per query.
	res.set("core.self_ms_per_query", perQms(q.dur-d1.dur), "ms")
	res.set("core.tags_recovered_per_query", perQ(float64(c.TagsRecovered)), "count")
	res.set("core.polys_fetched_per_query", perQ(float64(c.PolysFetched)), "count")
	res.set("core.nodes_visited_per_query", perQ(float64(c.NodesVisited)), "count")
	res.set("core.nodes_pruned_per_query", perQ(float64(c.NodesPruned)), "count")
	res.set("client.calls_per_query", perQ(float64(d1.calls)), "count")
	res.set("client.call_ms_per_query", perQms(d1.dur), "ms")
	res.set("client.batch_merge_ratio", ratio(float64(c.CoalescedRequests), float64(d1.evalCalls)), "ratio")
	res.set("wire.ms_per_query", perQms(d1.dur-d2.dur), "ms")
	res.set("wire.msgs_per_query", perQ(float64(c.MessagesSent+c.MessagesRcvd)), "count")
	res.set("sharing.pad_hit_ratio", ratio(float64(c.SharedPadHits), float64(c.SharedPadHits+c.SharedPadMiss)), "ratio")
	res.set("sharing.share_eval_hit_ratio", ratio(float64(c.ShareEvalHits), float64(c.ShareEvalHits+c.ShareEvalMiss)), "ratio")
	res.set("sharing.singleflight_per_query", perQ(float64(c.SharedPadSingleflight)), "count")

	// Server side: the coalescer's wait and merging, the store's work.
	res.set("coalesce.wait_ms_per_query", perQms(d2.dur-d3.dur), "ms")
	res.set("coalesce.requests_per_batch", ratio(float64(d2.evalCalls), float64(d3.evalCalls)), "count")
	res.set("coalesce.dedup_ratio", ratio(float64(co.CoalesceDedupHits), float64(d2.evalKeys)), "ratio")
	res.set("server.busy_ms_per_query", perQms(d3.dur), "ms")
	res.set("server.keys_per_call", ratio(float64(d3.evalKeys), float64(d3.evalCalls)), "count")
	res.set("server.eval_cache_hit_ratio", ratio(float64(l.EvalCacheHits), float64(l.EvalCacheHits+l.EvalCacheMiss)), "ratio")

	// Write path: the owner loop's medians on update; elsewhere the traced
	// set-up's single encode and split, with no store file and no swap.
	w := ts.write
	if in.spec.owner {
		if len(ownT.writes) == 0 {
			return nil, errors.New("update: no traced publish completed")
		}
		w = medianWrite(ownT.writes)
	}
	res.set("polyenc.encode_ms", ms(w.encode), "ms")
	res.set("sharing.split_ms", ms(w.split), "ms")
	res.set("store.save_ms", ms(w.save), "ms")
	res.set("store.load_ms", ms(w.load), "ms")
	res.set("store.mb", float64(w.storeBytes)/1e6, "MB")
	res.set("server.swap_ms", ms(w.swap), "ms")

	// Runtime, from the untraced half.
	nU := float64(rdU.attempted)
	res.set("runtime.alloc_kb_per_query", (rt1.allocBytes-rt0.allocBytes)/1e3/nU, "kB")
	res.set("runtime.gc_cpu_fraction", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "ratio")

	// The tracing itself.
	res.set("trace.overhead_pct", 100*(float64(mean(rdT.lat))/float64(mean(rdU.lat))-1), "%")
	res.set("trace.seam_coverage", ratio(float64(d1.dur), float64(q.dur)), "ratio")
	res.set("trace.spans_per_query", perQ(float64(len(spans))), "count")

	res.note("workload %s seed %d: %d elements; untraced %d searches in %.1f s, traced %d in %.1f s", in.spec.name, in.seed, in.elems, len(rdU.lat), rdU.elapsed.Seconds(), len(rdT.lat), rdT.elapsed.Seconds())
	res.note("cache regime: sharing.pad_hit_ratio %.4f (%d lookups), server.eval_cache_hit_ratio %.4f (%d lookups)",
		res.Metrics["sharing.pad_hit_ratio"].Value, c.SharedPadHits+c.SharedPadMiss,
		res.Metrics["server.eval_cache_hit_ratio"].Value, l.EvalCacheHits+l.EvalCacheMiss)
	if t.linked {
		self := selfTimes(spans)
		res.note("self ms/query from span links: query %.3f, client %.3f, daemon %.3f, local %.3f",
			perQms(self[spanQuery]), perQms(self[spanClient]), perQms(self[spanDaemon]), perQms(self[spanLocal]))
	}
	res.note("%d spans written to %s", len(t.snapshot()), spanFile)
	return res, nil
}

// layerSum totals one seam's spans.
type layerSum struct {
	calls, evalCalls, evalKeys int
	dur                        time.Duration
}

func sumSpans(spans []span) map[string]layerSum {
	out := map[string]layerSum{}
	for _, s := range spans {
		l := out[s.Name]
		l.calls++
		l.dur += s.dur()
		if s.Op == "eval" {
			l.evalCalls++
			l.evalKeys += s.Keys
		}
		out[s.Name] = l
	}
	return out
}

// selfTimes returns each span name's total self time: its spans'
// durations minus the time their child spans cover. It needs linked
// spans (a single reader); layer metrics use sumSpans, which gives the
// same totals when every child is linked.
func selfTimes(spans []span) map[string]time.Duration {
	child := map[uint64]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - child[s.ID]
	}
	return out
}

func medianWrite(ws []writeTimes) writeTimes {
	pick := func(f func(writeTimes) time.Duration) time.Duration {
		ds := make([]time.Duration, len(ws))
		for i, w := range ws {
			ds[i] = f(w)
		}
		return median(ds)
	}
	return writeTimes{
		encode:     pick(func(w writeTimes) time.Duration { return w.encode }),
		split:      pick(func(w writeTimes) time.Duration { return w.split }),
		save:       pick(func(w writeTimes) time.Duration { return w.save }),
		load:       pick(func(w writeTimes) time.Duration { return w.load }),
		swap:       pick(func(w writeTimes) time.Duration { return w.swap }),
		storeBytes: ws[0].storeBytes,
	}
}
