package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
	"sync"
	"time"

	"sssearch/internal/drbg"
	"sssearch/internal/obs"
	"sssearch/internal/poly"
	"sssearch/internal/polyenc"
	"sssearch/internal/ring"
	"sssearch/internal/sharing"
	"sssearch/internal/xpath"
)

// run is the per-query state: the compiled steps and points, the learned
// tree shape (child counts) and an evaluation cache that keeps the protocol
// from re-requesting sums the scan already produced.
//
// mu guards childCount and sumCache: when opts.Parallelism > 1 an
// evaluation wave splits into concurrent batches whose goroutines merge
// answers into both maps.
type run struct {
	// ctx carries the query's observability context (trace span) into
	// every server call; it is not used for cancellation.
	ctx    context.Context
	e      *Engine
	steps  []xpath.Step
	points []*big.Int // nil for wildcard steps
	opts   Opts
	// ptIdx interns the query's evaluation points: every point a step can
	// ever evaluate at is one of the r.points pointers, assigned a small
	// index at construction. Read-only after newRun, so sumKey lookups
	// never render a big.Int to a string.
	ptIdx      map[*big.Int]int
	mu         sync.Mutex
	childCount map[string]int
	sumCache   map[sumKey]*big.Int
}

// sumKey addresses one cached (node, point) sum: the node's rendered path
// and the interned point index — a comparable struct, so cache hits cost
// no string concatenation or big.Int rendering.
type sumKey struct {
	node string
	pt   int
}

// newRun assembles the per-query state, interning the point set.
func newRun(ctx context.Context, e *Engine, steps []xpath.Step, points []*big.Int, opts Opts) *run {
	idx := make(map[*big.Int]int, len(points))
	for _, p := range points {
		if p == nil {
			continue
		}
		if _, ok := idx[p]; !ok {
			idx[p] = len(idx)
		}
	}
	return &run{
		ctx:        ctx,
		e:          e,
		steps:      steps,
		points:     points,
		opts:       opts,
		ptIdx:      idx,
		childCount: map[string]int{},
		sumCache:   map[sumKey]*big.Int{},
	}
}

// ptIndex resolves an interned point. All evaluation flows through the
// r.points pointers interned at construction, so a miss is an internal
// invariant violation, reported loudly by the caller.
func (r *run) ptIndex(p *big.Int) (int, bool) {
	i, ok := r.ptIdx[p]
	return i, ok
}

// sumState is the client-side record of one evaluated node.
type sumState struct {
	key drbg.NodeKey
	// ks is key.String(), rendered once per wave and reused by every map
	// consult downstream.
	ks   string
	nch  int
	sums []*big.Int // aligned with the step's point vector; wildcard slot = 0
}

// zeroAll reports whether every sum vanished.
func (s *sumState) zeroAll() bool {
	for _, v := range s.sums {
		if v.Sign() != 0 {
			return false
		}
	}
	return true
}

// execute runs all steps and returns final matches and unresolved keys.
func (r *run) execute() (matches, unresolved []drbg.NodeKey, err error) {
	var contexts []drbg.NodeKey
	for i, step := range r.steps {
		pts := r.activePoints(i)
		var scanRoots []drbg.NodeKey
		if i == 0 {
			scanRoots = []drbg.NodeKey{{}}
		} else {
			scanRoots = r.childrenOf(contexts)
		}
		scanRoots = dedupKeys(scanRoots)
		var cands []sumState
		if step.Axis == xpath.AxisChild {
			states, err := r.evalKeys(scanRoots, pts)
			if err != nil {
				return nil, nil, err
			}
			for _, st := range states {
				if st.zeroAll() {
					cands = append(cands, st)
				}
			}
		} else {
			cands, err = r.scanDescendants(scanRoots, pts)
			if err != nil {
				return nil, nil, err
			}
		}
		stepMatches, stepUnresolved, err := r.classify(cands, i)
		if err != nil {
			return nil, nil, err
		}
		if i == len(r.steps)-1 {
			if r.opts.Verify == VerifyFull {
				if err := r.verifyMatches(stepMatches, r.points[i], step.Wildcard()); err != nil {
					return nil, nil, err
				}
			}
			return stepMatches, stepUnresolved, nil
		}
		// Non-final steps: matched nodes (plus, under VerifyNone,
		// optimistically-kept unresolved nodes) become the next contexts.
		next := append(append([]drbg.NodeKey{}, stepMatches...), stepUnresolved...)
		contexts = dedupKeys(next)
		if len(contexts) == 0 {
			return nil, nil, nil
		}
	}
	return nil, nil, nil
}

// activePoints builds the point vector for step i: the step's own point
// (nil for wildcards — evalKeys fabricates a zero sum) followed by every
// later non-wildcard point. Evaluating candidates at future points is the
// §4.3 "evaluate the whole query at once" optimisation (disabled by the
// DisableLookahead ablation).
func (r *run) activePoints(i int) []*big.Int {
	out := []*big.Int{r.points[i]}
	if r.opts.DisableLookahead {
		return out
	}
	for _, p := range r.points[i+1:] {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// childrenOf expands contexts into their child keys using learned counts.
func (r *run) childrenOf(contexts []drbg.NodeKey) []drbg.NodeKey {
	var out []drbg.NodeKey
	for _, ctx := range contexts {
		n := r.childCount[ctx.String()]
		for i := 0; i < n; i++ {
			out = append(out, ctx.Child(uint32(i)))
		}
	}
	return out
}

// evalKeys returns the client+server sum of each key at each point,
// consulting the per-run cache and asking the server only for keys with
// missing values.
func (r *run) evalKeys(keys []drbg.NodeKey, points []*big.Int) ([]sumState, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	eff := make([]*big.Int, 0, len(points))
	effIdx := make([]int, 0, len(points))
	for _, p := range points {
		if p == nil {
			continue
		}
		pi, ok := r.ptIndex(p)
		if !ok {
			return nil, fmt.Errorf("core: internal: evaluation point %s was not interned", p)
		}
		eff = append(eff, p)
		effIdx = append(effIdx, pi)
	}
	// Render each key once; every cache consult below reuses the string.
	ks := make([]string, len(keys))
	for i, k := range keys {
		ks[i] = k.String()
	}
	// Partition into cached and missing.
	var missing []drbg.NodeKey
	for i := range keys {
		if !r.cachedAll(ks[i], effIdx) {
			missing = append(missing, keys[i])
		}
	}
	if len(missing) > 0 {
		// One wave = one protocol round (latency-wise), even when it is
		// split into concurrent batches below.
		r.e.counters.AddRound()
		r.e.counters.AddNodesVisited(len(missing))
		r.e.counters.AddNodesEvaluated(len(missing) * len(eff))
		r.e.counters.AddValuesMoved(len(missing) * len(eff))
		batches := splitBatches(missing, r.opts.Parallelism)
		if len(batches) == 1 {
			if err := r.evalBatch(batches[0], eff, effIdx); err != nil {
				return nil, err
			}
		} else {
			errs := make([]error, len(batches))
			var wg sync.WaitGroup
			for bi, batch := range batches {
				wg.Add(1)
				go func(bi int, batch []drbg.NodeKey) {
					defer wg.Done()
					errs[bi] = r.evalBatch(batch, eff, effIdx)
				}(bi, batch)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return nil, err
				}
			}
		}
	}
	// Assemble states from cache.
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]sumState, len(keys))
	for i := range keys {
		st := sumState{key: keys[i], ks: ks[i], nch: r.childCount[ks[i]], sums: make([]*big.Int, 0, len(points))}
		for _, p := range points {
			if p == nil {
				st.sums = append(st.sums, big.NewInt(0))
				continue
			}
			pi, _ := r.ptIndex(p)
			v, ok := r.sumCache[sumKey{node: ks[i], pt: pi}]
			if !ok {
				return nil, fmt.Errorf("core: internal: missing cached sum for %s", keys[i])
			}
			st.sums = append(st.sums, v)
		}
		out[i] = st
	}
	return out, nil
}

// evalBatch asks the server for one batch of keys and merges the combined
// sums into the caches. Safe to call from concurrent batch goroutines (the
// ServerAPI contract requires concurrent-safe implementations; the cache
// merge is locked, the big-integer combining runs outside the lock).
// effIdx holds the interned index of each eff point.
func (r *run) evalBatch(batch []drbg.NodeKey, eff []*big.Int, effIdx []int) error {
	answers, err := EvalNodesWithCtx(r.ctx, r.e.api, batch, eff)
	if err != nil {
		return err
	}
	if len(answers) != len(batch) {
		return fmt.Errorf("core: server returned %d answers for %d keys", len(answers), len(batch))
	}
	// Everything below is the client's own share arithmetic: pad/share
	// regeneration plus the modular sums combining client and server
	// summands. Timed as one block per batch — per-node timing would cost
	// more than the work it measures on cached paths.
	arithStart := time.Now()
	defer func() {
		d := time.Since(arithStart)
		r.e.obsv.Observe(obs.StageShareArith, d)
		obs.SpanFrom(r.ctx).Add(obs.StageShareArith, d)
	}()
	// The evaluation modulus of each point is fixed for the whole batch;
	// resolve it once instead of once per (node, point).
	mods := make([]*big.Int, len(eff))
	for i, p := range eff {
		if mods[i], err = r.e.ring.EvalModulus(p); err != nil {
			return fmt.Errorf("core: point %s: %w", p, err)
		}
	}
	multi, isMulti := r.e.shares.(sharing.MultiPointSource)
	for _, ans := range answers {
		if len(ans.Values) != len(eff) {
			return fmt.Errorf("core: server returned %d values for %d points", len(ans.Values), len(eff))
		}
		// Client share summands: one share regeneration serves all points
		// when the source supports multi-point evaluation. Wildcard-only
		// waves (eff empty) need no share work at all — the server round
		// still ran to learn child counts.
		var cvs []*big.Int
		switch {
		case len(eff) == 0:
		case isMulti:
			if cvs, err = multi.EvalShares(ans.Key, eff); err != nil {
				return err
			}
			if len(cvs) != len(eff) {
				return fmt.Errorf("core: share source returned %d values for %d points", len(cvs), len(eff))
			}
		default:
			cvs = make([]*big.Int, len(eff))
			for i, p := range eff {
				if cvs[i], err = r.e.shares.EvalShare(ans.Key, p); err != nil {
					return err
				}
			}
		}
		sums := make([]*big.Int, len(eff))
		for i := range eff {
			sum := new(big.Int).Add(cvs[i], ans.Values[i])
			sums[i] = sum.Mod(sum, mods[i])
		}
		aks := ans.Key.String()
		r.mu.Lock()
		r.childCount[aks] = ans.NumChildren
		for i := range eff {
			r.sumCache[sumKey{node: aks, pt: effIdx[i]}] = sums[i]
		}
		r.mu.Unlock()
	}
	return nil
}

// splitBatches carves keys into at most parallelism near-even batches.
func splitBatches(keys []drbg.NodeKey, parallelism int) [][]drbg.NodeKey {
	if parallelism <= 1 || len(keys) <= 1 {
		return [][]drbg.NodeKey{keys}
	}
	n := parallelism
	if n > len(keys) {
		n = len(keys)
	}
	size := (len(keys) + n - 1) / n
	out := make([][]drbg.NodeKey, 0, n)
	for start := 0; start < len(keys); start += size {
		end := start + size
		if end > len(keys) {
			end = len(keys)
		}
		out = append(out, keys[start:end])
	}
	return out
}

// cachedAll reports whether node ks has a cached child count and a cached
// sum at every interned point index.
func (r *run) cachedAll(ks string, effIdx []int) bool {
	if _, ok := r.childCount[ks]; !ok {
		return false
	}
	for _, pi := range effIdx {
		if _, ok := r.sumCache[sumKey{node: ks, pt: pi}]; !ok {
			return false
		}
	}
	return true
}

// scanDescendants BFSes the subtrees rooted at roots, descending only
// through nodes whose sums are all zero (a non-zero sum at any active
// point proves no candidate can exist below — the paper's dead-branch
// pruning), and returns all all-zero nodes as candidates.
func (r *run) scanDescendants(roots []drbg.NodeKey, pts []*big.Int) ([]sumState, error) {
	var cands []sumState
	seen := map[string]bool{}
	var pruned []drbg.NodeKey
	frontier := roots
	for len(frontier) > 0 {
		states, err := r.evalKeys(frontier, pts)
		if err != nil {
			return nil, err
		}
		var next []drbg.NodeKey
		for _, st := range states {
			if seen[st.ks] {
				continue
			}
			seen[st.ks] = true
			if st.zeroAll() {
				cands = append(cands, st)
				for c := 0; c < st.nch; c++ {
					next = append(next, st.key.Child(uint32(c)))
				}
			} else {
				pruned = append(pruned, st.key)
			}
		}
		frontier = dedupKeys(next)
	}
	if len(pruned) > 0 {
		r.e.counters.AddPruned(len(pruned))
		if err := r.e.api.Prune(pruned); err != nil {
			return nil, err
		}
	}
	return cands, nil
}

// classify applies the paper's answer rule to candidates of step i:
// a zero node with no zero child (at the step's own point) is a definite
// match; a zero node with a zero child is ambiguous and is resolved by tag
// recovery (or reported unresolved under VerifyNone). All of the step's
// recoveries share one fetch round. Wildcard steps match structurally.
func (r *run) classify(cands []sumState, i int) (matches, unresolved []drbg.NodeKey, err error) {
	if len(cands) == 0 {
		return nil, nil, nil
	}
	step := r.steps[i]
	if step.Wildcard() {
		for _, c := range cands {
			matches = append(matches, c.key)
		}
		return matches, nil, nil
	}
	cur := r.points[i]
	// Evaluate all candidates' children at the step point (cache hits for
	// descendant scans, one batched round otherwise).
	var childKeys []drbg.NodeKey
	for _, c := range cands {
		for j := 0; j < c.nch; j++ {
			childKeys = append(childKeys, c.key.Child(uint32(j)))
		}
	}
	childStates, err := r.evalKeys(dedupKeys(childKeys), []*big.Int{cur})
	if err != nil {
		return nil, nil, err
	}
	childZero := make(map[string]bool, len(childStates))
	for _, st := range childStates {
		childZero[st.ks] = st.sums[0].Sign() == 0
	}
	var ambiguous []drbg.NodeKey
	for _, c := range cands {
		anyZeroChild := false
		for j := 0; j < c.nch; j++ {
			if childZero[c.key.Child(uint32(j)).String()] {
				anyZeroChild = true
				break
			}
		}
		switch {
		case !anyZeroChild:
			// Definite: the (x - point) factor must be the node's own.
			matches = append(matches, c.key)
		case r.opts.Verify == VerifyNone:
			// Ambiguous: node and some descendant chain both contain the tag.
			unresolved = append(unresolved, c.key)
		default:
			ambiguous = append(ambiguous, c.key)
		}
	}
	tags, err := r.recoverTags(ambiguous, "resolving")
	if err != nil {
		return nil, nil, err
	}
	for j, tag := range tags {
		if tag.Cmp(cur) == 0 {
			matches = append(matches, ambiguous[j])
		}
	}
	return matches, unresolved, nil
}

// verifyMatches re-derives each reported match's tag and compares it with
// the query point (VerifyFull), in one fetch round.
func (r *run) verifyMatches(keys []drbg.NodeKey, point *big.Int, wildcard bool) error {
	tags, err := r.recoverTags(keys, "verification of")
	if err != nil {
		return err
	}
	if wildcard {
		return nil
	}
	for j, tag := range tags {
		if tag.Cmp(point) != 0 {
			r.e.counters.AddVerifyFailure()
			return fmt.Errorf("core: server cheated: node %s has tag %s, query point %s", keys[j], tag, point)
		}
	}
	return nil
}

// recoverTags solves eq. (2) for the tag of every node in nodes. The
// polynomials of the nodes and of their children are fetched together,
// deduplicated, in one round; tags aligns with nodes. what names the
// purpose in errors ("resolving", "verification of").
func (r *run) recoverTags(nodes []drbg.NodeKey, what string) ([]*big.Int, error) {
	if len(nodes) == 0 {
		return nil, nil
	}
	nch := make([]int, len(nodes))
	var keys []drbg.NodeKey
	for j, k := range nodes {
		nch[j] = r.childCount[k.String()]
		keys = append(keys, k)
		for c := 0; c < nch[j]; c++ {
			keys = append(keys, k.Child(uint32(c)))
		}
	}
	answers, err := r.fetchPolys(dedupKeys(keys))
	if err != nil {
		return nil, fmt.Errorf("core: %s %d nodes: %w", what, len(nodes), err)
	}
	tags := make([]*big.Int, len(nodes))
	for j, k := range nodes {
		if tags[j], err = r.recoverNodeTag(answers, k, nch[j]); err != nil {
			return nil, fmt.Errorf("core: %s %s: %w", what, k, err)
		}
	}
	return tags, nil
}

// fetchPolys fetches the polynomials of keys in one protocol round. A
// fetch whose response could exceed a wire frame is split by PlanFetch
// into chunks issued concurrently; like a split evaluation wave, the
// round counts once.
func (r *run) fetchPolys(keys []drbg.NodeKey) (map[string]NodePoly, error) {
	chunks := PlanFetch(keys, r.e.ring.DegreeBound())
	results := make([][]NodePoly, len(chunks))
	errs := make([]error, len(chunks))
	if len(chunks) == 1 {
		results[0], errs[0] = FetchPolysWithCtx(r.ctx, r.e.api, chunks[0])
	} else {
		var wg sync.WaitGroup
		for ci, chunk := range chunks {
			wg.Add(1)
			go func(ci int, chunk []drbg.NodeKey) {
				defer wg.Done()
				results[ci], errs[ci] = FetchPolysWithCtx(r.ctx, r.e.api, chunk)
			}(ci, chunk)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	r.e.counters.AddRound()
	out := make(map[string]NodePoly, len(keys))
	for _, answers := range results {
		r.e.counters.AddPolysFetched(len(answers))
		for _, a := range answers {
			r.e.counters.AddPolyBytes(a.BinarySize())
			aks := a.Key.String()
			r.childCount[aks] = a.NumChildren
			out[aks] = a
		}
	}
	return out, nil
}

// MaxFetchResponse bounds the payload of one fetch response. It is
// wire.MaxFrameSize, restated because package wire imports core; a wire
// test pins the two together.
const MaxFetchResponse = 16 << 20

// PlanFetch splits a fetch of keys, in order, into chunks whose responses
// fit MaxFetchResponse. Each answer is bounded by the word encoding: the
// node key, a child-count varint and a polynomial of at most degreeBound
// coefficients of at most ten bytes each (presence flag, length byte,
// eight-byte word). An integer-ring coefficient wider than a word can
// break this bound; such a chunk fails with the frame-size error, never
// with a wrong answer.
func PlanFetch(keys []drbg.NodeKey, degreeBound int) [][]drbg.NodeKey {
	// Response id and answer count, then per answer the child count and
	// the coefficient count.
	budget := MaxFetchResponse - 2*binary.MaxVarintLen64
	answerMax := 2*binary.MaxVarintLen64 + 10*degreeBound
	if len(keys) == 0 {
		return nil
	}
	var out [][]drbg.NodeKey
	start, used := 0, 0
	for i, k := range keys {
		size := answerMax + keySize(k)
		if i > start && used+size > budget {
			out = append(out, keys[start:i])
			start, used = i, 0
		}
		used += size
	}
	return append(out, keys[start:])
}

// keySize is the length of a node key's wire encoding: a varint depth and
// one varint per component.
func keySize(k drbg.NodeKey) int {
	n := uvarintLen(uint64(len(k)))
	for _, c := range k {
		n += uvarintLen(uint64(c))
	}
	return n
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// reconstructPoly adds the client share to a fetched server share.
func (r *run) reconstructPoly(answers map[string]NodePoly, key drbg.NodeKey) (poly.Poly, error) {
	ans, ok := answers[key.String()]
	if !ok {
		return poly.Poly{}, fmt.Errorf("core: server omitted polynomial for %s", key)
	}
	cs, err := r.e.shares.Share(key)
	if err != nil {
		return poly.Poly{}, err
	}
	return r.e.ring.Add(cs, ans.Polynomial()), nil
}

// recoverNodeTag reconstructs the full polynomials of a node and its nch
// children from fetched answers and solves eq. (2) for the node's tag.
func (r *run) recoverNodeTag(answers map[string]NodePoly, key drbg.NodeKey, nch int) (*big.Int, error) {
	keys := make([]drbg.NodeKey, 0, nch+1)
	keys = append(keys, key)
	for i := 0; i < nch; i++ {
		keys = append(keys, key.Child(uint32(i)))
	}
	if tag, ok, err := r.recoverNodeTagPacked(answers, keys); ok {
		if err != nil {
			r.e.counters.AddVerifyFailure()
			return nil, err
		}
		return tag, nil
	}
	f, err := r.reconstructPoly(answers, key)
	if err != nil {
		return nil, err
	}
	children := make([]poly.Poly, nch)
	for i := 0; i < nch; i++ {
		cp, err := r.reconstructPoly(answers, key.Child(uint32(i)))
		if err != nil {
			return nil, err
		}
		children[i] = cp
	}
	r.e.counters.AddTagRecovered()
	tag, err := polyenc.RecoverTag(r.e.ring, f, children)
	if err != nil {
		r.e.counters.AddVerifyFailure()
		return nil, err
	}
	return tag, nil
}

// recoverNodeTagPacked is the fast-path tag recovery of node keys[0] from
// its children keys[1:]: server polynomials arrive as words (or pack
// once), client shares arrive packed from the share source, and the
// reconstruction plus eq. (2) solve stay in the word representation end
// to end. ok=false falls back to the big.Int path
// (fast path off, source without packed shares, or a polynomial with
// out-of-word coefficients or more than DegreeBound of them — e.g. a
// tampering server).
func (r *run) recoverNodeTagPacked(answers map[string]NodePoly, keys []drbg.NodeKey) (*big.Int, bool, error) {
	fp, okRing := r.e.ring.(*ring.FpCyclotomic)
	if !okRing || fp.Fast() == nil {
		return nil, false, nil
	}
	src, okSrc := r.e.shares.(sharing.PackedShareSource)
	if !okSrc {
		return nil, false, nil
	}
	vecs := make([][]uint64, len(keys))
	for i, k := range keys {
		ans, ok := answers[k.String()]
		if !ok {
			return nil, false, fmt.Errorf("core: server omitted polynomial for %s", k)
		}
		// A fresh vector reduced mod p: the server's words are read-only.
		sv, ok := ans.appendUint64s(nil)
		if !ok || len(sv) > fp.DegreeBound() {
			return nil, false, nil
		}
		fp.Fast().ReduceVec(sv, sv)
		cv, ok, err := src.PackedShare(k)
		if err != nil {
			return nil, false, err
		}
		if !ok || len(cv) > fp.DegreeBound() {
			// Over-long externally supplied shares (StaticSource over
			// unreduced figure values) take the big.Int path, which Reduces.
			return nil, false, nil
		}
		if len(sv) >= len(cv) {
			fp.AddPackedInto(sv, sv, cv)
			vecs[i] = sv
		} else {
			vecs[i] = fp.AddPacked(cv, sv)
		}
	}
	r.e.counters.AddTagRecovered()
	tag, err := polyenc.RecoverTagPacked(fp, vecs[0], vecs[1:])
	return tag, true, err
}
