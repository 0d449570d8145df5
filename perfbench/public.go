package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sssearch"
)

// shutdownGrace bounds a daemon's graceful drain at teardown.
const shutdownGrace = 5 * time.Second

// searchFn runs one search and returns its match keys and protocol cost.
type searchFn func(q string) ([]sssearch.NodeKey, sssearch.Stats, error)

// publicStack is one deployment built only through the sssearch API.
type publicStack struct {
	in        *inputs
	storePath string
	key       *sssearch.ClientKey
	served    *sssearch.ServerStore
	daemon    *sssearch.Daemon
	sess      *sssearch.Session

	setup, outsource, publish time.Duration
	// warm holds each distinct query's cost from the warm-up pass.
	warm map[string]sssearch.Stats
}

// setupPublic times document generation → Outsource → ServeTCP →
// Dial/DialPool → one warm-up pass over every distinct query.
func setupPublic(in *inputs, dir string) (*publicStack, error) {
	start := time.Now()
	doc := genDoc(in.spec, in.seed)
	st := &publicStack{in: in, storePath: filepath.Join(dir, "public.sss")}
	t0 := time.Now()
	b, err := sssearch.Outsource(doc, in.cfg)
	if err != nil {
		return nil, fmt.Errorf("outsource: %w", err)
	}
	st.outsource = time.Since(t0)
	st.key, st.served = b.Key, b.Server
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if st.daemon, err = st.served.ServeTCP(l); err != nil {
		l.Close()
		return nil, fmt.Errorf("serve: %w", err)
	}
	st.publish = time.Since(t0)
	if in.spec.pool {
		st.sess, err = st.key.DialPool(l.Addr().String(), in.spec.readers)
	} else {
		st.sess, err = st.key.Dial(l.Addr().String())
	}
	if err != nil {
		st.close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	if st.warm, err = warmUp(in, st.search); err != nil {
		st.close()
		return nil, err
	}
	st.setup = time.Since(start)
	return st, nil
}

func (st *publicStack) search(q string) ([]sssearch.NodeKey, sssearch.Stats, error) {
	res, err := st.sess.Search(q)
	if err != nil {
		return nil, sssearch.Stats{}, err
	}
	return res.Matches, res.Stats, nil
}

// close tears the stack down: the session first (Daemon.Close waits on
// idle open sessions), then a bounded graceful daemon shutdown, then the
// store file. Closing twice is harmless.
func (st *publicStack) close() error {
	var errs []error
	if st.sess != nil {
		errs = append(errs, st.sess.Close())
		st.sess = nil
	}
	if st.daemon != nil {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		errs = append(errs, st.daemon.Shutdown(ctx))
		cancel()
		st.daemon = nil
	}
	errs = append(errs, removeIfExists(st.storePath))
	return errors.Join(errs...)
}

func removeIfExists(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// warmUp runs every query of the workload's mix once, in mix order, on
// one goroutine, checks each answer and keeps its cost. Rounds and bytes
// do not depend on cache state, so these per-query costs are exact for
// the seed.
func warmUp(in *inputs, search searchFn) (map[string]sssearch.Stats, error) {
	out := make(map[string]sssearch.Stats, len(queryMix))
	for _, q := range queryMix {
		if mixWeight(in.spec, q) == 0 {
			continue
		}
		matches, stats, err := search(q)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", q, err)
		}
		if err := checkAnswer(in, q, matches); err != nil {
			return nil, err
		}
		out[q] = stats
	}
	return out, nil
}

// mixCost is the mix-weighted mean of the warm-up pass's per-query costs:
// rounds and wire kilobytes (sent + received) per query.
func mixCost(sp spec, warm map[string]sssearch.Stats) (rounds, kb float64) {
	var n float64
	for q, s := range warm {
		w := float64(mixWeight(sp, q))
		n += w
		rounds += w * float64(s.Rounds)
		kb += w * float64(s.BytesSent+s.BytesReceived) / 1e3
	}
	return rounds / n, kb / n
}

// readResult is what the closed-loop readers of one phase measured.
type readResult struct {
	lat []time.Duration
	// byQuery totals the latency of each distinct query.
	byQuery   map[string]queryTime
	attempted int
	failed    int
	elapsed   time.Duration
	// qps sums each reader's completed searches per second of its own
	// loop, so the tail of the last block, when one reader may already
	// be idle, does not count against the other.
	qps float64
}

type queryTime struct {
	n     int
	total time.Duration
}

// readLoop runs the workload's readers in a closed loop until the block
// in flight at deadline is done: each reader sends its next query only
// after the previous one returned.
// A search error counts as failed; a wrong answer aborts the phase.
func readLoop(in *inputs, seq *sequence, search searchFn, deadline time.Time) (readResult, error) {
	var (
		mu    sync.Mutex
		res   readResult
		wrong error
		stop  atomic.Bool
		wg    sync.WaitGroup
	)
	res.byQuery = map[string]queryTime{}
	start := time.Now()
	for r := 0; r < in.spec.readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []time.Duration
			byQuery := map[string]queryTime{}
			attempted, failed := 0, 0
			for !stop.Load() {
				q, ok := seq.next(deadline)
				if !ok {
					break
				}
				t0 := time.Now()
				matches, _, err := search(q)
				d := time.Since(t0)
				attempted++
				if err != nil {
					failed++
					continue
				}
				if err := checkAnswer(in, q, matches); err != nil {
					mu.Lock()
					wrong = err
					mu.Unlock()
					stop.Store(true)
					return
				}
				lat = append(lat, d)
				qt := byQuery[q]
				byQuery[q] = queryTime{qt.n + 1, qt.total + d}
			}
			busy := time.Since(start)
			mu.Lock()
			if busy > 0 {
				res.qps += float64(len(lat)) / busy.Seconds()
			}
			res.lat = append(res.lat, lat...)
			for q, qt := range byQuery {
				t := res.byQuery[q]
				res.byQuery[q] = queryTime{t.n + qt.n, t.total + qt.total}
			}
			res.attempted += attempted
			res.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res, wrong
}

// errStoreMismatch aborts an update run: re-outsourcing with a fixed seed
// and secret must reproduce the served store byte for byte.
var errStoreMismatch = errors.New("update: re-outsourced store differs from the served one")

// publishPeriod is how often the update owner starts a publish. The owner
// runs an open loop: a publish starts on schedule, or at once if the
// previous one overran. Publishing takes about a third of the period on
// a 2-CPU machine, so most reads run beside no publish and the rest show
// what a publish costs them.
const publishPeriod = 3 * time.Second

// waitUntil sleeps until due and returns how late the caller already was.
func waitUntil(due time.Time) time.Duration {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
		return 0
	}
	return time.Since(due)
}

// ownerResult is what the update owner loop measured.
type ownerResult struct {
	publish           []time.Duration
	attempted, failed int
	// late is the longest a publish started after it was due.
	late time.Duration
}

// publicOwner re-publishes the document every publishPeriod until
// deadline: Outsource → Save → LoadServerStore → SwapStore. Every new
// store must be byte-identical to the served one; a difference aborts
// the run.
func publicOwner(st *publicStack, deadline time.Time) (ownerResult, error) {
	var res ownerResult
	if err := st.served.Save(st.storePath); err != nil {
		return res, err
	}
	want, err := os.ReadFile(st.storePath)
	if err != nil {
		return res, err
	}
	path := filepath.Join(filepath.Dir(st.storePath), "public-publish.sss")
	defer os.Remove(path)
	for due := time.Now(); due.Before(deadline); due = due.Add(publishPeriod) {
		res.late = max(res.late, waitUntil(due))
		res.attempted++
		t0 := time.Now()
		b, err := sssearch.Outsource(st.in.doc, st.in.cfg)
		if err != nil {
			res.failed++
			continue
		}
		if err := b.Server.Save(path); err != nil {
			res.failed++
			continue
		}
		next, err := sssearch.LoadServerStore(path)
		if err != nil {
			res.failed++
			continue
		}
		if _, err := st.daemon.SwapStore(next); err != nil {
			res.failed++
			continue
		}
		res.publish = append(res.publish, time.Since(t0))
		got, err := os.ReadFile(path)
		if err != nil {
			return res, err
		}
		if !bytes.Equal(got, want) {
			return res, errStoreMismatch
		}
	}
	return res, nil
}
