// Command perfbench is the repository's end-to-end benchmark: three
// workloads (hot-read, cold-pool, update) driven through the public
// sssearch API, every answer checked against the plaintext oracle.
//
//	perfbench --workload hot-read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it runs
// the workload twice, untraced on the public API and then on the same
// stack rebuilt from the internal constructors with a timing seam at
// each layer boundary, and prints the per-layer metrics plus the tracing
// overhead. The last line of standard output is one JSON object; a wrong
// answer exits non-zero without it. See README.md for the workloads and
// metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// outDir, relative to the working directory, receives span files and the
// run's temporary store files.
const outDir = ".bench_build/perfbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are printed as text above the JSON line.
	notes []string
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: hot-read, cold-pool or update")
	seed := fs.Int64("seed", 1, "workload seed: the document and query order derive from it")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, ok := specs[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	in, err := makeInputs(sp, *seed)
	if err != nil {
		return err
	}
	res, err := measure(in, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		return err
	}
	for _, n := range res.notes {
		fmt.Fprintln(stdout, n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// measure runs the workload with its store files in a fresh directory
// under outDir, removed before any result is printed.
func measure(in *inputs, d time.Duration, trace bool) (res *result, err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil && rerr != nil {
			res, err = nil, rerr
		}
	}()
	if trace {
		spans := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", in.spec.name, in.seed))
		return tracedRun(in, dir, spans, d)
	}
	return endToEnd(in, dir, d)
}

// A --trace 0 run builds the deployment at least setupRepeats times and
// for at least setupMin; setup_s is the median and the last build serves
// the timed phase.
const (
	setupRepeats = 5
	setupMin     = 2 * time.Second
)

// endToEnd measures every end-to-end metric through the public API.
func endToEnd(in *inputs, dir string, d time.Duration) (res *result, err error) {
	var setups, outs, pubs []time.Duration
	var st *publicStack
	for start := time.Now(); len(setups) < setupRepeats || time.Since(start) < setupMin; {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		// Collect the previous deployment now, not during the next set-up.
		runtime.GC()
		if st, err = setupPublic(in, dir); err != nil {
			return nil, err
		}
		setups, outs, pubs = append(setups, st.setup), append(outs, st.outsource), append(pubs, st.publish)
	}
	runtime.GC()
	defer func() {
		if cerr := st.close(); err == nil && cerr != nil {
			res, err = nil, cerr
		}
	}()

	var own ownerResult
	var owner func(time.Time) error
	if in.spec.owner {
		owner = func(deadline time.Time) (err error) {
			own, err = publicOwner(st, deadline)
			return err
		}
	}
	rd, err := phase(in, st.search, owner, d)
	if err != nil {
		return nil, err
	}
	heap := heapMB()

	res = &result{Correct: true, Metrics: map[string]metric{}}
	res.Attempted, res.Failed = rd.attempted+own.attempted, rd.failed+own.failed
	if len(rd.lat) == 0 {
		return nil, errors.New("no search completed")
	}
	res.set("setup_s", median(setups).Seconds(), "s")
	res.set("read_p50_ms", ms(median(rd.lat)), "ms")
	tail, pct, beyond := tailLatency(rd.lat)
	res.set("read_qps", rd.qps, "1/s")
	rounds, kb := mixCost(in.spec, st.warm)
	res.set("rounds_per_query", rounds, "count")
	res.set("wire_kb_per_query", kb, "kB")
	if in.spec.owner {
		if len(own.publish) == 0 {
			return nil, errors.New("update: no publish completed")
		}
		pubs = own.publish
	}
	res.set("outsource_s", median(outs).Seconds(), "s")
	res.set("update_s", median(pubs).Seconds(), "s")
	res.set("store_bytes_per_elem", float64(st.served.ByteSize())/float64(in.elems), "B")
	res.set("heap_mb", heap, "MB")

	res.note("workload %s seed %d: %d elements, %d readers, %.1f s measured", in.spec.name, in.seed, in.elems, in.spec.readers, rd.elapsed.Seconds())
	for _, q := range queryMix {
		w := st.warm[q]
		qt := rd.byQuery[q]
		res.note("  %-40s %4d matches %4d rounds %8.1f kB %5d visited %4d recovered; %4d runs, mean %8.2f ms", q, len(in.expected[q]), w.Rounds, float64(w.BytesSent+w.BytesReceived)/1e3, w.NodesVisited, w.TagsRecovered, qt.n, ms(qt.total)/float64(max(qt.n, 1)))
	}
	// The tail is printed, not gated: on cold-pool its run-to-run spread
	// is wider than any bound the benchmark may set.
	res.note("read_tail_ms %.4f ms: p%d over %d searches (%d beyond it)", ms(tail), pct, len(rd.lat), beyond)
	res.note("fail_ratio %.4f (%d failed of %d attempted)", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	if in.spec.owner {
		res.note("update: %d publishes, one due every %v, the latest %v late; update_s is their median", len(own.publish), publishPeriod, own.late.Round(time.Millisecond))
	} else {
		res.note("update_s is the median of the %d set-ups' Outsource→ServeTCP", len(setups))
	}
	res.note("outsource_s is the median of the %d set-ups' Outsource", len(setups))
	return res, nil
}

// phase runs the readers, and the owner loop when there is one, for d.
func phase(in *inputs, search searchFn, owner func(time.Time) error, d time.Duration) (readResult, error) {
	deadline := time.Now().Add(d)
	ownErr := make(chan error, 1)
	if owner != nil {
		go func() { ownErr <- owner(deadline) }()
	} else {
		ownErr <- nil
	}
	rd, err := readLoop(in, newSequence(in.spec, in.seed), search, deadline)
	return rd, errors.Join(err, <-ownErr)
}
