package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"sssearch"
	"sssearch/internal/sharing"
	"sssearch/internal/workload"
)

// spec fixes one workload's inputs and client topology. Every input is a
// pure function of the workload seed.
type spec struct {
	name string
	// units is the Auction size: Items = People = Auctions = units.
	units int
	// minElems is the smallest document the workload accepts.
	minElems int
	// readers is the number of closed-loop reader goroutines.
	readers int
	// pool selects one DialPool(addr, readers) session shared by all
	// readers; otherwise the single reader owns one Dial session.
	pool bool
	// weights gives the per-block count of each queryMix entry.
	weights []int
	// owner runs the Outsource → Save → Load → SwapStore loop beside the
	// reader.
	owner bool
}

// queryMix is every workload's query set: child paths, single- and
// two-step descendants, one structural miss (known tags, no match, so it
// still walks the tree before it prunes everything), and last
// //category, which makes one round trip and one tag recovery per match:
// the client recovery path. Every query matches a number of elements
// fixed by the document size, so costs barely move with the seed.
// Entries are in Zipf rank order for cold-pool, largest working sets
// first.
var queryMix = []string{
	"/site/people/person/name",
	"//open_auction//bidder",
	"//open_auction",
	"//item",
	"//person",
	"/site/open_auctions/open_auction/itemref",
	"//regions//item",
	"//person//increase",
	"//category",
}

// zipfWeights are per-block counts roughly proportional to 1/rank over
// queryMix, except that //category gets none: at cold-pool's size one run
// of it makes about 2400 round trips, longer than several other queries
// together, and it widened the run-to-run spread.
var zipfWeights = []int{9, 5, 3, 2, 2, 2, 1, 1, 0}

var uniformWeights = []int{1, 1, 1, 1, 1, 1, 1, 1, 1}

// specs are the three workloads. cold-pool's document is at least twice
// sharing.DefaultSharedPadNodes elements, so its working set overflows
// the client pad LRU (and partly the share-eval and server eval LRUs);
// update's 10k elements fit the client pad LRU, so only the server side
// goes cold on each swap.
var specs = map[string]spec{
	"hot-read":  {name: "hot-read", units: 100, readers: 1, weights: uniformWeights},
	"cold-pool": {name: "cold-pool", units: 2400, minElems: 2 * sharing.DefaultSharedPadNodes, readers: 2, pool: true, weights: zipfWeights},
	"update":    {name: "update", units: 700, readers: 1, weights: uniformWeights, owner: true},
}

// inputs is everything a run derives from (workload, seed).
type inputs struct {
	spec  spec
	seed  int64
	doc   *sssearch.Document
	elems int
	cfg   sssearch.Config
	// expected holds each query's oracle answer as sorted element paths.
	expected map[string][]string
}

func genDoc(sp spec, seed int64) *sssearch.Document {
	return workload.Auction(workload.AuctionConfig{Items: sp.units, People: sp.units, Auctions: sp.units, Seed: seed})
}

func makeInputs(sp spec, seed int64) (*inputs, error) {
	doc := genDoc(sp, seed)
	in := &inputs{spec: sp, seed: seed, doc: doc, elems: doc.Count(), expected: map[string][]string{}}
	if in.elems < sp.minElems {
		return nil, fmt.Errorf("%s: document has %d elements, want at least %d", sp.name, in.elems, sp.minElems)
	}
	// A fixed share seed and mapping secret per workload seed make every
	// re-outsourced store byte-identical, so swapping one under a live
	// query keeps its answers defined.
	in.cfg = sssearch.Config{Kind: sssearch.RingFp, Seed: sha256.Sum256(seedBytes("share", seed))}
	secret := sha256.Sum256(seedBytes("mapping", seed))
	in.cfg.Secret = secret[:]
	for _, q := range queryMix {
		paths, err := sssearch.EvaluatePlaintext(doc, q)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", q, err)
		}
		sort.Strings(paths)
		in.expected[q] = paths
	}
	return in, nil
}

func seedBytes(label string, seed int64) []byte {
	return binary.LittleEndian.AppendUint64([]byte("perfbench/"+label+"/"), uint64(seed))
}

// sequence hands out the workload's query stream: blocks that each hold
// every query its weight's number of times, each block shuffled by the
// seeded generator. A phase ends at the first block boundary after its
// deadline, so it runs whole blocks: exactly the workload's mix, whatever
// the seed. Safe for concurrent readers.
type sequence struct {
	mu    sync.Mutex
	rng   *rand.Rand
	block []string
	pos   int
}

func newSequence(sp spec, seed int64) *sequence {
	s := &sequence{rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
	for i, q := range queryMix {
		for j := 0; j < sp.weights[i]; j++ {
			s.block = append(s.block, q)
		}
	}
	s.pos = len(s.block)
	return s
}

// next returns the next query, or false at a block boundary once the
// deadline has passed.
func (s *sequence) next(deadline time.Time) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pos == len(s.block) {
		if !time.Now().Before(deadline) {
			return "", false
		}
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
		s.pos = 0
	}
	q := s.block[s.pos]
	s.pos++
	return q, true
}

// checkAnswer compares a search's matches, as element paths, with the
// plaintext oracle's paths.
func checkAnswer(in *inputs, q string, matches []sssearch.NodeKey) error {
	want := in.expected[q]
	if len(matches) != len(want) {
		return fmt.Errorf("wrong answer for %s: %d matches, oracle has %d", q, len(matches), len(want))
	}
	got := make([]string, len(matches))
	for i, k := range matches {
		n, err := in.doc.Lookup(k)
		if err != nil {
			return fmt.Errorf("wrong answer for %s: %w", q, err)
		}
		got[i] = n.PathString()
	}
	sort.Strings(got)
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("wrong answer for %s: got %s, oracle has %s", q, got[i], want[i])
		}
	}
	return nil
}

// mixWeight returns how often q occurs per block of sp's sequence.
func mixWeight(sp spec, q string) int {
	for i, m := range queryMix {
		if m == q {
			return sp.weights[i]
		}
	}
	return 0
}
