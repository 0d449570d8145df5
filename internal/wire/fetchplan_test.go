package wire

import (
	"math"
	"testing"

	"sssearch/internal/core"
	"sssearch/internal/drbg"
)

// TestPlanFetchChunksFitFrame: core plans recovery fetches against the
// frame limit without importing this package, so the two constants must
// agree, and every planned chunk's worst-case response — every
// coefficient a full word, the widest ID and child count — must encode
// within one frame.
func TestPlanFetchChunksFitFrame(t *testing.T) {
	if core.MaxFetchResponse != MaxFrameSize {
		t.Fatalf("core.MaxFetchResponse = %d, wire.MaxFrameSize = %d", core.MaxFetchResponse, MaxFrameSize)
	}
	if got := core.PlanFetch(nil, 256); len(got) != 0 {
		t.Fatalf("empty fetch planned as %d chunks", len(got))
	}
	for _, tc := range []struct {
		name        string
		degreeBound int
		keys        int
		chunks      int
	}{
		// F_257: thousands of answers fit one frame.
		{"fp257", 256, 2000, 1},
		// F_65537: ~25 worst-case answers per frame.
		{"fp65537", 65536, 60, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys := make([]drbg.NodeKey, tc.keys)
			for i := range keys {
				// Deep keys with wide components stress the key bound too.
				keys[i] = drbg.NodeKey{math.MaxUint32, uint32(i), 1 << 20, 7}
			}
			chunks := core.PlanFetch(keys, tc.degreeBound)
			if len(chunks) != tc.chunks {
				t.Fatalf("%d chunks, want %d", len(chunks), tc.chunks)
			}
			words := make([]uint64, tc.degreeBound)
			for i := range words {
				words[i] = math.MaxUint64
			}
			next := 0
			for ci, chunk := range chunks {
				if len(chunk) == 0 {
					t.Fatalf("chunk %d is empty", ci)
				}
				answers := make([]core.NodePoly, len(chunk))
				for i, k := range chunk {
					if k.String() != keys[next].String() {
						t.Fatalf("chunk %d reorders keys at %d", ci, next)
					}
					next++
					answers[i] = core.NodePoly{Key: k, Words: words, NumChildren: maxListLen}
				}
				payload, err := EncodeFetchResp(FetchResp{ID: math.MaxUint64, Answers: answers})
				if err != nil {
					t.Fatal(err)
				}
				if len(payload) > MaxFrameSize {
					t.Fatalf("chunk %d: worst-case response %d B exceeds the %d B frame", ci, len(payload), MaxFrameSize)
				}
			}
			if next != len(keys) {
				t.Fatalf("chunks cover %d of %d keys", next, len(keys))
			}
		})
	}
}
