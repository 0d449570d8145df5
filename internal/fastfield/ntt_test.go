package fastfield

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

// naiveDFT is the O(n^2) reference transform: dst[k] = Σ_j src[j]·ω^{jk}.
func naiveDFT(f *Field, w uint64, src []uint64, inverse bool) []uint64 {
	n := len(src)
	if inverse {
		winv, _ := f.Inv(w)
		w = winv
	}
	pow := make([]uint64, n) // pow[e] = ω^e
	pow[0] = 1
	for e := 1; e < n; e++ {
		pow[e] = f.Mul(pow[e-1], w)
	}
	dst := make([]uint64, n)
	for k := 0; k < n; k++ {
		var acc uint64
		for j := 0; j < n; j++ {
			acc = f.Add(acc, f.Mul(src[j], pow[j*k%n]))
		}
		dst[k] = acc
	}
	if inverse {
		nInv, _ := f.Inv(f.Reduce(uint64(n)))
		for k := range dst {
			dst[k] = f.Mul(dst[k], nInv)
		}
	}
	return dst
}

// transform is the natural-order DFT (inverse=false) or inverse DFT with
// the 1/n scaling (inverse=true) of src, zero-padded to n, built from the
// engine's in-place passes and the digit reversal between them.
func transform(t *NTT, src []uint64, inverse bool) []uint64 {
	// rev[p] is the frequency index the forward output holds at
	// position p: stage s contributes the digit p / m_s (mod radix_s) as
	// the s-th least significant digit of the frequency.
	rev := make([]int, t.n)
	for p := range rev {
		rem, scale := p, 1
		for _, st := range t.stages {
			rev[p] += rem / st.m * scale
			rem %= st.m
			scale *= st.radix
		}
	}
	x := make([]uint64, t.n)
	if !inverse {
		copy(x, src)
		t.forward(x)
		out := make([]uint64, t.n)
		for p, k := range rev {
			out[k] = x[p]
		}
		return out
	}
	for p, k := range rev {
		if k < len(src) {
			x[p] = src[k]
		}
	}
	t.inverse(x)
	for i, v := range x {
		x[i] = t.f.MRed(v, t.nInvM)
	}
	return x
}

// naiveCyclicMul is the schoolbook product in F_p[x]/(x^n - 1).
func naiveCyclicMul(f *Field, n int, a, b []uint64) []uint64 {
	out := make([]uint64, n)
	for i, ai := range a {
		for j, bj := range b {
			k := (i + j) % n
			out[k] = f.Add(out[k], f.Mul(ai, bj))
		}
	}
	return out
}

func randVec(rng *rand.Rand, f *Field, n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = rng.Uint64() % f.p
	}
	return v
}

// nttLengths are the transform lengths the tests pin: n = p-1 for the
// rings the tests build (256 = 2^8, 96 = 2^5·3, 30 = 2·3·5, 210 = 2·3·5·7,
// 1008 = 2^4·3^2·7, 366 = 2·3·61 with the largest radix), and proper
// divisors of p-1 (48 | 96, 9 | 1008, 1). 4099-1 = 2·3·683 is NOT smooth
// (683 > MaxRadix).
var nttLengths = []struct {
	p uint64
	n int
}{{257, 256}, {97, 96}, {31, 30}, {211, 210}, {1009, 1008}, {367, 366}, {97, 48}, {1009, 9}, {257, 1}}

func TestNTTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range nttLengths {
		f, err := New(c.p)
		if err != nil {
			t.Fatal(err)
		}
		ntt, err := NewNTT(f, c.n)
		if err != nil {
			t.Fatalf("p=%d n=%d: %v", c.p, c.n, err)
		}
		if f.Exp(ntt.w, uint64(c.n)) != 1 {
			t.Fatalf("p=%d n=%d: ω^n != 1", c.p, c.n)
		}
		// Short input exercises the zero padding.
		for _, l := range []int{c.n, c.n/2 + 1} {
			src := randVec(rng, f, l)
			padded := append(append([]uint64{}, src...), make([]uint64, c.n-l)...)
			got := transform(ntt, src, false)
			want := naiveDFT(f, ntt.w, padded, false)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("p=%d n=%d len=%d forward[%d]: got %d want %d", c.p, c.n, l, i, got[i], want[i])
				}
			}
			inv := transform(ntt, got, true)
			for i := range padded {
				if inv[i] != padded[i] {
					t.Fatalf("p=%d n=%d roundtrip[%d]: got %d want %d", c.p, c.n, i, inv[i], padded[i])
				}
			}
			wantInv := naiveDFT(f, ntt.w, padded, true)
			inv = transform(ntt, padded, true)
			for i := range wantInv {
				if inv[i] != wantInv[i] {
					t.Fatalf("p=%d n=%d inverse[%d]: got %d want %d", c.p, c.n, i, inv[i], wantInv[i])
				}
			}
		}
	}
}

func TestNTTMulCyclicMatchesSchoolbook(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, c := range nttLengths {
		f, _ := New(c.p)
		ntt, err := NewNTT(f, c.n)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			la, lb := 1+rng.Intn(c.n), 1+rng.Intn(c.n)
			if trial == 0 {
				la, lb = c.n, c.n
			}
			a, b := randVec(rng, f, la), randVec(rng, f, lb)
			got := make([]uint64, c.n)
			ntt.MulCyclicInto(got, a, b)
			want := naiveCyclicMul(f, c.n, a, b)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("p=%d n=%d trial=%d coeff %d: got %d want %d", c.p, c.n, trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestNTTProdCyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, c := range nttLengths {
		f, _ := New(c.p)
		ntt, err := NewNTT(f, c.n)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 5; k++ {
			factors := make([][]uint64, k)
			want := []uint64{1}
			for i := range factors {
				factors[i] = randVec(rng, f, 1+rng.Intn(c.n))
				want = naiveCyclicMul(f, c.n, want, factors[i])
			}
			got := make([]uint64, c.n)
			ntt.ProdCyclicInto(got, factors...)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("p=%d n=%d k=%d coeff %d: got %d want %d", c.p, c.n, k, i, got[i], want[i])
				}
			}
		}
	}
	// Empty product is the ring's one.
	f, _ := New(97)
	ntt, _ := NewNTT(f, 96)
	got := make([]uint64, 96)
	for i := range got {
		got[i] = 5
	}
	ntt.ProdCyclicInto(got, [][]uint64{}...)
	if got[0] != 1 {
		t.Fatalf("empty product: got %d want 1", got[0])
	}
	for _, v := range got[1:] {
		if v != 0 {
			t.Fatal("empty product has nonzero tail")
		}
	}
}

func TestNTTNotSmooth(t *testing.T) {
	// 226 = 2·113: 113 > MaxRadix.
	f, _ := New(227)
	if _, err := NewNTT(f, 226); err == nil {
		t.Fatal("expected ErrNotSmooth for n=226")
	}
}

func TestCyclicConvMatchesSchoolbook(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// 227-1 = 2·113 and 1283-1 = 2·641: both hit the fallback.
	for _, p := range []uint64{227, 1283} {
		f, _ := New(p)
		n := int(p - 1)
		conv := NewCyclicConv(f, n)
		for trial := 0; trial < 10; trial++ {
			la, lb := 1+rng.Intn(n), 1+rng.Intn(n)
			a, b := randVec(rng, f, la), randVec(rng, f, lb)
			got := make([]uint64, n)
			conv.MulCyclicInto(got, a, b)
			want := naiveCyclicMul(f, n, a, b)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("p=%d trial=%d coeff %d: got %d want %d", p, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCyclicConvCRTPath forces the two-prime CRT combine: a modulus wide
// enough that min(la,lb)·(p-1)^2 overflows the first auxiliary prime.
// (p-1)^2 ≈ 2^42 at p ≈ 2^21, so length ≥ 2^20 crosses q1 ≈ 2^62. A full
// malicious-size case would be slow; instead check the bound arithmetic by
// shrinking through the internal path with a big.Int cross-check on a
// moderate case that still satisfies onePrime=false is exercised in
// TestAuxPrimes below via direct bound math.
func TestCyclicConvCRTPath(t *testing.T) {
	// 1048573 is prime; 1048572 = 2^2·3·87381 = 2^2·3·3·29127... use
	// factorization-independent fallback: force CyclicConv regardless of
	// smoothness — the fallback works for any n.
	const p = 1048573
	f, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	// n chosen so minLen·(p-1)^2 > q1: (p-1)^2 ≈ 2^40, so minLen ≥ 2^22
	// would be needed — too slow for a unit test. Instead verify the CRT
	// lift directly on a small synthetic convolution by lowering the
	// single-prime bound: compute with both primes by hand.
	n := 1 << 12
	conv := NewCyclicConv(f, n)
	rng := rand.New(rand.NewSource(11))
	a, b := randVec(rng, f, 100), randVec(rng, f, 100)
	got := make([]uint64, n)
	// Force the two-prime path by pretending the bound does not fit.
	conv.pm1sq = 1 << 63
	conv.MulCyclicInto(got, a, b)
	want := naiveCyclicMul(f, n, a, b)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coeff %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestAuxPrimes(t *testing.T) {
	for _, q := range auxPrimes {
		bq := new(big.Int).SetUint64(q)
		if !bq.ProbablyPrime(64) {
			t.Fatalf("auxiliary modulus %d is not prime", q)
		}
		// Transform sizes reach 2^23 (linear convolution of two length-2^22
		// vectors); both primes must carry at least that adicity.
		if (q-1)%(1<<24) != 0 {
			t.Fatalf("auxiliary modulus %d lacks 2^24 adicity", q)
		}
	}
	if auxPrimes[0] <= auxPrimes[1] {
		t.Fatal("auxPrimes must be descending (bound check uses auxPrimes[0])")
	}
}

// TestNTTConcurrentUse hammers one shared NTT from many goroutines — the
// pooled-scratch path must be race-free (run under -race in CI).
func TestNTTConcurrentUse(t *testing.T) {
	f, _ := New(257)
	ntt, err := NewNTT(f, 256)
	if err != nil {
		t.Fatal(err)
	}
	a := randVec(rand.New(rand.NewSource(12)), f, 200)
	b := randVec(rand.New(rand.NewSource(13)), f, 150)
	want := naiveCyclicMul(f, 256, a, b)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]uint64, 256)
			for i := 0; i < 50; i++ {
				ntt.MulCyclicInto(got, a, b)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("concurrent mul diverged at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
