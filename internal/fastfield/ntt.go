package fastfield

import (
	"errors"
	"fmt"
	"sync"
)

// This file implements the number-theoretic transform behind the packed
// polynomial multiply of ring.FpCyclotomic. The quotient F_p[x]/(x^{p-1}-1)
// is cyclic convolution of length n = p-1, and F_p^* is cyclic of exactly
// that order, so F_p always contains a primitive n-th root of unity ω (any
// generator of F_p^*): the length-n DFT over F_p itself diagonalizes the
// ring product. When n factors into small primes the transform runs as an
// iterative, in-place mixed-radix Cooley-Tukey transform in O(n log n)
// Montgomery operations; when n has a large prime factor the convolution
// fallback in conv.go takes over (see there). Schoolbook multiplication
// remains the right choice for short products — the cutover lives in
// ring.MulPacked, not here.
//
// Data flow: the forward transform is a decimation in frequency that
// leaves the spectrum in digit-reversed order; the inverse is the
// matching decimation in time that takes digit-reversed input back to
// natural order. Products multiply pointwise in between, so they never
// permute. Each stage reads its own contiguous twiddle table, built once
// in NewNTT, immutable afterwards, and shared read-only across any number
// of concurrent transforms; scratch vectors come from an internal pool so
// steady-state multiplies do not allocate.

// MaxRadix is the largest prime factor of the transform length the
// mixed-radix path accepts. Lengths with a larger factor return
// ErrNotSmooth from NewNTT (callers fall back to the convolution engine).
// 61 keeps the generic-radix butterfly's gather buffer on the stack.
const MaxRadix = 61

// ErrNotSmooth reports a transform length whose largest prime factor
// exceeds MaxRadix.
var ErrNotSmooth = errors.New("fastfield: transform length not smooth enough for the mixed-radix NTT")

// NTT is a cached number-theoretic transform of fixed length n over F_p.
// Immutable after NewNTT; safe for concurrent use.
type NTT struct {
	f *Field
	n int
	// w is the primitive n-th root of unity ω the transform uses (plain
	// form).
	w uint64
	// stages run front to back in the forward transform and back to
	// front in the inverse, one per prime factor of n in ascending order.
	stages []nttStage
	// nInvM is n^{-1} mod p in Montgomery form — the inverse-transform
	// scaling factor; prodM = n^{-1}·R^2 mod p is the lift that folds that
	// scaling into a product's pointwise pass (see mulSpectra).
	nInvM, prodM uint64
	// bufs pools length-n scratch vectors for transforms and products.
	bufs sync.Pool
}

// nttStage is one radix pass over blocks of size radix·m: element i of a
// block combines with its radix-1 partners at stride m. All tables hold
// Montgomery forms.
type nttStage struct {
	radix, m int
	// tw[i·(radix-1) + k-1] = ω_N^{i·k} for the block size N = radix·m,
	// i < m and 1 ≤ k < radix. The radix-2 inverse reads it mirrored
	// (ω_N^{-i} = -ω_N^{m-i}); other radices keep twInv, the same table
	// for ω_N^{-1}.
	tw, twInv []uint64
	// root[e] = ω_r^e and rootInv[e] = ω_r^{-e} for e < radix: the small
	// DFT of the generic butterfly (nil for radix 2).
	root, rootInv []uint64
}

// factorSmooth returns the ascending prime factorization of n, or
// ErrNotSmooth when a prime factor exceeds MaxRadix.
func factorSmooth(n int) ([]int, error) {
	var plan []int
	m := n
	for f := 2; f <= MaxRadix && f*f <= m; f++ {
		for m%f == 0 {
			plan = append(plan, f)
			m /= f
		}
	}
	if m > 1 {
		if m > MaxRadix {
			return nil, fmt.Errorf("%w: %d has prime factor %d", ErrNotSmooth, n, m)
		}
		plan = append(plan, m)
	}
	return plan, nil
}

// rootOfUnity finds an element of exact multiplicative order n in F_p,
// given the prime factors of n. Requires n | p-1 (F_p^* is cyclic, so such
// elements exist exactly then).
func rootOfUnity(f *Field, n int, factors []int) (uint64, error) {
	if n < 1 || (f.p-1)%uint64(n) != 0 {
		return 0, fmt.Errorf("fastfield: no order-%d root of unity mod %d", n, f.p)
	}
	if n == 1 {
		return 1, nil
	}
	exp := (f.p - 1) / uint64(n)
	// Distinct prime factors of n, for the exact-order check.
	var distinct []int
	for i, q := range factors {
		if i == 0 || q != factors[i-1] {
			distinct = append(distinct, q)
		}
	}
search:
	for a := uint64(2); a < f.p; a++ {
		w := f.Exp(a, exp)
		if w == 0 || w == 1 {
			continue
		}
		// ord(w) divides n; it equals n iff w^{n/q} != 1 for every prime
		// q | n.
		for _, q := range distinct {
			if f.Exp(w, uint64(n/q)) == 1 {
				continue search
			}
		}
		return w, nil
	}
	return 0, fmt.Errorf("fastfield: no order-%d root of unity mod %d found", n, f.p)
}

// NewNTT builds the transform tables for length n over f. It returns
// ErrNotSmooth when n has a prime factor above MaxRadix — the caller then
// falls back to NewCyclicConv. Table memory is at most 8n bytes for the
// forward twiddles (radix-2 stages share them with the inverse) plus as
// much again for the inverse twiddles of other radices, and pooled
// scratch; build cost is O(n) Montgomery multiplies plus the root search.
func NewNTT(f *Field, n int) (*NTT, error) {
	if n < 1 {
		return nil, fmt.Errorf("fastfield: invalid NTT length %d", n)
	}
	plan, err := factorSmooth(n)
	if err != nil {
		return nil, err
	}
	w, err := rootOfUnity(f, n, plan)
	if err != nil {
		return nil, err
	}
	nInv, ok := f.Inv(f.Reduce(uint64(n)))
	if !ok {
		// n = p-1 (or a divisor) is never ≡ 0 mod p.
		return nil, fmt.Errorf("fastfield: transform length %d not invertible mod %d", n, f.p)
	}
	wInv, _ := f.Inv(w)
	t := &NTT{f: f, n: n, w: w, nInvM: f.MForm(nInv)}
	t.prodM = f.MRed(t.nInvM, f.r2)
	size := n
	for _, r := range plan {
		st := nttStage{radix: r, m: size / r}
		// ω_N = ω^{n/N} for this stage's block size N.
		st.tw = stageTwiddles(f, f.Exp(w, uint64(n/size)), r, st.m)
		if r != 2 {
			st.twInv = stageTwiddles(f, f.Exp(wInv, uint64(n/size)), r, st.m)
			st.root = powers(f, f.Exp(w, uint64(n/r)), r)
			st.rootInv = powers(f, f.Exp(wInv, uint64(n/r)), r)
		}
		t.stages = append(t.stages, st)
		size = st.m
	}
	t.bufs.New = func() any { v := make([]uint64, n); return &v }
	return t, nil
}

// powers returns ω^0, …, ω^{k-1} in Montgomery form.
func powers(f *Field, w uint64, k int) []uint64 {
	wM := f.MForm(w)
	out := make([]uint64, k)
	out[0] = f.one
	for e := 1; e < k; e++ {
		out[e] = f.MRed(out[e-1], wM)
	}
	return out
}

// stageTwiddles returns ω^{i·k} in Montgomery form for i < m and
// 1 ≤ k < r, row-major in i: a stage's twiddle table (radix r, stride m).
func stageTwiddles(f *Field, w uint64, r, m int) []uint64 {
	out := make([]uint64, 0, m*(r-1))
	for _, wi := range powers(f, w, m) {
		x := f.one
		for k := 1; k < r; k++ {
			x = f.MRed(x, wi)
			out = append(out, x)
		}
	}
	return out
}

func (t *NTT) getBuf() *[]uint64 { return t.bufs.Get().(*[]uint64) }
func (t *NTT) putBuf(b *[]uint64) {
	t.bufs.Put(b)
}

// load copies src into dst (length n), zero-padding past len(src).
func load(dst, src []uint64) {
	k := copy(dst, src)
	clear(dst[k:])
}

// forward runs the decimation-in-frequency transform in place: natural
// order in, digit-reversed spectrum out (stage 0's digit most
// significant).
func (t *NTT) forward(x []uint64) {
	// A local copy keeps the modulus in registers across the loops.
	f := *t.f
	for si := range t.stages {
		st := &t.stages[si]
		m := st.m
		switch {
		case st.radix != 2:
			t.forwardGeneric(x, st)
		case m == 1:
			// Last stage: the only twiddle is ω^0 = 1.
			for b := 0; b+1 < len(x); b += 2 {
				a, c := x[b], x[b+1]
				x[b], x[b+1] = f.Add(a, c), f.Sub(a, c)
			}
		default:
			for b := 0; b < t.n; b += 2 * m {
				lo, hi := x[b:b+m], x[b+m:b+2*m]
				hi, tw := hi[:len(lo)], st.tw[:len(lo)]
				for i, a := range lo {
					c := hi[i]
					lo[i] = f.Add(a, c)
					// a - c + p < 2p is in MRed's input range.
					hi[i] = f.MRed(a+f.p-c, tw[i])
				}
			}
		}
	}
}

// inverse runs the decimation-in-time transform in place, undoing forward
// without the 1/n scaling: digit-reversed spectrum in, natural order out.
func (t *NTT) inverse(x []uint64) {
	f := *t.f
	for si := len(t.stages) - 1; si >= 0; si-- {
		st := &t.stages[si]
		m := st.m
		if st.radix != 2 {
			t.inverseGeneric(x, st)
			continue
		}
		for b := 0; b < t.n; b += 2 * m {
			lo, hi, tw := x[b:b+m], x[b+m:b+2*m], st.tw[:m]
			a, c := lo[0], hi[0]
			lo[0], hi[0] = f.Add(a, c), f.Sub(a, c)
			// For i ≥ 1, hi[i]·ω_N^{-i} = -hi[i]·ω_N^{m-i}: the forward
			// table read mirrored, with the butterfly's signs swapped.
			for i := 1; i < m; i++ {
				a, d := lo[i], f.MRed(hi[i], tw[m-i])
				lo[i] = f.Sub(a, d)
				hi[i] = f.Add(a, d)
			}
		}
	}
}

// forwardGeneric is one decimation-in-frequency pass of an odd radix r:
// per element i of each block, a length-r DFT across the r partners at
// stride m, each output k then scaled by the twiddle ω_N^{i·k}.
func (t *NTT) forwardGeneric(x []uint64, st *nttStage) {
	f := t.f
	r, m := st.radix, st.m
	var s [MaxRadix]uint64
	for b := 0; b < t.n; b += r * m {
		for i := 0; i < m; i++ {
			for j := 0; j < r; j++ {
				s[j] = x[b+i+j*m]
			}
			tw := st.tw[i*(r-1) : (i+1)*(r-1)]
			for k := 0; k < r; k++ {
				acc := s[0]
				// e tracks (j·k) mod r incrementally.
				e := 0
				for j := 1; j < r; j++ {
					if e += k; e >= r {
						e -= r
					}
					acc = f.Add(acc, f.MRed(s[j], st.root[e]))
				}
				if k > 0 {
					acc = f.MRed(acc, tw[k-1])
				}
				x[b+i+k*m] = acc
			}
		}
	}
}

// inverseGeneric undoes forwardGeneric without scaling: the partners are
// first unscaled by ω_N^{-i·k}, then combined by a length-r inverse DFT.
func (t *NTT) inverseGeneric(x []uint64, st *nttStage) {
	f := t.f
	r, m := st.radix, st.m
	var s [MaxRadix]uint64
	for b := 0; b < t.n; b += r * m {
		for i := 0; i < m; i++ {
			tw := st.twInv[i*(r-1) : (i+1)*(r-1)]
			s[0] = x[b+i]
			for k := 1; k < r; k++ {
				s[k] = f.MRed(x[b+i+k*m], tw[k-1])
			}
			for j := 0; j < r; j++ {
				acc := s[0]
				e := 0
				for k := 1; k < r; k++ {
					if e += j; e >= r {
						e -= r
					}
					acc = f.Add(acc, f.MRed(s[k], st.rootInv[e]))
				}
				x[b+i+j*m] = acc
			}
		}
	}
}

// MulCyclicInto writes the length-n cyclic convolution of a and b (each of
// length ≤ n, canonical coefficients) into dst (length n): the product in
// F_p[x]/(x^n - 1). dst must not alias a or b. Allocation-free in steady
// state (pooled scratch).
func (t *NTT) MulCyclicInto(dst, a, b []uint64) {
	if len(dst) != t.n {
		panic("fastfield: MulCyclicInto dst length mismatch")
	}
	fb := t.getBuf()
	defer t.putBuf(fb)
	vb := *fb
	load(dst, a)
	load(vb, b)
	t.forward(dst)
	t.forward(vb)
	t.mulSpectra(dst, vb, t.prodM)
	t.inverse(dst)
}

// mulSpectra sets acc[i] = acc[i]·v[i]·c, where the lift c·R^2 is passed
// as lift: f.r2 for the plain pointwise product, prodM to fold in the
// inverse transform's 1/n. Each product is two Montgomery reductions.
func (t *NTT) mulSpectra(acc, v []uint64, lift uint64) {
	f := t.f
	v = v[:len(acc)]
	for i, x := range acc {
		acc[i] = f.MRed(x, f.MRed(v[i], lift))
	}
}

// ProdCyclicInto writes the cyclic product of all factors into dst (length
// n): each factor is transformed once, multiplied pointwise into one
// accumulator, and a single inverse transform recovers the coefficients —
// the shape the bottom-up tree encode wants, where an interior node
// multiplies its tag factor against every child product. dst must not
// alias any factor.
func (t *NTT) ProdCyclicInto(dst []uint64, factors ...[]uint64) {
	if len(dst) != t.n {
		panic("fastfield: ProdCyclicInto dst length mismatch")
	}
	if len(factors) == 0 {
		clear(dst)
		dst[0] = 1
		return
	}
	fb := t.getBuf()
	defer t.putBuf(fb)
	vb := *fb
	load(dst, factors[0])
	t.forward(dst)
	last := len(factors) - 1
	if last == 0 {
		for i, x := range dst {
			dst[i] = t.f.MRed(x, t.nInvM)
		}
	}
	for fi := 1; fi <= last; fi++ {
		load(vb, factors[fi])
		t.forward(vb)
		lift := t.f.r2
		if fi == last {
			lift = t.prodM
		}
		t.mulSpectra(dst, vb, lift)
	}
	t.inverse(dst)
}
