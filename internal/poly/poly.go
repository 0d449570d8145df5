// Package poly implements dense univariate polynomials with big.Int
// coefficients — the carrier representation for XML element encodings.
//
// A Poly is immutable once created: every operation returns a fresh value
// and arguments are never mutated. The canonical form has no trailing zero
// coefficients; the zero polynomial has an empty coefficient slice and
// degree -1.
//
// Arithmetic here is plain Z[x]; quotient-ring reduction (mod p, mod r(x),
// mod x^{p-1}-1) lives in package ring.
//
// big.Int is the reference representation. The binary encoding (see
// MarshalBinary) is also written and read straight from word coefficients
// by AppendWords and DecodeWords: the wire and disk fast path for packed
// F_p share polynomials. Both sides produce and accept the same bytes, so
// the format does not depend on which representation is in memory.
package poly

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"strings"
)

// Poly is a dense polynomial c[0] + c[1]·x + … + c[d]·x^d over Z.
type Poly struct {
	c []*big.Int
}

// karatsubaThreshold is the degree above which multiplication switches from
// schoolbook to Karatsuba. Chosen empirically; see BenchmarkMulCrossover.
const karatsubaThreshold = 32

var (
	// ErrDivisorNotMonic is returned by DivMod for non-monic divisors
	// (integer polynomial division is only closed for monic divisors).
	ErrDivisorNotMonic = errors.New("poly: divisor is not monic")
	// ErrDivByZero is returned when dividing by the zero polynomial.
	ErrDivByZero = errors.New("poly: division by zero polynomial")
)

// Zero returns the zero polynomial.
func Zero() Poly { return Poly{} }

// One returns the constant polynomial 1.
func One() Poly { return FromInt64(1) }

// X returns the polynomial x.
func X() Poly { return New(big.NewInt(0), big.NewInt(1)) }

// New builds a polynomial from coefficients in ascending degree order
// (coeffs[i] is the coefficient of x^i). The coefficients are copied.
func New(coeffs ...*big.Int) Poly {
	c := make([]*big.Int, len(coeffs))
	for i, v := range coeffs {
		if v == nil {
			c[i] = new(big.Int)
		} else {
			c[i] = new(big.Int).Set(v)
		}
	}
	return Poly{c: c}.trim()
}

// FromInt64 builds a polynomial from int64 coefficients in ascending order.
func FromInt64(coeffs ...int64) Poly {
	c := make([]*big.Int, len(coeffs))
	for i, v := range coeffs {
		c[i] = big.NewInt(v)
	}
	return Poly{c: c}.trim()
}

// NewUint64 builds a polynomial from uint64 coefficients in ascending
// degree order — the boundary conversion out of the packed word-sized
// representation (package fastfield).
//
// On 64-bit platforms the coefficients share three backing arrays (words,
// big.Int headers, pointer slice) instead of one heap object per
// coefficient: this conversion sits on the outsourcing hot path, where
// per-coefficient boxing used to dominate the whole pipeline. Each
// coefficient's word slice is capped at one word, so the usual copy-on-
// write big.Int arithmetic can never scribble over a neighbour.
func NewUint64(coeffs []uint64) Poly {
	if bits.UintSize < 64 {
		c := make([]*big.Int, len(coeffs))
		for i, v := range coeffs {
			c[i] = new(big.Int).SetUint64(v)
		}
		return Poly{c: c}.trim()
	}
	words := make([]big.Word, len(coeffs))
	ints := make([]big.Int, len(coeffs))
	c := make([]*big.Int, len(coeffs))
	for i, v := range coeffs {
		if v != 0 {
			words[i] = big.Word(v)
			ints[i].SetBits(words[i : i+1 : i+1])
		}
		c[i] = &ints[i]
	}
	return Poly{c: c}.trim()
}

// Uint64Coeffs appends the coefficients to dst as uint64 values in
// ascending degree order. It reports ok=false (returning dst truncated to
// its original length) when any coefficient is negative or wider than a
// word; callers then fall back to the big.Int path. Unlike Coeffs, no
// big.Int copies are made.
func (p Poly) Uint64Coeffs(dst []uint64) ([]uint64, bool) {
	mark := len(dst)
	for _, v := range p.c {
		if v.Sign() < 0 || !v.IsUint64() {
			return dst[:mark], false
		}
		dst = append(dst, v.Uint64())
	}
	return dst, true
}

// Linear returns the monic linear polynomial (x - root).
func Linear(root *big.Int) Poly {
	return New(new(big.Int).Neg(root), big.NewInt(1))
}

// Monomial returns coeff·x^deg.
func Monomial(coeff *big.Int, deg int) Poly {
	if deg < 0 {
		panic("poly: negative monomial degree")
	}
	c := make([]*big.Int, deg+1)
	for i := range c {
		c[i] = new(big.Int)
	}
	c[deg].Set(coeff)
	return Poly{c: c}.trim()
}

// trim drops trailing zero coefficients, establishing canonical form.
func (p Poly) trim() Poly {
	n := len(p.c)
	for n > 0 && p.c[n-1].Sign() == 0 {
		n--
	}
	return Poly{c: p.c[:n]}
}

// Degree returns the degree of p, with -1 for the zero polynomial.
func (p Poly) Degree() int { return len(p.c) - 1 }

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return len(p.c) == 0 }

// Len returns the number of stored coefficients (degree+1, or 0 for zero).
func (p Poly) Len() int { return len(p.c) }

// Coeff returns (a copy of) the coefficient of x^i; zero for i out of range.
func (p Poly) Coeff(i int) *big.Int {
	if i < 0 || i >= len(p.c) {
		return new(big.Int)
	}
	return new(big.Int).Set(p.c[i])
}

// Coeffs returns a deep copy of the coefficient slice in ascending order.
func (p Poly) Coeffs() []*big.Int {
	out := make([]*big.Int, len(p.c))
	for i, v := range p.c {
		out[i] = new(big.Int).Set(v)
	}
	return out
}

// LeadingCoeff returns the coefficient of the highest-degree term (zero for
// the zero polynomial).
func (p Poly) LeadingCoeff() *big.Int {
	if len(p.c) == 0 {
		return new(big.Int)
	}
	return new(big.Int).Set(p.c[len(p.c)-1])
}

// IsMonic reports whether the leading coefficient is exactly 1.
func (p Poly) IsMonic() bool {
	return len(p.c) > 0 && p.c[len(p.c)-1].Cmp(big.NewInt(1)) == 0
}

// Equal reports structural equality (as elements of Z[x]).
func (p Poly) Equal(q Poly) bool {
	if len(p.c) != len(q.c) {
		return false
	}
	for i := range p.c {
		if p.c[i].Cmp(q.c[i]) != 0 {
			return false
		}
	}
	return true
}

// Add returns p + q.
func (p Poly) Add(q Poly) Poly {
	n := max(len(p.c), len(q.c))
	c := make([]*big.Int, n)
	for i := range c {
		c[i] = new(big.Int)
		if i < len(p.c) {
			c[i].Add(c[i], p.c[i])
		}
		if i < len(q.c) {
			c[i].Add(c[i], q.c[i])
		}
	}
	return Poly{c: c}.trim()
}

// Sub returns p - q.
func (p Poly) Sub(q Poly) Poly {
	n := max(len(p.c), len(q.c))
	c := make([]*big.Int, n)
	for i := range c {
		c[i] = new(big.Int)
		if i < len(p.c) {
			c[i].Add(c[i], p.c[i])
		}
		if i < len(q.c) {
			c[i].Sub(c[i], q.c[i])
		}
	}
	return Poly{c: c}.trim()
}

// Neg returns -p.
func (p Poly) Neg() Poly {
	c := make([]*big.Int, len(p.c))
	for i, v := range p.c {
		c[i] = new(big.Int).Neg(v)
	}
	return Poly{c: c}
}

// MulScalar returns k·p.
func (p Poly) MulScalar(k *big.Int) Poly {
	if k.Sign() == 0 {
		return Zero()
	}
	c := make([]*big.Int, len(p.c))
	for i, v := range p.c {
		c[i] = new(big.Int).Mul(v, k)
	}
	return Poly{c: c}.trim()
}

// ShiftDeg returns p·x^k (k >= 0).
func (p Poly) ShiftDeg(k int) Poly {
	if k < 0 {
		panic("poly: negative shift")
	}
	if p.IsZero() {
		return Zero()
	}
	c := make([]*big.Int, len(p.c)+k)
	for i := 0; i < k; i++ {
		c[i] = new(big.Int)
	}
	for i, v := range p.c {
		c[i+k] = new(big.Int).Set(v)
	}
	return Poly{c: c}
}

// Mul returns p·q, using schoolbook multiplication for small operands and
// Karatsuba above karatsubaThreshold.
func (p Poly) Mul(q Poly) Poly {
	if p.IsZero() || q.IsZero() {
		return Zero()
	}
	if len(p.c) < karatsubaThreshold || len(q.c) < karatsubaThreshold {
		return p.mulSchoolbook(q)
	}
	return p.mulKaratsuba(q)
}

func (p Poly) mulSchoolbook(q Poly) Poly {
	c := make([]*big.Int, len(p.c)+len(q.c)-1)
	for i := range c {
		c[i] = new(big.Int)
	}
	var t big.Int
	for i, a := range p.c {
		if a.Sign() == 0 {
			continue
		}
		for j, b := range q.c {
			if b.Sign() == 0 {
				continue
			}
			t.Mul(a, b)
			c[i+j].Add(c[i+j], &t)
		}
	}
	return Poly{c: c}.trim()
}

// mulKaratsuba implements the classic three-multiplication split:
// p = p0 + p1·x^m, q = q0 + q1·x^m,
// p·q = p0q0 + ((p0+p1)(q0+q1) − p0q0 − p1q1)·x^m + p1q1·x^{2m}.
func (p Poly) mulKaratsuba(q Poly) Poly {
	m := max(len(p.c), len(q.c)) / 2
	p0, p1 := p.split(m)
	q0, q1 := q.split(m)
	z0 := p0.Mul(q0)
	z2 := p1.Mul(q1)
	z1 := p0.Add(p1).Mul(q0.Add(q1)).Sub(z0).Sub(z2)
	return z0.Add(z1.ShiftDeg(m)).Add(z2.ShiftDeg(2 * m))
}

// split returns (low, high) with p = low + high·x^m.
func (p Poly) split(m int) (lo, hi Poly) {
	if m >= len(p.c) {
		return Poly{c: p.c}.trim(), Zero()
	}
	return Poly{c: p.c[:m]}.trim(), Poly{c: p.c[m:]}.trim()
}

// Pow returns p^e for e >= 0 by binary exponentiation.
func (p Poly) Pow(e int) Poly {
	if e < 0 {
		panic("poly: negative exponent")
	}
	result := One()
	base := p
	for e > 0 {
		if e&1 == 1 {
			result = result.Mul(base)
		}
		base = base.Mul(base)
		e >>= 1
	}
	return result
}

// Product multiplies a list of polynomials with a balanced reduction tree,
// keeping intermediate degrees as low as possible.
func Product(ps []Poly) Poly {
	switch len(ps) {
	case 0:
		return One()
	case 1:
		return ps[0]
	}
	mid := len(ps) / 2
	return Product(ps[:mid]).Mul(Product(ps[mid:]))
}

// Eval evaluates p at x over Z using Horner's rule.
func (p Poly) Eval(x *big.Int) *big.Int {
	acc := new(big.Int)
	for i := len(p.c) - 1; i >= 0; i-- {
		acc.Mul(acc, x)
		acc.Add(acc, p.c[i])
	}
	return acc
}

// EvalMod evaluates p at x modulo m (m > 0) using Horner's rule, keeping
// all intermediates reduced.
func (p Poly) EvalMod(x, m *big.Int) *big.Int {
	if m.Sign() <= 0 {
		panic("poly: non-positive modulus")
	}
	acc := new(big.Int)
	xr := new(big.Int).Mod(x, m)
	for i := len(p.c) - 1; i >= 0; i-- {
		acc.Mul(acc, xr)
		acc.Add(acc, p.c[i])
		acc.Mod(acc, m)
	}
	return acc
}

// Derivative returns dp/dx.
func (p Poly) Derivative() Poly {
	if len(p.c) <= 1 {
		return Zero()
	}
	c := make([]*big.Int, len(p.c)-1)
	for i := 1; i < len(p.c); i++ {
		c[i-1] = new(big.Int).Mul(p.c[i], big.NewInt(int64(i)))
	}
	return Poly{c: c}.trim()
}

// DivMod divides p by a monic divisor d, returning quotient and remainder
// with deg(rem) < deg(d). Division by non-monic polynomials is rejected
// because the quotient would leave Z[x].
func (p Poly) DivMod(d Poly) (quo, rem Poly, err error) {
	if d.IsZero() {
		return Zero(), Zero(), ErrDivByZero
	}
	if !d.IsMonic() {
		return Zero(), Zero(), ErrDivisorNotMonic
	}
	dd := d.Degree()
	if p.Degree() < dd {
		return Zero(), p, nil
	}
	r := p.Coeffs() // working copy
	q := make([]*big.Int, p.Degree()-dd+1)
	for i := range q {
		q[i] = new(big.Int)
	}
	var t big.Int
	for i := len(r) - 1; i >= dd; i-- {
		lead := r[i]
		if lead.Sign() == 0 {
			continue
		}
		q[i-dd].Set(lead)
		for j := 0; j <= dd; j++ {
			t.Mul(d.c[j], lead)
			r[i-dd+j].Sub(r[i-dd+j], &t)
		}
	}
	return Poly{c: q}.trim(), Poly{c: r}.trim(), nil
}

// Mod returns the remainder of p divided by monic d.
func (p Poly) Mod(d Poly) (Poly, error) {
	_, rem, err := p.DivMod(d)
	return rem, err
}

// ReduceCoeffs returns p with every coefficient reduced into [0, m).
func (p Poly) ReduceCoeffs(m *big.Int) Poly {
	if m.Sign() <= 0 {
		panic("poly: non-positive modulus")
	}
	c := make([]*big.Int, len(p.c))
	for i, v := range p.c {
		c[i] = new(big.Int).Mod(v, m)
	}
	return Poly{c: c}.trim()
}

// MaxCoeffBitLen returns the bit length of the largest |coefficient|
// (0 for the zero polynomial). Used by the coefficient-growth experiment.
func (p Poly) MaxCoeffBitLen() int {
	maxBits := 0
	for _, v := range p.c {
		if b := v.BitLen(); b > maxBits {
			maxBits = b
		}
	}
	return maxBits
}

// String renders the polynomial in the paper's notation, highest degree
// first, e.g. "3x^3 + 3x^2 + 3x + 3", "-6x + 7", "0".
func (p Poly) String() string {
	if p.IsZero() {
		return "0"
	}
	var sb strings.Builder
	first := true
	for i := len(p.c) - 1; i >= 0; i-- {
		v := p.c[i]
		if v.Sign() == 0 {
			continue
		}
		abs := new(big.Int).Abs(v)
		if first {
			if v.Sign() < 0 {
				sb.WriteString("-")
			}
			first = false
		} else {
			if v.Sign() < 0 {
				sb.WriteString(" - ")
			} else {
				sb.WriteString(" + ")
			}
		}
		switch {
		case i == 0:
			sb.WriteString(abs.String())
		case abs.Cmp(big.NewInt(1)) == 0:
			// coefficient 1 is implicit
		default:
			sb.WriteString(abs.String())
		}
		switch {
		case i == 0:
		case i == 1:
			sb.WriteString("x")
		default:
			fmt.Fprintf(&sb, "x^%d", i)
		}
	}
	return sb.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
