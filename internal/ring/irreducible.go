package ring

import (
	"errors"
	"fmt"
	"math/big"

	"sssearch/internal/poly"
)

// ErrCannotCertify is returned when irreducibility over Z could not be
// certified with the available sufficient conditions. (A polynomial like
// x^4+1 is irreducible over Z yet reducible modulo every prime, so the
// mod-p certificate is sufficient but not complete; such moduli are simply
// rejected rather than risking a non-irreducible quotient, which would
// break Theorem 2's uniqueness.)
var ErrCannotCertify = errors.New("ring: cannot certify irreducibility of modulus")

// certPrimes are the primes tried for the mod-p irreducibility certificate.
var certPrimes = []int64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
	47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113}

// CertifyIrreducible verifies that a monic r ∈ Z[x] is irreducible over Z,
// using (in order): the trivial degree-1 case, Rabin's irreducibility test
// modulo small primes (irreducible mod p ⇒ irreducible over Z for monic r),
// and, for degree 2–3, a rational-root search. Returns nil on success,
// an error describing the failure otherwise.
func CertifyIrreducible(r poly.Poly) error {
	d := r.Degree()
	switch {
	case d < 1:
		return errors.New("ring: constant polynomial is not a valid modulus")
	case d == 1:
		return nil
	}
	if !r.IsMonic() {
		return errors.New("ring: modulus must be monic")
	}
	for _, p := range certPrimes {
		bp := big.NewInt(p)
		if irreducibleModP(r, bp) {
			return nil
		}
	}
	// Degree 2 and 3 polynomials are reducible over Q iff they have a
	// rational root; for a monic integer polynomial any rational root is an
	// integer dividing the constant term.
	if d <= 3 {
		if hasIntegerRoot(r) {
			return fmt.Errorf("ring: modulus %s has an integer root (reducible)", r)
		}
		return nil
	}
	return fmt.Errorf("%w: %s (deg %d)", ErrCannotCertify, r, d)
}

// irreducibleModP runs Rabin's irreducibility test on r reduced modulo a
// prime p: r̄ of degree d is irreducible over F_p iff x^{p^d} ≡ x (mod r̄)
// and gcd(x^{p^{d/q}} − x, r̄) = 1 for every prime divisor q of d.
func irreducibleModP(r poly.Poly, p *big.Int) bool {
	f := r.ReduceCoeffs(p)
	d := r.Degree()
	if f.Degree() != d {
		return false // leading coefficient vanished (cannot happen for monic)
	}
	x := poly.X()
	// x^{p^d} mod (f, p): apply the p-power (Frobenius) map d times.
	xp := x
	for i := 0; i < d; i++ {
		xp = fpPowMod(xp, p, f, p)
	}
	if !fpSub(xp, x, p).IsZero() {
		return false
	}
	// gcd condition for each prime divisor q of d: with e = d/q,
	// gcd(x^{p^e} - x, f) must be 1.
	for _, q := range primeDivisors(d) {
		e := d / q
		xe := x
		for i := 0; i < e; i++ {
			xe = fpPowMod(xe, p, f, p)
		}
		g := fpGCD(fpSub(xe, x, p), f, p)
		if g.Degree() > 0 {
			return false
		}
	}
	return true
}

// fpMod reduces a modulo (f, p) for monic f with coefficients in [0, p).
func fpMod(a, f poly.Poly, p *big.Int) poly.Poly {
	rem, err := a.ReduceCoeffs(p).Mod(f)
	if err != nil {
		panic(fmt.Sprintf("ring: fpMod: %v", err))
	}
	return rem.ReduceCoeffs(p)
}

// fpSub returns (a - b) with coefficients reduced mod p.
func fpSub(a, b poly.Poly, p *big.Int) poly.Poly {
	return a.Sub(b).ReduceCoeffs(p)
}

// fpMulMod returns a*b mod (f, p).
func fpMulMod(a, b, f poly.Poly, p *big.Int) poly.Poly {
	return fpMod(a.Mul(b), f, p)
}

// fpPowMod returns base^e mod (f, p) by square-and-multiply over e's bits.
func fpPowMod(base poly.Poly, e *big.Int, f poly.Poly, p *big.Int) poly.Poly {
	result := poly.One()
	b := fpMod(base, f, p)
	for i := e.BitLen() - 1; i >= 0; i-- {
		result = fpMulMod(result, result, f, p)
		if e.Bit(i) == 1 {
			result = fpMulMod(result, b, f, p)
		}
	}
	return result
}

// fpMonic scales a to be monic over F_p (a must be nonzero mod p).
func fpMonic(a poly.Poly, p *big.Int) poly.Poly {
	a = a.ReduceCoeffs(p)
	if a.IsZero() {
		return a
	}
	lead := a.LeadingCoeff()
	inv := new(big.Int).ModInverse(lead, p)
	if inv == nil {
		// p prime and lead != 0 mod p makes this unreachable.
		panic("ring: non-invertible leading coefficient")
	}
	return a.MulScalar(inv).ReduceCoeffs(p)
}

// fpGCD computes the monic gcd of a and b over F_p[x] by Euclid.
func fpGCD(a, b poly.Poly, p *big.Int) poly.Poly {
	a = a.ReduceCoeffs(p)
	b = b.ReduceCoeffs(p)
	for !b.IsZero() {
		bm := fpMonic(b, p)
		r := fpMod(a, bm, p)
		a, b = bm, r
	}
	if a.IsZero() {
		return a
	}
	return fpMonic(a, p)
}

// hasIntegerRoot searches for an integer root of monic r among the divisors
// of the constant term (found by trial division up to 10^6).
func hasIntegerRoot(r poly.Poly) bool {
	c0 := r.Coeff(0)
	if c0.Sign() == 0 {
		return true // root at 0
	}
	abs := new(big.Int).Abs(c0)
	for _, d := range smallDivisors(abs, 1_000_000) {
		for _, s := range []int64{1, -1} {
			cand := new(big.Int).Mul(d, big.NewInt(s))
			if r.Eval(cand).Sign() == 0 {
				return true
			}
		}
	}
	return false
}

// smallDivisors returns the positive divisors of n that are products of
// prime factors <= bound, plus n's cofactor divisors when n factors fully.
func smallDivisors(n *big.Int, bound int64) []*big.Int {
	divs := []*big.Int{big.NewInt(1)}
	rest := new(big.Int).Set(n)
	for f := int64(2); f <= bound && rest.Cmp(big.NewInt(1)) > 0; f++ {
		bf := big.NewInt(f)
		if new(big.Int).Mod(rest, bf).Sign() != 0 {
			continue
		}
		var powers []*big.Int
		pw := big.NewInt(1)
		for new(big.Int).Mod(rest, bf).Sign() == 0 {
			rest.Div(rest, bf)
			pw = new(big.Int).Mul(pw, bf)
			powers = append(powers, new(big.Int).Set(pw))
		}
		cur := divs
		for _, pk := range powers {
			for _, d := range cur {
				divs = append(divs, new(big.Int).Mul(d, pk))
			}
		}
	}
	if rest.Cmp(big.NewInt(1)) > 0 {
		// Remaining large prime cofactor: include multiples by it too.
		cur := make([]*big.Int, len(divs))
		copy(cur, divs)
		for _, d := range cur {
			divs = append(divs, new(big.Int).Mul(d, rest))
		}
	}
	return divs
}

// primeDivisors returns the distinct prime divisors of n.
func primeDivisors(n int) []int {
	var out []int
	for f := 2; f*f <= n; f++ {
		if n%f == 0 {
			out = append(out, f)
			for n%f == 0 {
				n /= f
			}
		}
	}
	if n > 1 {
		out = append(out, n)
	}
	return out
}
