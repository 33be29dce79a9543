"""Multiprecision kernel: theta functions and elliptic Gamma symbols.

Everything is built on the exponential e(x) = exp(2*pi*i*x).  The odd theta
function is defined by its product formula

    theta(z) = (e(z/2)-e(-z/2)) prod_{j>=1} (1-e(j*tau+z))(1-e(j*tau-z))
               / prod_{j>=1} (1-e(j*tau))^2

and evaluated through the equivalent lacunary sum formula; `theta_product`
keeps the product formula as the reference path, and their agreement is part
of the identity suite and the tests.  The elliptic Gamma symbol is the
meromorphic solution

    gamma_q(q+z) = theta(z) gamma_q(z)

normalized by an explicit exponential prefactor whose branch is the principal
logarithm, fixed once per tau.

Theta has one kernel, on Python integers, and one zero rule
(`theta_reduced`); `CurveContext.theta` and two readers of the context's one
argument table (`factors`) all read it: coefficient values through
`theta_of_fixed`, and the residue sweeps of the condition checkers and the
section solver through `factors.TablePoint`.  Values are Gaussian
floats: (re + i im) 2^e with integer re, im cut back to F = `ctx._wp` +
GUARD_BITS bits after each product (`gauss_mul`).  An argument z arrives as
F-bit fixed-point integers and is reduced to z = w0 + m + n tau by integer
rounding (`reduce_fixed`).  Both readers of the argument table form
e(+-z/2) by multiplication, from the context's half-exponentials
(`half_power`, below), and x0 = e(w0/2) = (-1)^m e(-n tau/2) e(z/2)
(`reduced_halves`), an absolute error of a few units of 2^-F, the order of
the error of the fixed-point argument itself; `CurveContext.theta` forms w0
exactly and reads x0 = `half_e`(w0), so that x0 - 1/x0 keeps its relative
precision near a zero of theta.  x0 feeds the lacunary sum, run in F-bit fixed point (Brent &
Zimmermann, Modern Computer Arithmetic, 2010, section 4.4) as s times a
polynomial in t = x0^2 + x0^-2 by Horner's rule, s = x0 - 1/x0
(`_theta_sum`), and

    theta(z) = (-1)^(m+n) x0^(-2n) e(-n^2 tau/2) theta(w0)

(`theta_translate`, the one translate factor), with e(k tau/2) =
`tau_power`(k).  Zero rule: |w0| < 2^-`ctx._wp` gives exactly 0.  No
exponential, cos/sin, `lattice_reduce` or mpc operation runs per theta of a
table argument, and per theta of `CurveContext.theta` only `half_e` at that
exact w0.  Error: each Horner step carries an absolute error of a unit of
2^-F relative to its own coefficient (relative to |theta|, so more near a
zero of theta, where s cancels); each product cuts its mantissas once, a
relative error of at most 2^(2-F).
`CurveContext.theta` rounds one value once to `ctx._wp` bits (`gauss_div`),
and a sweep's quotient of products of k theta values is good to about k
(that error + 2^(2-F)) relative; its reader rounds it once.

Every exponential e(x) on the context is one call of `e`, its argument
taken exactly and reduced exactly, at F bits; `half_e`(b) reads e(b/2)
there and forms e(-b/2) as its reciprocal.  Every exponential power comes
from one rule, `half_power`(key, k, base) = (e(k b/2), e(-k b/2)) for an
integer k and a base b named exactly by its key.  b meets `half_e` once
per key and context; k = 0 gives 1, -k swaps the pair of k, and k > 1
squares the pair of k // 2 (times the pair of 1 for odd k): a recursion
log2 |k| deep and a relative error of about |k| 2^(2-F).  A base v/den is
formed by one rule (`over`: exact for den = 1, else at F + GUARD_BITS
bits), for the parameter values and the roots of unity e(1/2den) of
compiled arguments (`factors`) and for tau/d: `tau_power`(k, d) =
e(k tau/2d) gives the translate factors, p = e(tau) of the Gamma table,
the theta weights (d = 4) and the weights of the rank oracle (`weyl`).
The fixed coordinate values of `factors` and the rank oracle's base
points are bases too.

Coefficient values run on the same integers (`factors`).  Each theta
argument of a coefficient, an affine form in z and parameter symbols, is
compiled once per context and per (form, values of the parameters it reads)
into a constant c, cut to F-bit fixed point on integers, and integer
z-coefficients k_j, one entry of the context's argument table
(`factors.compile_argument`), which the residue sweeps read as well.  At a
point, z_j in fixed point (moved by q s_j for a shift z -> z + q s), the
argument a = c + sum_j k_j z_j is an integer sum, and its theta is
`theta_of_fixed`(a), memoized on exactly the key a: the first argument to
reach a key forms its value, from x0 = (-1)^m e(-n tau/2) e(c/2)
prod_j e(z_j/2)^k_j, a product of the context's half-exponentials
(`factors.argument_halves`), then `theta_at_x0`; another argument that
reaches the key later reads that value, which may differ from the one it
would form in the last bits of F.  A part's thetas multiply as Gaussian
floats into a numerator and a denominator, each part is one quotient of F
bits (`gauss_quotient`), the parts (and the terms of a composite) add
exactly (`gauss_add`), and the sum is rounded once, to `ctx._wp` bits
(`gauss_round`).  The argument and x0 each carry an absolute error of a few
units of 2^-F, so near a zero of theta the relative error is a few units
of 2^-F / |w0|: with F = prec + 32 it stays under 2^(4-prec) down to
|w0| ~ 1e-9.

Gamma runs on the same integers.  Per step q a table (`_gamma_table`) holds
c_m = 1/(m (1-p^m)(1-Q^m)), p = e(tau), Q = e(q), in F-bit fixed point, and
pQ.  Per call z is shifted along q to z0 = z - k q, where x = e(z0) and
y = pQ/x are at most e^(-pi Im tau) in modulus, and sum_m c_m (x^m - y^m),
the log of the standard double product (Felder & Varchenko, Adv. Math.
2000), runs in fixed point as x H(x) - y H(y), H(u) = sum_m c_m u^(m-1) by
Horner's rule: an absolute error of a few units of 2^-F.  That sum, the
prefactor and the shift's e(+-arg/2) add into one exponent formed at
F + GUARD_BITS bits, and one `exp` of it, times the factors
(-(p;p)^2 theta(arg))^(+-1) from the theta kernel, is rounded once to
`ctx._wp` bits: a relative error of a few units of 2^-F before that rounding.

Precision rule: a CurveContext owns its working precision, `ctx._wp` = prec +
GUARD_BITS, and every public function or method that takes a context
computes under `mp.workprec(ctx._wp)` (most through `at_context_precision`).
Constructors that take no context store their numeric inputs exactly
(`exact_mpc`) and keep derived parameters as affine forms, so no library
result depends on mpmath's global `mp.prec`.  That global is only the
caller's precision for its own arithmetic.
"""

from __future__ import annotations

import functools
import inspect
import math

from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    from_float,
    from_int,
    from_man_exp,
    fzero,
    mpf_add,
    mpf_cos_sin_pi,
    mpf_exp,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_pos,
    mpf_shift,
    mpf_sub,
    round_nearest,
    to_fixed,
    to_float,
)


class ModulusError(ValueError):
    """Im(tau) or Im(q) below the convergence threshold."""


class PrecisionError(ValueError):
    """Requested precision outside the supported range."""


class PoleProximityError(ArithmeticError):
    """Evaluation point too close to a zero divisor of a denominator."""


def pole_text(zk, c=0):
    """The divisor sum_j k_j z_(j+1) + c = 0 as text, e.g. "z1 - z2 = 0 (mod 1, tau)", for a PoleProximityError."""
    text = ""
    for j, k in zk:
        if k:
            text += " %s %s" % ("-" if k < 0 else "+", "z%d" % (j + 1) if abs(k) == 1 else "%d z%d" % (abs(k), j + 1))
    if c:
        text += " + (%s)" % mp.nstr(mpc(c), 8)
    return "%s%s = 0 (mod 1, tau)" % ("-" if text.startswith(" -") else "", text[3:])


class TorsionError(ValueError):
    """q is (numerically) torsion where a non-torsion q is required."""


#: minimal imaginary part of tau (and of q for Gamma symbols)
MIN_IM = mpf("0.3")

#: retries for rejection sampling away from poles
MAX_RETRIES = 64

#: truncation guard bits on top of the working precision
GUARD_BITS = 16

#: most factors per row, and rows, of `CurveContext.gamma_double_product`
DOUBLE_PRODUCT_TERMS = 400


_MISS = object()


def point_key(z):
    """Exact hashable key of a number: the mpf tuples of its real and imaginary parts.

    Nothing is rounded: an mpc keys by its own tuples and ints, floats and
    complex numbers convert without loss, so distinct points never share a
    key whatever the global mp.prec.  Every point-keyed cache uses this key.
    """
    if isinstance(z, mpc):
        return z._mpc_
    if isinstance(z, mpf):
        return (z._mpf_, fzero)
    if isinstance(z, int):
        return (from_int(z), fzero)
    if isinstance(z, (float, complex)):
        return (from_float(z.real), from_float(z.imag))
    raise TypeError("no exact point key for %r" % (z,))


def exact_mpc(z):
    """z as an mpc with nothing rounded, whatever the global mp.prec.

    `mpc(z)` rounds even an mpc to the global precision; this keeps the
    exact tuples of `point_key`, so stored parameters are the caller's own.
    """
    return z if isinstance(z, mpc) else mp.make_mpc(point_key(z))


def at_context_precision(fn):
    """Run fn(..., ctx, ...) under mp.workprec(ctx._wp), the package's precision rule."""
    pos = list(inspect.signature(fn).parameters).index("ctx")

    @functools.wraps(fn)
    def run(*args, **kwargs):
        ctx = kwargs["ctx"] if "ctx" in kwargs else args[pos]
        with mp.workprec(ctx._wp):
            return fn(*args, **kwargs)

    return run


def memo(cache, key, compute):
    """cache[key], calling compute() and storing its value on a miss.

    The package's one cache policy: keys are exact (point_key), caches owned
    by objects other than a context key on the context object itself, and
    caches are unbounded.
    """
    val = cache.get(key, _MISS)
    if val is _MISS:
        val = cache[key] = compute()
    return val


# -- Gaussian floats: (re, im, e) is the value (re + i im) 2^e, re and im integers

GAUSS_ONE = (1, 0, 0)
GAUSS_ZERO = (0, 0, 0)


def gauss_exact(z):
    """A number as a Gaussian float, exactly."""
    if z == 1:
        return GAUSS_ONE
    parts = [(-man if sign else man, exp) for sign, man, exp, _ in point_key(z)]
    e = min((exp for man, exp in parts if man), default=0)
    (re, rexp), (im, iexp) = parts
    return re << (rexp - e) if re else 0, im << (iexp - e) if im else 0, e


def gauss_cut(re, im, e, F):
    """(re + i im) 2^e with its mantissas cut back to F bits (a relative error of at most 2^(2-F))."""
    t = (abs(re) | abs(im)).bit_length() - F
    if t > 0:
        return re >> t, im >> t, e + t
    return re, im, e


def gauss_mul(a, b, F):
    """a b, its mantissas cut back to F bits (`gauss_cut`, inlined: the row path's hottest call)."""
    re = a[0] * b[0] - a[1] * b[1]
    im = a[0] * b[1] + a[1] * b[0]
    t = (abs(re) | abs(im)).bit_length() - F
    if t > 0:
        return re >> t, im >> t, a[2] + b[2] + t
    return re, im, a[2] + b[2]


def gauss_fixed(a, F):
    """a as F-bit fixed-point integers: (re, im) scaled by 2^F."""
    s = a[2] + F
    return (a[0] << s, a[1] << s) if s >= 0 else (a[0] >> -s, a[1] >> -s)


def gauss_scale(a):
    """s with 2^-s ~ |a|: the larger part of a lies in [2^(-s-1), 2^-s)."""
    return -((abs(a[0]) | abs(a[1])).bit_length() + a[2])


def gauss_add(a, b):
    """a + b, exactly."""
    if not (a[0] or a[1]):
        return b
    if not (b[0] or b[1]):
        return a
    e = min(a[2], b[2])
    sa, sb = a[2] - e, b[2] - e
    return (a[0] << sa) + (b[0] << sb), (a[1] << sa) + (b[1] << sb), e


def gauss_quotient(a, b, bits):
    """a / b with mantissas of about `bits` bits, each rounded toward -infinity.

    ZeroDivisionError when b is 0.
    """
    br, bi = b[0], b[1]
    d = br * br + bi * bi
    nr = a[0] * br + a[1] * bi
    ni = a[1] * br - a[0] * bi
    k = bits + d.bit_length() - (abs(nr) | abs(ni)).bit_length()
    if k >= 0:
        nr, ni = nr << k, ni << k
    else:
        d <<= -k
    return nr // d, ni // d, a[2] - b[2] - k


def _horner(coeffs, ur, ui):
    """sum_k c_k u^k by Horner's rule on integers, for u = ur + i ui scaled by 2^F.

    coeffs: (re c_k, im c_k, shift_k) from the top degree down.  Each step
    multiplies the partial sum by u and shifts the product right by shift_k,
    which brings it to the scale of c_k; the sum comes at the scale of c_0.
    """
    ar = ai = 0
    for cr, ci, shift in coeffs:
        ar, ai = ((ar * ur - ai * ui) >> shift) + cr, ((ar * ui + ai * ur) >> shift) + ci
    return ar, ai


def gauss_round(a, prec):
    """a as an mpc, each part rounded once, to nearest at prec bits."""
    return mp.make_mpc((from_man_exp(a[0], a[2], prec, round_nearest), from_man_exp(a[1], a[2], prec, round_nearest)))


def gauss_div(a, b, prec):
    """a / b as an mpc at prec bits, rounded from a quotient of prec + GUARD_BITS bits.

    ZeroDivisionError when b is 0.
    """
    return gauss_round(gauss_quotient(a, b, prec + GUARD_BITS), prec)


class CurveContext:
    """Evaluation context for a fixed modulus tau and working precision.

    Caches the nome power tables and memoizes theta and Gamma values through
    `memo`; all methods are pure.
    """

    def __init__(self, tau, prec=256):
        if prec < 64:
            raise PrecisionError("need at least 64 bits of precision")
        self.prec = int(prec)
        self._wp = self.prec + GUARD_BITS
        # tau as given, unrounded: lattice_reduce subtracts its multiples exactly
        self._tau_exact = point_key(tau)
        with mp.workprec(self._wp):
            self.tau = mpc(tau)
            if self.tau.imag < MIN_IM:
                raise ModulusError("Im(tau) = %s below threshold %s" % (self.tau.imag, MIN_IM))
            self.two_pi_i = mpc(0, 2) * mp.pi
            self._cutoff = mpf(2) ** (-self.prec - GUARD_BITS)
        # the fixed-point kernel's constants, as integers scaled by 2^F, and
        # its lattice: tau as given, its 9 nearest translates of 0, and the
        # zero rule's |w0|^2 < 2^-2wp at scale 2^2F
        self._fix = F = self._wp + GUARD_BITS
        self._fix_pi = mpf_pi(F)
        tre, tim = self._tau_exact
        self._fix_tau = tr, ti = to_fixed(tre, F), to_fixed(tim, F)
        self._fix_near = [(dm * (1 << F) + dn * tr, dn * ti) for dm in (-1, 0, 1) for dn in (-1, 0, 1)]
        self._fix_zero = 1 << 2 * (F - self._wp)
        self._half_powers = {}  # `half_power`: e(+-k b/2) per base key and integer k
        self._theta_horner, self._theta_scale, self._fix_inv_denom = self._build_horner()
        self._theta_cache = {}
        self._fixed_theta_cache = {}
        self._argument_cache = {}  # factors.compile_argument: an id per (form, values read)
        self._arguments = []  # its entry per id: (re c, im c, ((j, k_j), ...), (num, den, ((value key, n), ...)))
        self._argument_halves = {}  # e(+-c/2) per id, a product of `_half_powers` entries (factors)
        self._gamma_cache = {}
        self._gamma_table_cache = {}

    # -- primitives -------------------------------------------------------

    def e(self, x):
        """e(x) = exp(2*pi*i*x), x taken exactly: the context's one exponential, good to 2^(2-F) relative.

        exp(-2 pi Im x) (cos 2 pi Re x + i sin 2 pi Re x) comes from one real
        exponential and one cos/sin pair at F bits, the cos/sin argument
        reduced exactly (`mpf_cos_sin_pi`), so a large Re x costs no bits.
        The value is returned unrounded, an mpc of F-bit parts; `half_e`, and
        through it every power of `half_power`, reads its exponential here.
        x is any number `point_key` keys exactly.
        """
        F = self._fix
        re, im = point_key(x)
        cos, sin = mpf_cos_sin_pi(mpf_shift(re, 1), F)
        _, man, exp, _ = mpf_exp(mpf_neg(mpf_shift(mpf_mul(self._fix_pi, im, F), 1)), F)  # man * 2^exp
        re, im, exp = gauss_cut(man * to_fixed(cos, F), man * to_fixed(sin, F), exp - F, F)
        return mp.make_mpc((from_man_exp(re, exp), from_man_exp(im, exp)))

    def _build_horner(self):
        """(`_horner` table of `_theta_sum`, s_0, 1/D): c_k = sum_(j>=k) w_j [t^k] P_j, top degree first.

        The weights are w_j = (-1)^j e((j+1/2)^2 tau/2) = (-1)^j
        `tau_power`((2j+1)^2, 4), F-bit Gaussian floats, for j up to the
        first j >= 4 whose |w_j| is below 2^-(wp + 34).  Each c_k is an
        exact integer combination of the weights, kept with its whole
        mantissa at scale 2^(F + s_k), 2^-s_k ~ |c_k|; entry k carries the
        shift F + s_(k+1) - s_k that brings t times the partial sum of
        degree k + 1 to that scale.  D = sum_j (2j+1) w_j is summed exactly
        from the same weights, and 1/D is taken at F + GUARD_BITS bits and
        kept in F-bit fixed point.
        """
        F, weights = self._fix, []
        while True:
            w = self.tau_power((2 * len(weights) + 1) ** 2, 4)
            if len(weights) >= 4 and gauss_scale(w) > self._wp + 34:
                break
            weights.append((-w[0], -w[1], w[2]) if len(weights) % 2 else w)
        polys, prev = [[1]], [-1]  # coefficient lists of P_0 and P_-1
        for _ in range(1, len(weights)):
            nxt = [0] + polys[-1]
            for i, a in enumerate(prev):
                nxt[i] -= a
            prev = polys[-1]
            polys.append(nxt)
        coeffs = []
        for k in range(len(polys)):
            c = GAUSS_ZERO
            for P, (re, im, e) in zip(polys[k:], weights[k:]):
                c = gauss_add(c, (P[k] * re, P[k] * im, e))
            coeffs.append(c)
        scales = [max(0, gauss_scale(c)) for c in coeffs]
        table = []
        for k in reversed(range(len(coeffs))):
            shift = F + scales[k + 1] - scales[k] if k + 1 < len(coeffs) else F
            table.append((*gauss_fixed(coeffs[k], F + scales[k]), shift))
        denom = GAUSS_ZERO
        for j, (re, im, e) in enumerate(weights):
            denom = gauss_add(denom, ((2 * j + 1) * re, (2 * j + 1) * im, e))
        return table, scales[0], gauss_fixed(gauss_quotient(GAUSS_ONE, denom, F + GUARD_BITS), F)

    # -- lattice ----------------------------------------------------------

    def lattice_reduce(self, z):
        """Reduce z modulo <1, tau>; returns (z0, m, n) with z = z0 + m + n*tau.

        m and n are read by `reduce_fixed` from z's F-bit fixed point, as
        every theta value and pole test reads them.  Then z0 = z - m - n*tau
        is formed exactly, from z as given and the exact tau the context was
        built on, and rounded once to `ctx._wp` bits, so a small z0 keeps its
        relative precision however large m and n are.
        """
        key = point_key(z)
        _, _, m, n = self.reduce_fixed(*(to_fixed(x, self._fix) for x in key))
        re, im = self._exact_w0(key, m, n)
        return mp.make_mpc((mpf_pos(re, self._wp, round_nearest), mpf_pos(im, self._wp, round_nearest))), m, n

    def _exact_w0(self, key, m, n):
        """z - m - n tau for the point key of z, exactly, against the tau the context was built on."""
        tre, tim = self._tau_exact
        re = mpf_sub(mpf_sub(key[0], from_int(m)), mpf_mul(from_int(n), tre))
        return re, mpf_sub(key[1], mpf_mul(from_int(n), tim))

    def dist_to_lattice(self, z):
        """Distance from z to the nearest point of <1, tau>, from z's F-bit fixed-point reduction."""
        F = self._fix
        w0r, w0i, _, _ = self.reduce_fixed(*(to_fixed(x, F) for x in point_key(z)))
        with mp.workprec(self._wp):
            return mp.sqrt(mp.ldexp(self.fixed_dist2(w0r, w0i), -2 * F))

    # -- theta ------------------------------------------------------------

    def theta(self, z):
        """theta(z; tau), memoized per point, rounded once.

        `theta_at_x0` at w0 = z - m - n tau, formed exactly from z's
        nearest lattice point m + n tau, with x0 = `half_e`(w0).  Near
        2 - 3 tau, theta then keeps the relative error it has near 0 (4e-17
        at 256 bits, 2^-240 from the zero), where e(z/2) e(3 tau/2) gave
        6e-16.
        """
        key = point_key(z)
        return memo(self._theta_cache, key, lambda: gauss_div(self._theta_gauss(key), GAUSS_ONE, self._wp))

    def _theta_gauss(self, key):
        # z's fixed point and the product e(z/2) e(-n tau/2) would each carry
        # an absolute 2^-F, which near a zero of theta is all of theta(w0); so
        # w0 = z - m - n tau is formed exactly and x0 = e(w0/2) read from it
        F = self._fix
        _, _, m, n = self.reduce_fixed(*(to_fixed(x, F) for x in key))
        w0 = self._exact_w0(key, m, n)
        reduced = (to_fixed(w0[0], F), to_fixed(w0[1], F), m, n)
        return self.theta_at_x0(reduced, *self.half_e(mp.make_mpc(w0)))

    def half_e(self, z):
        """(e(z/2), e(-z/2)) as Gaussian floats with F-bit mantissas, z taken exactly.

        e(z/2) is `e` at z/2 (z halved exactly), and e(-z/2) is its
        reciprocal to F bits (`gauss_quotient`), so each carries a relative
        error of about 2^(2-F).
        """
        re, im = point_key(z)
        x = gauss_exact(self.e(mp.make_mpc((mpf_shift(re, -1), mpf_shift(im, -1)))))
        return x, gauss_quotient(GAUSS_ONE, x, self._fix)

    def _theta_sum(self, pr, pi, qr, qi):
        """theta(z0) as a Gaussian float, from e(+-z0/2) in F-bit fixed point, by Horner in t = x + 1/x.

        With x = e(z0), theta(z0) = sum_j w_j (x^(j+1/2) - x^-(j+1/2)) / D for
        the N weights w_j = (-1)^j e((j+1/2)^2 tau/2) and D = sum_j (2j+1) w_j,
        summed exactly from them (1/D to 2^-F relative, `_build_horner`).
        Write s = x^(1/2) - x^(-1/2) and t = s^2 + 2 = x + 1/x.  Then
        x^(j+1/2) - x^-(j+1/2) = s P_j(t) with P_-1 = -1, P_0 = 1 and
        P_(j+1) = t P_j - P_(j-1), so

            theta(z0) = s sum_k c_k t^k / D,   c_k = sum_(j>=k) w_j [t^k] P_j,

        the same finite sum of N terms, run by Horner's rule (`_horner`,
        table from `_build_horner`): one complex product per term where the
        power recurrences took three.

        Error: in the reduced domain |Im z0| <= Im tau/2, so |x| and |1/x|
        are at most e^(pi Im tau) and |t| <= 2 e^(pi Im tau), while
        |c_(k+1)/c_k| ~ |e(tau/2)|^(2k+2) (c_k ~ w_k).  So |c_(k+1) t| <
        |c_k|: every partial sum of the Horner recurrence has the size of its
        own c_k, and cutting it to c_k's scale costs a unit of 2^-F relative
        to it.  Each c_k is stored with its whole mantissa, at scale
        2^(F + s_k) with 2^-s_k ~ |c_k|; stored at plain F bits, c_k t^k
        would carry an absolute 2^-F |t|^k, up to 2^44 units of 2^-F at
        tau = 0.2 + 1.95i, 256 bits.  t is off by a few units of 2^-F, which
        the decaying c_k damp.  The cancellation near z0 = 0 stays in s alone:
        s is good to 2^-F absolute if x0 and 1/x0 are (`theta_at_x0`).
        """
        F = self._fix
        sr, si = pr - qr, pi - qi
        tr, ti = ((sr * sr - si * si) >> F) + (2 << F), (sr * si) >> (F - 1)
        ar, ai = _horner(self._theta_horner, tr, ti)
        nr, ni = sr * ar - si * ai, sr * ai + si * ar
        dr, di = self._fix_inv_denom
        return nr * dr - ni * di, nr * di + ni * dr, -3 * F - self._theta_scale

    def reduce_fixed(self, ar, ai):
        """(w0r, w0i, m, n): z = ar + i ai (scaled by 2^F) as w0 + m + n tau, w0 scaled by 2^F.

        m and n are z's nearest lattice coordinates, found by integer
        rounding against tau as given; w0 is exact in that fixed point.
        """
        F = self._fix
        tr, ti = self._fix_tau
        n = (2 * ai + ti) // (2 * ti)
        ar, ai = ar - n * tr, ai - n * ti
        m = (ar + (1 << (F - 1))) >> F
        return ar - (m << F), ai, m, n

    def fixed_dist2(self, w0r, w0i):
        """The squared distance of a reduced w0 (scaled by 2^F) to the lattice, scaled by 2^(2F)."""
        return min((w0r + a) ** 2 + (w0i + b) ** 2 for a, b in self._fix_near)

    def half_power(self, key, k, base):
        """(e(k b/2), e(-k b/2)) for an integer k, memoized per (key, k): the context's one powering rule.

        key names the number b exactly, and base() gives b as an mpc: b
        meets `half_e` once per key and context, at k = 1.  k = 0 gives
        (1, 1), -k swaps the pair of k, and k > 1 squares the pair of k // 2
        and, for odd k, multiplies it by the pair of 1, each product cut to
        F bits (`gauss_mul`).  The recursion is log2 |k| deep, and e(k b/2)
        carries a relative error of about |k| 2^(2-F).
        """
        if not k:
            return GAUSS_ONE, GAUSS_ONE

        def compute():
            if k < 0:
                return self.half_power(key, -k, base)[::-1]
            if k == 1:
                return self.half_e(base())
            F, (x, y) = self._fix, self.half_power(key, k // 2, base)
            x, y = gauss_mul(x, x, F), gauss_mul(y, y, F)
            if k % 2:
                xs, ys = self.half_power(key, 1, base)
                x, y = gauss_mul(x, xs, F), gauss_mul(y, ys, F)
            return x, y

        return memo(self._half_powers, (key, k), compute)

    def over(self, key, den):
        """v/den as an mpc for the point key of v: exact for den = 1, else at F + GUARD_BITS bits.

        The one rule by which a base of `half_power` is formed, for parameter
        values, roots of unity and tau alike.
        """
        v = mp.make_mpc(key)
        if den == 1:
            return v
        with mp.workprec(self._fix + GUARD_BITS):
            return v / den

    def tau_power(self, k, d=1):
        """e(k tau/2d) for an integer k, a Gaussian float with F-bit mantissas: a `half_power` of tau/d."""
        return self.half_power((self._tau_exact, d), k, lambda: self.over(self._tau_exact, d))[0]

    def theta_of_fixed(self, ar, ai, halves):
        """theta(a) as a Gaussian float for an F-bit fixed-point argument a = ar + i ai, memoized on (ar, ai).

        halves() gives (e(a/2), e(-a/2)) as Gaussian floats; the first
        argument to reach a key forms its value, from `reduce_fixed`(a) and
        x0 = (-1)^m e(-n tau/2) e(a/2) (`reduced_halves`), then
        `theta_at_x0`.  A w0 under the zero rule gives exactly 0.
        """

        def compute():
            reduced = self.reduce_fixed(ar, ai)
            return self.theta_at_x0(reduced, *self.reduced_halves(*halves(), reduced[2], reduced[3]))

        return memo(self._fixed_theta_cache, (ar, ai), compute)

    def reduced_halves(self, x, y, m, n):
        """(x0, 1/x0) = (-1)^m (e(-n tau/2) x, e(n tau/2) y) for x = e(a/2), y = e(-a/2) and a = w0 + m + n tau."""
        if n:
            x = gauss_mul(x, self.tau_power(-n), self._fix)
            y = gauss_mul(y, self.tau_power(n), self._fix)
        if m % 2:
            x, y = (-x[0], -x[1], x[2]), (-y[0], -y[1], y[2])
        return x, y

    def theta_at_x0(self, reduced, x, y):
        """theta(z) as a Gaussian float, from `reduce_fixed`(z), x0 = e(w0/2) and y = 1/x0.

        x0 and 1/x0 feed `_theta_sum` (`theta_reduced`), which sums
        theta(w0) = s sum_k c_k t^k / D by Horner's rule in t = x0^2 + x0^-2,
        with s = x0 - 1/x0, then
        theta(z) = (-1)^(m+n) x0^(-2n) e(-n^2 tau/2) theta(w0)
        (`theta_translate`, which a residue sweep applies to every argument
        of a lattice class, `factors.TablePoint`).  Near w0 = 0
        s cancels to about 2 pi i w0 (the polynomial in t is about D there
        and does not cancel), which costs log2(1/|w0|) bits: the GUARD_BITS
        of F over `ctx._wp` cover that down to |w0| ~ 2^-16, if x0 - 1/x0 is
        good to 2^-F relative, as `half_e` at w0 gives it.  An x0 formed as
        a product, as both readers of the argument table form it
        (`factors.argument_halves`), carries an absolute error of a few
        units of 2^-F instead.

        Zero rule: |w0| < 2^-`ctx._wp` gives exactly 0.  Such a w0 is a
        lattice point up to rounding, and callers read the exact zero.  An
        argument that is a lattice point as a form, such as the z_j - z_j of
        a Fourier kernel's tail relation (`families._TailSolver.A`),
        compiles to an exact 0 and arrives here as one.
        """
        w0r, w0i, m, n = reduced
        return self.theta_translate(self.theta_reduced(w0r, w0i, x, y), x, y, m, n)

    def theta_reduced(self, w0r, w0i, x, y):
        """theta(w0) as a Gaussian float, from w0 scaled by 2^F (for the zero rule) and x0 = e(w0/2), y = 1/x0."""
        if w0r * w0r + w0i * w0i < self._fix_zero:
            return GAUSS_ZERO
        F = self._fix
        return gauss_cut(*self._theta_sum(*gauss_fixed(x, F), *gauss_fixed(y, F)), F)

    def theta_translate(self, val, x, y, m, n):
        """theta(w0 + m + n tau) = (-1)^(m+n) e(-n^2 tau/2) x0^(-2n) theta(w0) from val = theta(w0), x0 and y = 1/x0.

        Each product is cut to F bits; x0^(-2n) is 2|n| products by y (n > 0)
        or by x (n < 0).  e(-n^2 tau/2) = `tau_power`(-n^2) carries about
        n^2 2^(2-F) relative (`half_power`), so the factor costs about
        log2(n^2) bits.  An exact zero stays the exact GAUSS_ZERO.
        """
        if val == GAUSS_ZERO:
            return val
        F = self._fix
        if n:
            val = gauss_mul(val, self.tau_power(-n * n), F)
            step = y if n > 0 else x
            for _ in range(2 * abs(n)):
                val = gauss_mul(val, step, F)
        if (m + n) % 2:
            val = (-val[0], -val[1], val[2])
        return val

    def theta_deriv_fixed(self, m, n):
        """theta'(m + n tau) = (-1)^(m+n) e(-n^2 tau/2) 2 pi i as a Gaussian float."""
        F = self._fix
        sign = -1 if (m + n) % 2 else 1
        return gauss_mul(self.tau_power(-n * n), (0, sign * to_fixed(self._fix_pi, F + 1), -F), F)

    def theta_product(self, z):
        """theta(z; tau) via the defining product formula at the reduced argument (reference path).

        The mpc product formula, independent of the sum kernel.  The powers
        p^j, p = e(tau), and prod_j (1-p^j)^2 are computed once per context
        (`_product_table`); 1/x is formed once per call.
        """
        with mp.workprec(self._wp):
            z, m, n = self.lattice_reduce(z)
            mult = mpc(1)
            if m or n:
                mult = self.e(-n * z - n * n * self.tau / 2)
                if (m + n) % 2:
                    mult = -mult
            xh = self.e(z / 2)
            inv_xh = 1 / xh
            x, inv_x = xh * xh, inv_xh * inv_xh
            val = xh - inv_xh
            powers, denom = self._product_table
            for pj in powers:
                val *= (1 - pj * x) * (1 - pj * inv_x)
            return mult * val / denom

    @functools.cached_property
    def _product_table(self):
        """([p, p^2, ..., p^J], prod_(j<=J) (1-p^j)^2) at `ctx._wp` bits, computed once per context.

        J is fixed for the reduced domain |Im z| <= Im tau/2, where
        |x| + 1/|x| <= e^(pi Im tau) + e^(-pi Im tau) for x = e(z): the
        first j with |p^j| (e^(pi Im tau) + e^(-pi Im tau) + 2) < 2^-wp.
        """
        p = self.e(self.tau)
        s = mp.exp(mp.pi * self.tau.imag)
        bound = s + 1 / s + 2
        powers, denom, pj = [], mpc(1), p
        while True:
            powers.append(pj)
            denom *= (1 - pj) ** 2
            if abs(pj) * bound < self._cutoff:
                return powers, denom
            if len(powers) >= 20000:
                raise PrecisionError("theta product did not converge")
            pj *= p

    # -- elliptic Gamma -----------------------------------------------------

    def _log_c(self):
        """Principal log of C = -(p;p)_inf^2 with p = e(tau)."""
        return self._c_pair[0]

    @functools.cached_property
    def _c_pair(self):
        """(log C, C) at F + GUARD_BITS bits, computed once per context."""
        with mp.workprec(self._fix + GUARD_BITS):
            p = mp.expjpi(2 * mp.make_mpc(self._tau_exact))
            prod, pj = mpc(1), p
            while mp.mag(pj) > -mp.prec:
                prod *= (1 - pj) ** 2
                pj *= p
            return mp.log(-prod), -prod

    def gamma(self, z, q):
        """The elliptic Gamma symbol gamma_q(z; tau) (principal-branch prefactor).

        Satisfies gamma(q+z) = theta(z) gamma(z).  Requires Im(q) above the
        modulus threshold; PoleProximityError on a pole.
        """
        return memo(self._gamma_cache, (point_key(z), point_key(q)), lambda: self._gamma_at(z, q))

    def _gamma_table(self, q):
        """(`_horner` table of H, pQ and C as Gaussian floats) for the step q, memoized per q.

        H(u) = sum_m c_m u^(m-1), c_m = 1/(m (1-p^m)(1-Q^m)), |c_m| < 1.4/m,
        each c_m formed on F-bit fixed-point integers to a unit of 2^-F; the
        table ends once e^(-pi Im tau m) < 2^-(F+4).
        """

        def compute():
            if mp.make_mpf(qk[1]) < MIN_IM:
                raise ModulusError("Im(q) = %s below threshold %s" % (mp.make_mpf(qk[1]), MIN_IM))
            F, one = self._fix, 1 << self._fix
            p, Q = self.tau_power(2), gauss_exact(self.e(mp.make_mpc(qk)))
            (pr, pi), (Qr, Qi) = gauss_fixed(p, F), gauss_fixed(Q, F)
            weights, ar, ai, br, bi = [], pr, pi, Qr, Qi
            for m in range(1, int((F + 4) * math.log(2) / (math.pi * float(self.tau.imag))) + 2):
                # m (1-p^m)(1-Q^m) scaled by 2^(2F); c_m = 2^(3F) conj(d) / |d|^2 scaled by 2^F
                dr, di = m * ((one - ar) * (one - br) - ai * bi), -m * ((one - ar) * bi + ai * (one - br))
                d2 = dr * dr + di * di
                weights.append(((dr << 3 * F) // d2, (-di << 3 * F) // d2, F))
                ar, ai = (ar * pr - ai * pi) >> F, (ar * pi + ai * pr) >> F
                br, bi = (br * Qr - bi * Qi) >> F, (br * Qi + bi * Qr) >> F
            return weights[::-1], gauss_mul(p, Q, F), gauss_cut(*gauss_exact(self._c_pair[1]), F)

        qk = point_key(q)
        return memo(self._gamma_table_cache, qk, compute)

    def _gamma_at(self, z, q):
        """gamma_q(z): one fixed-point series, one exponent and one exp, rounded once.

        With k = nint((Im z - (Im tau + Im q)/2) / Im q), z0 = z - k q has
        Im tau/2 <= Im z0 <= Im tau/2 + Im q, so x = e(z0) and y = pQ/x (both
        from one `half_e`(2 z0)) are at most e^(-pi Im tau) in modulus, and
        S = sum_m c_m (x^m - y^m) is the log of the standard product at z0,
        summed as x H(x) - y H(y) by Horner's rule (`_gamma_table`): two
        complex products per term, an absolute error of a few units of 2^-F.
        The shifts gamma(q+w) = -e(w/2) (p;p)^2 theta(w) gamma(w) then give

            gamma_q(z) = exp(E) prod_j (-(p;p)^2 theta(z0 + j q))^sign(k),
            E = S - (z/q) log C - pi i (z (z-q)/(2q) - k z0 - k (k-1) q/2),

        over j = 0..k-1 (k > 0) or k..-1 (k < 0), each z0 + j q exact and its
        theta an unrounded value of the integer kernel.  E is formed at
        F + GUARD_BITS bits (formed at `ctx._wp`, its rounding doubled the
        kernel identities' defects) and the product is rounded once, to
        `ctx._wp` bits.  A divisor theta that is exactly 0 (the kernel's
        zero rule) puts z on a pole: PoleProximityError.
        """
        F = self._fix
        weights, pq, c = self._gamma_table(q)
        zk, qk = point_key(z), point_key(q)
        q_im = to_float(qk[1])
        k = round((to_float(zk[1]) - (float(self.tau.imag) + q_im) / 2) / q_im)

        def shifted(j):  # z + j q, exactly
            return tuple(mpf_add(a, mpf_mul(from_int(j), b)) for a, b in zip(zk, qk))

        z0 = shifted(-k)
        x, inv_x = self.half_e(mp.make_mpc(tuple(mpf_shift(a, 1) for a in z0)))
        (xr, xi), (yr, yi) = gauss_fixed(x, F), gauss_fixed(gauss_mul(pq, inv_x, F), F)
        (ar, ai), (br, bi) = _horner(weights, xr, xi), _horner(weights, yr, yi)
        sr, si = xr * ar - xi * ai - yr * br + yi * bi, xr * ai + xi * ar - yr * bi - yi * br
        with mp.workprec(F + GUARD_BITS):
            z, q, w0 = mp.make_mpc(zk), mp.make_mpc(qk), mp.make_mpc(z0)
            w = z / q
            E = mp.make_mpc((from_man_exp(sr, -2 * F), from_man_exp(si, -2 * F))) - w * self._log_c()
            E -= mpc(0, mp.pi) * (z * (w - 1) / 2 - k * w0 - k * (k - 1) // 2 * q)
            num, den = gauss_cut(*gauss_exact(mp.exp(E)), F), GAUSS_ONE
        for j in range(min(k, 0), max(k, 0)):
            f = gauss_mul(c, self._theta_gauss(shifted(j - k)), F)
            if k > 0:
                num = gauss_mul(num, f, F)
            elif f[0] or f[1]:
                den = gauss_mul(den, f, F)
            else:
                raise PoleProximityError("gamma_q(z) has a pole at z = %s" % mp.make_mpc(zk))
        return gauss_div(num, den, self._wp)

    def gamma_double_product(self, z, q):
        """Reference evaluation of the Gamma symbol by its raw double product.

        p^j Q^k (p = e(tau), Q = e(q)) and its modulus are running products;
        a row stops once |p^j Q^k| (|x| + 1/|x|) is below the cutoff.
        """
        with mp.workprec(self._wp):
            z = mpc(z)
            q = mpc(q)
            if q.imag < MIN_IM:
                raise ModulusError("Im(q) below threshold")
            logc = self._log_c()
            pref = mp.exp(-(z / q) * logc) * self.e(-z * (z - q) / (4 * q))
            p = self.e(self.tau)
            Q = self.e(q)
            x = self.e(z)
            pq_x = p * Q / x
            size = abs(x) + 1 / abs(x)
            abs_p, abs_Q = abs(p), abs(Q)
            val = mpc(1)
            pj, abs_pj = mpc(1), mpf(1)
            for _ in range(DOUBLE_PRODUCT_TERMS):
                row = mpc(1)
                done_row = False
                pjk, abs_pjk = pj, abs_pj  # p^j Q^k and its modulus
                for kk in range(DOUBLE_PRODUCT_TERMS):
                    row *= (1 - pjk * pq_x) / (1 - pjk * x)
                    if abs_pjk * size < self._cutoff:
                        done_row = kk > 0
                        break
                    pjk, abs_pjk = pjk * Q, abs_pjk * abs_Q
                val *= row
                if done_row and abs_pj * size < self._cutoff:
                    break
                pj, abs_pj = pj * p, abs_pj * abs_p
            return pref * val
