"""The built-in identity catalogue for the evaluation kernel.

Each identity evaluates both sides at seeded random parameters and reports
the maximal relative defect.  The symmetrization identities are the A/B/C/D
coset sums; the restriction identities evaluate theta ratios at torsion
points of the relevant hypersurfaces.
"""

from __future__ import annotations

import random

from mpmath import mp, mpc, mpf

from .conditions import TOLERANCE, ConditionReport
from .curve import at_context_precision
from .diffop import rel_defect


CATALOGUE = (
    "theta-oddness",
    "theta-quasiperiod",
    "sum-vs-product",
    "gamma-shift",
    "gamma-reflection",
    "multiplication-principle",
    "sym-An",
    "sym-Bn",
    "sym-Cn",
    "sym-Dn",
    "restrict-2z",
    "restrict-mz",
)


def _draw(rng, re=0.45, im=0.35):
    return mpc(rng.uniform(-re, re), rng.uniform(-im, im))


def _draw_q(rng, ctx):
    """A q with |Re q| <= 0.3 and Im q in [0.35, 0.7 Im tau], or in [0.31, 0.35] where Im tau < 0.5 empties that."""
    top = float(ctx.tau.imag) * 0.7
    return mpc(rng.uniform(-0.3, 0.3), rng.uniform(0.35, top) if top >= 0.35 else rng.uniform(0.31, 0.35))


@at_context_precision
def run_identity(ctx, name, n=2, samples=20, seed=1, tol=TOLERANCE):
    """Evaluate one catalogue identity; returns a ConditionReport."""
    if name not in CATALOGUE:
        raise ValueError("unknown identity %r" % (name,))
    rng = random.Random(seed)
    report = ConditionReport(tolerance=tol)
    for s in range(samples):
        if name == "theta-oddness":
            z = _draw(rng)
            report.add("%s#%d" % (name, s), rel_defect(ctx.theta(-z), -ctx.theta(z)))
        elif name == "theta-quasiperiod":
            z = _draw(rng)
            v = ctx.theta(z)
            d1 = rel_defect(ctx.theta(z + 1), -v)
            d2 = rel_defect(ctx.theta(z + ctx.tau), -ctx.e(-z - ctx.tau / 2) * v)
            report.add("%s[+1]#%d" % (name, s), d1)
            report.add("%s[+tau]#%d" % (name, s), d2)
        elif name == "sum-vs-product":
            z = _draw(rng)
            report.add("%s#%d" % (name, s), rel_defect(ctx.theta(z), ctx.theta_product(z)))
        elif name == "gamma-shift":
            z = _draw(rng)
            q = _draw_q(rng, ctx)
            lhs = ctx.gamma(q + z, q) / ctx.gamma(z, q)
            report.add("%s#%d" % (name, s), rel_defect(lhs, ctx.theta(z)))
        elif name == "gamma-reflection":
            z = _draw(rng)
            q = _draw_q(rng, ctx)
            f = lambda w: ctx.gamma(w, q) * ctx.gamma(q - w, q)
            report.add("%s#%d" % (name, s), rel_defect(f(z + q), -f(z)))
        elif name == "multiplication-principle":
            z = _draw(rng)
            q = _draw_q(rng, ctx)
            k = 2
            rhs = mpc(1)
            for j in range(k):
                rhs *= ctx.gamma(z + j * q, k * q)
            # under the fixed principal-branch prefactor, the product picks
            # up the constant e(q (k^2-1)/24) C^{-(k-1)/2}
            corr = ctx.e(q * (k * k - 1) / mpf(24)) * mp.exp(
                -mpf(k - 1) / 2 * ctx._log_c()
            )
            report.add("%s#%d" % (name, s), rel_defect(ctx.gamma(z, q) * corr, rhs))
        elif name == "restrict-2z":
            u, v = _draw(rng), _draw(rng)
            for tor, want in ((mpc(0.5), -1), (ctx.tau / 2, -1), ((1 + ctx.tau) / 2, -1)):
                z = tor
                val = (
                    ctx.theta(u - z)
                    * ctx.theta(v - z)
                    * ctx.theta(u + v + z)
                    / (ctx.theta(u + z) * ctx.theta(v + z) * ctx.theta(u + v - z))
                )
                report.add("%s[%s]#%d" % (name, want, s), rel_defect(val, mpc(want)))
        elif name == "restrict-mz":
            u, v, w = _draw(rng), _draw(rng), _draw(rng)
            m = 2 + s % 3
            a, b = rng.randrange(m), rng.randrange(m)
            z = (a + b * ctx.tau) / m
            val = (
                ctx.theta(u + m * z)
                * ctx.theta(u + w)
                * ctx.theta(v)
                * ctx.theta(v + w + m * z)
                / (
                    ctx.theta(u)
                    * ctx.theta(u + w + m * z)
                    * ctx.theta(v + m * z)
                    * ctx.theta(v + w)
                )
            )
            report.add("%s[m=%d]#%d" % (name, m, s), rel_defect(val, mpc(1)))
        elif name == "sym-An":
            report.add("%s#%d" % (name, s), _sym_a(ctx, rng, n))
        elif name in ("sym-Bn", "sym-Cn", "sym-Dn"):
            report.add("%s#%d" % (name, s), _sym_bcd(ctx, rng, n, name[4]))
    return report


def _sym_a(ctx, rng, n):
    """Coset sum over swaps of z_{n+1}: holds on the sum-zero subvariety."""
    zs = [_draw(rng, 0.3, 0.25) for _ in range(n)]
    zs.append(-sum(zs))
    ys = [_draw(rng, 0.3, 0.25) for _ in range(n + 2)]
    Y = sum(ys)
    total = mpc(0)
    for j in range(n + 1):
        num = mpc(1)
        for y in ys:
            num *= ctx.theta(zs[j] - y)
        den = mpc(1)
        for i in range(n + 1):
            if i == j:
                continue
            num *= ctx.theta(Y - zs[i])
            den *= ctx.theta(zs[j] - zs[i])
        total += num / den
    rhs = mpc(1)
    for y in ys:
        rhs *= ctx.theta(Y - y)
    return rel_defect(total, rhs)


def _sym_bcd(ctx, rng, n, kind):
    """The C/B/D coset sums over the 2n substitutions z_n -> +-z_j."""
    if kind == "B" and n < 2:
        raise ValueError("the B identity needs n >= 2")
    if kind == "D" and n < 3:
        raise ValueError("the D identity needs n >= 3")
    zs = [_draw(rng, 0.3, 0.25) for _ in range(n)]
    ny = {"C": 2 * n + 1, "B": 2 * n - 2, "D": 2 * n - 3}[kind]
    ys = [_draw(rng, 0.3, 0.25) for _ in range(ny)]
    Y = sum(ys)

    def term(w, rest):
        num = mpc(1)
        for y in ys:
            num *= ctx.theta(w - y)
        num *= ctx.theta(Y + w)
        den = mpc(1)
        if kind == "C":
            den *= ctx.theta(2 * w)
        elif kind == "B":
            den *= ctx.theta(w)
        for v in rest:
            num *= ctx.theta(Y + v) * ctx.theta(Y - v)
            den *= ctx.theta(w + v) * ctx.theta(w - v)
        return num / den

    total = mpc(0)
    for j in range(n):
        rest = [zs[i] for i in range(n) if i != j]
        for sgn in (1, -1):
            total += term(sgn * zs[j], rest)
    rhs = mpc(1)
    for y in ys:
        rhs *= ctx.theta(Y - y)
    if kind == "B":
        rhs *= ctx.theta(2 * Y) / ctx.theta(Y)
    elif kind == "D":
        rhs *= ctx.theta(2 * Y)
    return rel_defect(total, rhs)
