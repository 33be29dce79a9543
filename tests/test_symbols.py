import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc

from ccnops.symbols import (
    AffineForm,
    GammaProduct,
    PolarizationRecord,
    ThetaExpr,
    UnbalancedError,
    _step_class,
    zvar,
)
from conftest import TOL, rel

qf = AffineForm.var("q")
z1 = zvar(1)


def test_reduce_shift():
    gp = GammaProduct(terms=((qf + z1, 1), (z1, -1)))
    te = gp.reduce(arity=1)
    assert isinstance(te, ThetaExpr)
    assert te.factors == ((z1, 1),)


def test_reduce_empty():
    te = GammaProduct.one().reduce()
    assert isinstance(te, ThetaExpr)
    assert te.factors == ()


def test_reduce_unbalanced():
    gp = GammaProduct(terms=((z1, 1), (zvar(2), -1)))
    with pytest.raises(UnbalancedError) as info:
        gp.reduce()
    assert isinstance(info.value, ValueError)
    assert info.value.residual == ((z1, 1), (zvar(2), -1))
    with pytest.raises(UnbalancedError):
        GammaProduct(terms=((z1, 1),)).shift_ratio((Fraction(1, 2),), 1)  # a half step does not resolve


def test_pochhammer_class_resolution(ctx):
    gp = GammaProduct(terms=((qf * 2 + z1, 1), (z1, -1)))
    te = gp.reduce(arity=1)
    bind = {"z1": mpc("0.17", "0.23"), "q": mpc("0.05", "0.71")}
    want = ctx.theta(bind["z1"]) * ctx.theta(bind["q"] + bind["z1"])
    assert rel(te.eval(ctx, bind), want) < TOL


def test_negative_class_resolution(ctx):
    gp = GammaProduct(terms=((z1 - qf, 1), (z1, -1)))
    te = gp.reduce(arity=1)
    bind = {"z1": mpc("0.17", "0.23"), "q": mpc("0.05", "0.71")}
    want = 1 / ctx.theta(bind["z1"] - bind["q"])
    assert rel(te.eval(ctx, bind), want) < TOL


def test_ledger_matches_measured_multiplier(ctx):
    # balanced product resolves; its measured tau-multiplier agrees with Q
    gp = GammaProduct(terms=((qf + z1, 2), (z1, -2)))
    te = gp.reduce(arity=1)
    Q = te.zpart_quadratic(1)
    assert Q == ((Fraction(2),),)
    bind = {"q": mpc("0.05", "0.71")}
    f = lambda z: te.eval(ctx, {**bind, "z1": z})
    za, zb = mpc("0.11", "0.13"), mpc("-0.21", "0.06")
    ma = f(za + ctx.tau) / f(za)
    mb = f(zb + ctx.tau) / f(zb)
    pred = ctx.e(-2 * (za - zb))
    assert rel(ma / mb, pred) < TOL


def test_polarization_record_ops():
    pr = PolarizationRecord(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))), -1)
    ident = [[1, 0], [0, 1]]
    assert pr.pullback(ident) == pr
    neg = [[-1, 0], [0, -1]]
    assert pr.pullback(neg) == pr
    col = [[1], [1]]  # Z -> Z^2
    pulled = pr.pullback(col)
    assert pulled.Q == ((Fraction(2),),)
    assert pulled.w == -1


def test_affine_substitution():
    f = z1 * 2 + AffineForm.var("t") - Fraction(1, 2)
    g = f.substitute({"z1": zvar(2) + qf})
    assert g.coeff("z2") == 2 and g.coeff("q") == 2 and g.coeff("t") == 1
    assert g.const == Fraction(-1, 2)


def _exact(x):
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _round_once(r, prec):
    """The rational r rounded to nearest (ties to even) at prec bits."""
    if not r:
        return r
    e = abs(r.numerator).bit_length() - r.denominator.bit_length() - prec
    while abs(r) >= Fraction(2) ** (e + prec):
        e += 1
    while abs(r) < Fraction(2) ** (e + prec - 1):
        e -= 1
    return round(r / Fraction(2) ** e) * Fraction(2) ** e


def test_affine_form_eval_rounds_once():
    form = AffineForm({"a": 1, "b": -2, "c": Fraction(1, 2), "d": Fraction(1, 3)}, Fraction(3, 4))
    rng = random.Random(11)
    for prec in (53, 64, 113):
        with mp.workprec(prec):
            for _ in range(20):
                bind = {s: mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for s in "abcd"}  # exact
                got = form.eval(bind, prec)
                for part, const in (("real", form.const), ("imag", 0)):
                    total = const + sum(c * _exact(getattr(bind[s], part)) for s, c in form.coeffs.items())
                    assert _exact(getattr(got, part)) == _round_once(total, prec)


def _pairwise_reduce(gp, arity):
    """`GammaProduct.reduce` as a pairwise search over class representatives (the oracle)."""
    sym, c = next(iter(gp.step.coeffs.items()))
    classes = []  # [rep, {k: exponent}]
    for form, m in gp.terms:
        for rep, ks in classes:
            diff = form - rep
            k = diff.coeff(sym) / c
            if k.denominator == 1 and (gp.step * k).key() == diff.key():
                ks[int(k)] = ks.get(int(k), 0) + m
                break
        else:
            classes.append([form, {0: m}])
    residual = tuple((rep, sum(ks.values())) for rep, ks in classes if sum(ks.values()))
    if residual:
        raise UnbalancedError(residual)
    factors = []
    for rep, ks in classes:
        for k, m in ks.items():
            if m and k >= 0:
                factors += [(rep + gp.step * i, m) for i in range(k)]
            elif m:
                factors += [(rep - gp.step * i, -m) for i in range(1, -k + 1)]
    return ThetaExpr(tuple(factors), arity)


def _outcome(reduce, *args):
    """reduce(*args), or the UnbalancedError it raises."""
    try:
        return reduce(*args)
    except UnbalancedError as exc:
        return exc


def _layout(pairs):
    """Forms with their coefficient order, and exponents: equal only for identical output."""
    return [(tuple(f.coeffs.items()), f.const, m) for f, m in pairs]


def _random_base(rng):
    symbols = rng.sample(("z1", "z2", "z3", "t", "eta"), rng.randint(1, 3))
    coeffs = {s: rng.choice((-2, -1, 1, 1, 2, Fraction(1, 2))) for s in symbols}
    coeffs["q"] = rng.choice((Fraction(-3, 2), -1, Fraction(-1, 3), 0, 0, Fraction(1, 2), Fraction(2, 3), 1, Fraction(5, 2)))
    return AffineForm(coeffs, rng.choice((0, 0, Fraction(1, 2), -1)))


@pytest.mark.parametrize("step", [qf, qf * 2, qf * Fraction(1, 3), -qf], ids=["q", "2q", "q/3", "-q"])
def test_reduce_matches_the_pairwise_search(step):
    rng = random.Random(15)
    kinds = set()
    for trial in range(60):
        terms = []
        for base in (_random_base(rng) for _ in range(rng.randint(1, 4))):
            for _ in range(rng.randint(1, 3)):
                m = rng.choice((-2, -1, 1, 2))
                ks = rng.sample(range(-3, 4), 2)
                terms += [(base + step * ks[0], m), (base + step * ks[1], -m)]
        if trial % 3 == 0:
            terms.append((_random_base(rng), rng.choice((-1, 1))))
        for _ in range(3):
            rng.shuffle(terms)
            gp = GammaProduct(step, terms)
            got, want = _outcome(gp.reduce, 3), _outcome(_pairwise_reduce, gp, 3)
            assert type(got) is type(want)
            kinds.add(type(got))
            if isinstance(want, UnbalancedError):
                assert _layout(got.residual) == _layout(want.residual)
            else:
                assert _layout(got.factors) == _layout(want.factors) and got.arity == 3
    assert kinds == {ThetaExpr, UnbalancedError}


def test_reduce_floors_negative_fractional_multiples():
    half = Fraction(1, 2)
    te = GammaProduct(terms=((z1 - qf * Fraction(3, 2), 1), (z1 + qf * half, -1))).reduce(arity=1)
    assert isinstance(te, ThetaExpr)
    assert _layout(te.factors) == _layout(((z1 - qf * Fraction(3, 2), -1), (z1 - qf * half, -1)))
    with pytest.raises(UnbalancedError) as info:
        GammaProduct(terms=((z1 + qf * half, 1), (z1, -1))).reduce(arity=1)
    assert len(info.value.residual) == 2
    # a step of 2q: 4q and -4q are exact multiples of it, q is not
    q2 = qf * 2
    te = GammaProduct(q2, ((z1 + qf * 4, 1), (z1, -1), (z1 - qf * 4, 1), (z1 - qf * 4, -1))).reduce(arity=1)
    assert _layout(te.factors) == _layout(((z1 + q2, 1), (z1, 1)))
    te = GammaProduct(q2, ((z1 - qf * 4, 1), (z1, -1))).reduce(arity=1)
    assert _layout(te.factors) == _layout(((z1 - qf * 4, -1), (z1 - q2, -1)))
    with pytest.raises(UnbalancedError):
        GammaProduct(q2, ((z1 + qf, 1), (z1, -1))).reduce(arity=1)


def _substitute_by_sums(form, assignments):
    """`AffineForm.substitute` as a running sum of one form per symbol (the oracle).

    Also says whether a symbol cancelled in the running sum and came back.
    """
    out, gone, returned = AffineForm({}, form.const), set(), False
    for s, c in form.coeffs.items():
        before = set(out.coeffs)
        out = out + (assignments[s] * c if s in assignments else AffineForm({s: c}))
        returned |= bool(gone & set(out.coeffs))
        gone |= before - set(out.coeffs)
    return out, returned


def test_substitute_matches_the_running_sum():
    # coefficients, their insertion order and the constant all agree, also
    # when a symbol cancels part-way and comes back later
    rng = random.Random(16)
    syms = ("z1", "z2", "z3", "q")

    def rng_form(k):
        coeffs = {s: rng.choice((-2, -1, 1, 1, Fraction(1, 2))) for s in rng.sample(syms, k)}
        return AffineForm(coeffs, rng.choice((0, Fraction(1, 3), -1)))

    returned = 0
    for _ in range(600):
        form = rng_form(rng.randint(2, 4))
        assignments = {s: rng_form(rng.randint(1, 3)) for s in rng.sample(syms, rng.randint(1, 3))}
        got = form.substitute(assignments)
        want, came_back = _substitute_by_sums(form, assignments)
        assert list(got.coeffs.items()) == list(want.coeffs.items()) and got.const == want.const
        returned += came_back
    assert returned >= 10
    # a symbol that cancels and returns goes last
    form = AffineForm({"z1": 1, "z2": 1, "z3": 1})
    got = form.substitute({"z2": AffineForm({"z1": -1, "q": 1}), "z3": AffineForm({"z1": 2})})
    assert list(got.coeffs.items()) == [("q", 1), ("z1", 2)]


def test_affine_form_eval_reads_no_global_precision():
    # the precision is the argument's: the same bits under a global 53 bits
    # as under a working precision of 272
    form = AffineForm({"a": 3, "q": Fraction(-5, 6), "t": Fraction(1, 7)}, Fraction(2, 9))
    rng = random.Random(17)
    with mp.workprec(300):
        binds = [{s: mpc(rng.random(), rng.random()) / 3 for s in ("a", "q", "t")} for _ in range(10)]
    for bind in binds:
        with mp.workprec(272):
            want = form.eval(bind, 272)
        with mp.workprec(53):
            got = form.eval(bind, 272)
        assert got._mpc_ == want._mpc_ and mp.mpf(got.real)._mpf_[3] > 53


class _RefForm:
    """The Fraction-dict affine form (the reference): {sym: Fraction} in stored order and a Fraction constant."""

    def __init__(self, coeffs=None, const=0):
        self.coeffs = {s: Fraction(c) for s, c in (coeffs or {}).items() if c}
        self.const = Fraction(const)

    def __add__(self, other):
        if not isinstance(other, _RefForm):
            return _RefForm(self.coeffs, self.const + Fraction(other))
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out.get(s, Fraction(0)) + c
        return _RefForm(out, self.const + other.const)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _RefForm({s: -c for s, c in self.coeffs.items()}, -self.const)

    def __mul__(self, k):
        k = Fraction(k)
        return _RefForm({s: c * k for s, c in self.coeffs.items()}, self.const * k)

    def key(self):
        return tuple(sorted(self.coeffs.items())), self.const

    def identical(self, other):
        return list(self.coeffs.items()) == list(other.coeffs.items()) and self.const == other.const

    def substitute(self, assignments):
        coeffs, const = {}, self.const
        for s, c in self.coeffs.items():
            if s in assignments:
                sub = assignments[s]
                terms = [(t, a * c) for t, a in sub.coeffs.items()]
                const += sub.const * c
            else:
                terms = ((s, c),)
            for t, a in terms:
                v = coeffs.get(t, 0) + a
                if v:
                    coeffs[t] = v
                else:
                    del coeffs[t]
        return _RefForm(coeffs, const)


def _ref_step_class(form, step):
    """(key, n) of the Fraction form: n = floor(form / step) on the step's anchor."""
    if step.coeffs:
        sym, c = next(iter(step.coeffs.items()))
        n = math.floor(form.coeffs.get(sym, Fraction(0)) / c)
    else:
        n = math.floor(form.const / step.const)
    return (form - step * n if n else form).key(), n


def _ref_random_form(rng):
    syms = rng.sample(("z1", "z2", "q", "t"), rng.randint(0, 3))
    values = (-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), Fraction(5, 6))
    return _RefForm({s: rng.choice(values) for s in syms}, rng.choice((0, 1, -1, Fraction(1, 2), Fraction(-7, 3))))


_STEPS = [_RefForm({"q": 1}), _RefForm({"q": 2}), _RefForm({"q": Fraction(1, 3)}), _RefForm({"q": -1})]


def test_integer_form_against_the_fraction_reference():
    # seeded chains of +, -, scalar * (0 included) and substitute on both
    # forms: coefficients in order, constant, key and hash, layout (equal
    # exactly when identical) and the step class at q, 2q, q/3 and -q agree
    rng = random.Random(26)
    scalars = (0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5), Fraction(6, 4))
    steps = [(AffineForm(s.coeffs, s.const), s) for s in _STEPS]
    seen = {"equal": 0, "identical": 0, "reordered": 0}
    for chain in range(2000):
        pool = []
        for _ in range(3):
            ref = _ref_random_form(rng)
            pool.append((AffineForm(ref.coeffs, ref.const), ref))
        for _ in range(4):
            (a, ra), (b, rb) = rng.choice(pool), rng.choice(pool)
            op = rng.randrange(6)
            if op == 0:
                new, ref = a + b, ra + rb
            elif op == 1:
                new, ref = a - b, ra - rb
            elif op == 2:
                k = rng.choice(scalars)
                new, ref = a * k, ra * k
            elif op == 3:
                k = rng.choice(scalars)
                new, ref = a + k, ra + k
            elif op == 4:
                new, ref = b + (a * 2) * Fraction(1, 2) - b, rb + ra - rb
            else:
                names = rng.sample(("z1", "z2", "q", "t"), rng.randint(1, 3))
                picks = [rng.choice(pool) for _ in names]
                new = a.substitute({s: f for s, (f, _) in zip(names, picks)})
                ref = ra.substitute({s: r for s, (_, r) in zip(names, picks)})
            assert list(new.coeffs.items()) == list(ref.coeffs.items()), chain
            assert new.const == ref.const, chain
            for other, rother in pool:
                equal = ref.key() == rother.key()
                assert (new.key() == other.key()) == equal and (new == other) == equal, chain
                assert not equal or hash(new) == hash(other), chain
                identical = ref.identical(rother)
                assert (new.layout() == other.layout()) == identical, chain
                seen["equal"] += equal
                seen["identical"] += identical
                seen["reordered"] += equal and not identical
            for step, rstep in steps:
                key, n = _step_class(new, step)
                rkey, rn = _ref_step_class(ref, rstep)
                assert n == rn and key == AffineForm(dict(rkey[0]), rkey[1]).key(), chain
            pool.append((new, ref))
    assert min(seen.values()) >= 100, seen
