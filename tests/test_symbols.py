import random
from fractions import Fraction

from mpmath import mp, mpc, mpf

from ccnops.symbols import (
    AffineForm,
    GammaProduct,
    PolarizationRecord,
    Poly,
    ThetaExpr,
    Unbalanced,
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
    # ledger: polarization z^2/2, weight -1 agree with the resolution
    assert gp.polarization_poly() == Poly({(("z1", 2),): Fraction(1, 2)})
    assert gp.weight_poly() == Poly.const(-1)
    assert te.polarization_poly() == gp.polarization_poly()
    assert te.weight() == -1


def test_reduce_empty():
    te = GammaProduct.one().reduce()
    assert isinstance(te, ThetaExpr)
    assert te.factors == ()


def test_reduce_unbalanced():
    gp = GammaProduct(terms=((z1, 1), (zvar(2), -1)))
    out = gp.reduce()
    assert isinstance(out, Unbalanced)
    assert len(out.residual) == 2


def test_reflection_ledger():
    gp = GammaProduct(terms=((z1, 1), (qf - z1, 1)))
    assert gp.polarization_poly().is_zero()
    assert gp.weight_poly() == Poly.const(-1)


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


def test_well_definedness_flags():
    # theta(z1-z2)/theta(z1)theta(z2)... weight must vanish and Q must vanish
    e1 = ThetaExpr(((z1 - zvar(2), 1), (z1 - zvar(2), -1)), arity=2)
    assert e1.is_function_on_curve_power(2)
    e2 = ThetaExpr(((z1, 1),), arity=1)
    assert not e2.is_function_on_curve_power(1)
    e3 = ThetaExpr(((z1, 1), (zvar(2), -1)), arity=2)
    assert not e3.is_function_on_curve_power(2)  # weight 0 but Q nontrivial


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
                got = form.eval(bind)
                for part, const in (("real", form.const), ("imag", 0)):
                    total = const + sum(c * _exact(getattr(bind[s], part)) for s, c in form.coeffs.items())
                    assert _exact(getattr(got, part)) == _round_once(total, prec)
