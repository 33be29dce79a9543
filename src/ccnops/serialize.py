"""Text serialization of difference operators.

JSON-based line format: shift vectors with theta-factor lists plus the
parameter bindings.  Multiprecision values are stored as exact mantissa
tuples and read back without rounding, so ThetaExpr-backed operators
round-trip exactly whatever the global mp.prec.
"""

from __future__ import annotations

import json
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import from_man_exp

from .curve import point_key
from .diffop import DifferenceOperator, ExprCoefficient
from .symbols import AffineForm, ThetaExpr

#: format 1 stores an exponential prefactor with every expression; a
#: ThetaExpr has none, so these fields always hold the trivial one, 1 * e(0)
_PREFACTOR = {"pref_const": {"frac": "1/1"}, "pref_exp": []}


def _enc_frac(x):
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


def _dec_frac(s):
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def _enc_mpf(t):
    sign, man, exp, bc = t
    return [int(sign), str(int(man)), int(exp), int(bc)]


def _dec_mpf(v):
    sign, man, exp, _ = v
    return from_man_exp(-int(man) if sign else int(man), int(exp))


def _enc_number(x):
    if isinstance(x, (Fraction, int)):
        return {"frac": _enc_frac(x)}
    re, im = point_key(x)
    return {"re": _enc_mpf(re), "im": _enc_mpf(im)}


def _dec_number(d):
    if "frac" in d:
        return _dec_frac(d["frac"])
    return mp.make_mpc((_dec_mpf(d["re"]), _dec_mpf(d["im"])))


def _enc_affine(form):
    return {
        "coeffs": {s: _enc_frac(c) for s, c in sorted(form.coeffs.items())},
        "const": _enc_frac(form.const),
    }


def _dec_affine(d):
    return AffineForm({s: _dec_frac(c) for s, c in d["coeffs"].items()}, _dec_frac(d["const"]))


def _enc_expr(expr):
    return {
        "factors": [[_enc_affine(f), m] for f, m in expr.factors],
        "arity": expr.arity,
        **_PREFACTOR,
    }


def _dec_expr(d):
    if any(d.get(key) != value for key, value in _PREFACTOR.items()):
        raise ValueError("only the trivial expression prefactor 1 * e(0) is supported")
    return ThetaExpr(tuple((_dec_affine(f), int(m)) for f, m in d["factors"]), int(d["arity"]))


def operator_to_text(op):
    doc = {
        "format": "ccnops-operator/1",
        "n": op.n,
        "params": {k: _enc_number(v) for k, v in sorted(op.params.items())},
        "terms": [],
    }
    for k in op.support():
        c = op.coefficient(k)
        if not isinstance(c, ExprCoefficient):
            raise ValueError("only ThetaExpr-backed coefficients serialize")
        doc["terms"].append(
            {
                "shift": [_enc_frac(x) for x in k],
                "parts": [
                    {"scale": _enc_number(scale), "expr": _enc_expr(expr)}
                    for scale, expr, _ in c.parts
                ],
            }
        )
    return json.dumps(doc, indent=1, sort_keys=True)


def operator_from_text(text):
    doc = json.loads(text)
    if doc.get("format") != "ccnops-operator/1":
        raise ValueError("unrecognized operator format")
    params = {k: _dec_number(v) for k, v in doc["params"].items()}
    coeffs = {}
    for term in doc["terms"]:
        k = tuple(_dec_frac(s) for s in term["shift"])
        coeffs[k] = ExprCoefficient.sum(
            ExprCoefficient(_dec_expr(p["expr"]), params, _dec_number(p["scale"]))
            for p in term["parts"]
        )
    return DifferenceOperator(int(doc["n"]), coeffs, params)
