"""Statement-level predicates for every theorem, plus the normalized-form
cubic and quintic permutation tests they rely on."""

from __future__ import annotations

import contextlib
import functools
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Optional

from .errors import (
    GammaNotInSubfield,
    MissingParam,
    UnknownTheorem,
    WrongCharacteristic,
)
from .families import _core_monomials, theorem_info
from .gf import FieldCtx, power_class, subfield_elements, subfield_order, trace_sum
from .tower import TowerCtx


HYPOTHESIS_VIOLATED = "hypothesis-violated"
FOLDED = "permutes only after exponent folding"
VOIDED = "stated case voided by exponent folding"


@dataclass(frozen=True)
class Verdict:
    predicted: bool
    matched_case: str  # e.g. "3.1(ii)" or "none"
    notes: Optional[str] = None


# most class verdicts; a Verdict is frozen, so one object serves them all
_NONE = Verdict(False, "none")


@functools.cache  # one shared verdict, and note string, per reason
def _violated(why: str) -> Verdict:
    """The verdict outside the hypothesis: the only kind that may disagree."""
    return Verdict(False, "none", f"{HYPOTHESIS_VIOLATED}: {why}")


def _fourth_or_not_square(ctx: FieldCtx, x: int) -> bool:
    return power_class(ctx, x, 4) or not power_class(ctx, x, 2)


def cubic_norm_pp(ctx: FieldCtx, c: int) -> bool:
    """Does z^3 - c*z permute F_q (odd q)?"""
    if ctx.p == 2:
        raise WrongCharacteristic("cubic criterion is for odd q")
    q = ctx.q
    if q % 3 == 0 and not power_class(ctx, c, 2):
        return True
    return q % 3 != 1 and c == 0


def quintic_norm_pp(ctx: FieldCtx, A: int, B: int) -> bool:
    """Does z^5 + A*z^3 + B*z permute F_q (odd q)?

    Implements the classification of normalized quintic permutation
    polynomials; exhaustively validated against the brute-force oracle for
    q in {3, 5, 7, 9, 11, 13}.
    """
    if ctx.p == 2:
        raise WrongCharacteristic("quintic criterion is for odd q")
    q = ctx.q
    if q == 3:
        # z^5 and z^3 both act as z, so f acts as (1 + A + B) z
        return ctx.add(ctx.add(ctx.scalar(1), A), B) != 0
    if q == 5:
        # z^5 acts as z; the residue is the cubic A z^3 + (B + 1) z
        lin = ctx.add(B, ctx.scalar(1))
        if A == 0:
            return lin != 0
        return cubic_norm_pp(ctx, ctx.neg(ctx.div(lin, A)))
    if A == 0 and B == 0:
        return q % 5 != 1
    if q % 5 == 0 and A == 0:
        # z^5 + Bz is linearized; permutes iff -B has no fourth root
        return not power_class(ctx, ctx.neg(B), 4) if B != 0 else True
    if q == 9 and A == 0 and ctx.mul(B, B) == ctx.scalar(2):
        return True
    if q % 5 in (2, 3) and ctx.mul(A, A) == ctx.mul(ctx.scalar(5), B):
        return True
    if (
        q == 13
        and B == ctx.mul(ctx.scalar(3), ctx.mul(A, A))
        and A != 0
        and not power_class(ctx, A, 2)
    ):
        return True
    if q % 5 == 0 and A != 0:
        # z*(z^2 - s)^2 with s = -A/2; permutes iff s has no square root
        s = ctx.neg(ctx.div(A, ctx.scalar(2)))
        if B == ctx.mul(s, s) and not power_class(ctx, s, 2):
            return True
    return False


def _z_core(info, tower: TowerCtx, delta: int, i: int | None) -> tuple[int, int, int]:
    """(e5, e3, e1): the coefficients of z^5, z^3 and z in g2's core part,
    sum_s core^s at v = a, the base coordinate of delta (F_q* theorems are odd).

    They are read off the cached _core_monomials; closed_form_components adds
    the same monomials, and the linear part, which _z_terms adds here.
    """
    B = tower.base
    v = tower.split(delta)[0]
    e = {5: 0, 3: 0, 1: 0}
    for vdeg, which, (_, zdeg), const in _core_monomials(info.exponents(i), B.p, B.m, tower.u):
        if which == 1 and zdeg in e:
            e[zdeg] = B.add(e[zdeg], B.mul(const, B.pow(v, vdeg)))
    return e[5], e[3], e[1]


def _z_terms(info, tower: TowerCtx, core: tuple, gamma: int) -> tuple[int, int, int]:
    """(e5, e3, e1) of g2 at (delta, gamma), from delta's z-core and gamma in F_q*.

    x = y - (z - b)*alpha/2 turns gamma*x into gamma*y - gamma*z*alpha/2, so
    L = x adds -gamma/2 to e1; gamma*(x^q + x) = 2*gamma*y adds no z term.
    """
    e5, e3, e1 = core
    if info.linear_kind == "x":
        B = tower.base
        e1 = B.sub(e1, B.mul(gamma, tower._half))
    return e5, e3, e1


def _z_component_permutes(B: FieldCtx, e5: int, e3: int, e1: int) -> bool:
    """Does e5*z^5 + e3*z^3 + e1*z permute F_q?"""
    if e5 != 0:
        return quintic_norm_pp(B, B.div(e3, e5), B.div(e1, e5))
    if e3 != 0:
        return cubic_norm_pp(B, B.neg(B.div(e1, e3)))
    return e1 != 0


class _Memo(dict):
    """fn(key) for each key read, computed on its first read."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Invariants:
    """What class verdicts read of delta and of gamma apart, each computed on
    its first read: Tr of a delta or a gamma, N(gamma) (3.1-3.5), the z-core
    of a delta (the F_q* theorems' exact test), and 3.19's coordinates (a, b)
    of a delta, (c, d) of a gamma, and b^2.

    A one_verdict_per_class block keeps one, so each is computed once per
    class or gamma of the sweep; a class verdict outside a block makes its own.
    """

    __slots__ = ("trace", "norm", "z_core", "split", "square")

    def __init__(self, info, tower: TowerCtx, i: int | None):
        self.trace = _Memo(tower.trace)
        self.norm = _Memo(tower.norm)
        self.z_core = _Memo(lambda delta: _z_core(info, tower, delta, i))
        self.split = _Memo(tower.split)
        self.square = _Memo(lambda x: tower.base.mul(x, x))


# (ctx, tid, i, d, info, {rep * order + gamma: Verdict}, ctx.order, ctx.q, odd parity,
# info.needs_d, _Invariants or None) while a sweep runs; see one_verdict_per_class
_verdicts: ContextVar[tuple | None] = ContextVar("ppkit_verdicts", default=None)


@contextlib.contextmanager
def one_verdict_per_class(tid: str, ctx, i: int | None = None, d: int | None = None):
    """Within the block, predict(tid, ctx, delta, gamma, i, d) on this tid, this
    ctx object and this i and d checks only delta and gamma, and computes each
    (trace class of delta, gamma) once, returning that verdict for every delta
    of the class.  Any other call takes the full path and reads no table.

    The theorem check runs once, here.  The class verdicts of the block share
    one _Invariants, so Tr, N and the z-core are computed once per class or
    gamma.  The sweep engine opens the block around one theorem on one field;
    the table and the invariants are dropped on the way out, so nothing
    outlives the sweep.
    """
    info = theorem_info(tid)
    info.check(ctx, i, d)
    inv = None if info.needs_d else _Invariants(info, ctx, i)
    bound = (ctx, tid, i, d, info, {}, ctx.order, ctx.q, info.char == "odd", info.needs_d, inv)
    token = _verdicts.set(bound)
    try:
        yield
    finally:
        _verdicts.reset(token)


def predict(
    tid: str,
    ctx,
    delta: int = 0,
    gamma: int = 0,
    i: int | None = None,
    d: int | None = None,
) -> Verdict:
    """Evaluate the theorem's criterion for the encoded parameters.

    For theorems whose hypothesis restricts gamma to F_q*, parameters outside
    that set yield predicted = False with a "hypothesis-violated" note rather
    than an error, so probe sweeps can explore beyond the statement.  At very
    small q the stated case lists can miss permutations created by exponent
    folding; those theorems are decided by the exact z-component test and the
    verdict carries a "folded" note when the case list disagrees.  A delta or
    gamma that is not an encoding in ctx, or a nonzero delta for the trace
    form 4.1, raises InvalidParam.  Inside one_verdict_per_class, a call on
    its theorem, field, i and d is checked and computed once per
    (trace class of delta, gamma).
    """
    # Every criterion reads delta only through Tr(delta): x -> x + w moves delta
    # by w^q -+ w, which spans ker Tr.  With delta = c0 + c1*alpha the trace is
    # 2*c0 (odd) or c1 (even), so the least delta of that trace stands in for it.
    bound = _verdicts.get()
    if (bound is not None and bound[0] is ctx
            and bound[1] == tid and bound[2] == i and bound[3] == d):
        _, _, _, _, info, table, n, q, odd, needs_d, _ = bound  # unpacked: a slice would build a tuple
        if not (0 <= delta < n and 0 <= gamma < n) or (delta and needs_d):
            info.check(ctx, i, d, delta=delta, gamma=gamma)  # raises InvalidParam
        if needs_d:
            return _predict_41(ctx, gamma, d)
        rep = delta % q if odd else delta - delta % q
        key = rep * n + gamma  # one int per (class, gamma)
        v = table.get(key)
        if v is None:
            v = table[key] = _class_verdict(tid, info, ctx, rep, gamma, i)
        return v
    info = theorem_info(tid)
    info.check(ctx, i, d, delta=delta, gamma=gamma)
    if info.needs_d:
        return _predict_41(ctx, gamma, d)
    rep = delta % ctx.q if ctx.kind == "odd" else delta - delta % ctx.q
    return _class_verdict(tid, info, ctx, rep, gamma, i)


def _class_verdict(
    tid: str, info, tower: TowerCtx, delta: int, gamma: int, i: int | None
) -> Verdict:
    """The criterion at (delta, gamma) on the tower, computed without the table,
    from the invariants of the one_verdict_per_class block bound to this tower,
    tid and i (a tower theorem's block has d None), else from its own."""
    bound = _verdicts.get()
    if bound is not None and bound[0] is tower and bound[1] == tid and bound[2] == i:
        inv = bound[10]
    else:
        inv = _Invariants(info, tower, i)
    v = _statement_predict(tid, info, tower, delta, gamma, i, inv)
    # with gamma in F_q* and no i, the criterion reduces to "the z-component
    # polynomial permutes F_q"; the normalized cubic/quintic tests decide that
    # exactly at every q, while the stated cases provide the label
    if info.gamma_domain == "Fq_star" and not info.needs_i and v.notes is None:
        exact = _z_component_permutes(tower.base, *_z_terms(info, tower, inv.z_core[delta], gamma))
        if exact != v.predicted:
            if exact:
                return Verdict(True, "folded", FOLDED)
            return Verdict(False, "none", VOIDED)
    return v


def _statement_predict(
    tid: str, info, tower: TowerCtx, delta: int, gamma: int, i: int | None, inv: _Invariants
) -> Verdict:
    B = tower.base
    q = tower.q

    if gamma == 0:
        return _violated("gamma = 0")

    gamma_in_base = gamma < q
    if info.gamma_domain == "Fq_star" and not gamma_in_base:
        return _violated("gamma not in F_q*")

    if tid == "3.19":
        return _predict_319(tower, inv, delta, gamma)

    td = inv.trace[delta]
    if info.gamma_domain == "Fq2_star":  # only 3.1-3.5 read Tr(gamma) and N(gamma)
        tg, ng = inv.trace[gamma], inv.norm[gamma]
    g = gamma if gamma_in_base else None  # plain gamma for F_q* statements

    s = B.scalar
    mul, add, sub, div, powe, neg = B.mul, B.add, B.sub, B.div, B.pow, B.neg
    half = tower._half

    if tid == "3.1":
        if gamma_in_base:
            if q % 3 == 0 and power_class(B, sub(mul(td, td), tg), 2):
                return Verdict(True, "3.1(i)")
            if q % 3 == 2 and mul(td, td) == tg:
                return Verdict(True, "3.1(ii)")
        else:
            if td == 0 and tg == 0:
                return Verdict(True, "3.1(iii)")
            if td == 0 and tg != 0 and q % 3 == 0 and power_class(B, neg(div(ng, tg)), 2):
                return Verdict(True, "3.1(iv)")
            if (
                td != 0
                and tg != 0
                and q % 3 == 2
                and powe(mul(td, tg), 2)
                == mul(ng, add(mul(td, td), mul(s(3), tg)))
            ):
                return Verdict(True, "3.1(v)")
        return _NONE

    if tid == "3.2":
        if gamma_in_base and sub(td, div(tg, s(4))) != 0:
            return Verdict(True, "3.2")
        return _NONE

    if tid == "3.3":
        if gamma_in_base and add(td, div(tg, s(4))) != 0:
            return Verdict(True, "3.3")
        return _NONE

    if tid == "3.4":
        if gamma_in_base:
            return Verdict(True, "3.4(a)")
        if td == 0:
            return Verdict(True, "3.4(b)")
        return _NONE

    if tid == "3.5":
        if td == 0:
            return Verdict(True, "3.5(i)")
        if gamma_in_base:
            if q % 3 == 0 and power_class(B, sub(div(tg, s(2)), powe(td, 4)), 2):
                return Verdict(True, "3.5(ii)")
            if q % 3 == 2 and mul(s(2), powe(td, 4)) == tg:
                return Verdict(True, "3.5(iii)")
        return _NONE

    # remaining odd theorems all have gamma in F_q*
    a = mul(td, half)  # 2a = Tr(delta)

    if tid == "3.6":
        if q == 9 and a in (s(1), s(-1)) and g == s(1):
            return Verdict(True, "3.6(i)")
        if q == 13:
            pairs = {(0, 6), (1, 11), (12, 11), (2, 4), (11, 4), (5, 6), (8, 6)}
            if (a, g) in pairs:
                return Verdict(True, "3.6(ii)")
        if q % 5 != 1 and mul(a, a) == neg(half) and g == half:
            return Verdict(True, "3.6(iii)")
        if q % 5 in (2, 3) and add(
            add(mul(s(2), powe(a, 4)), mul(s(2), mul(a, a))), mul(s(5), g)
        ) == s(2):
            return Verdict(True, "3.6(iv)")
        if q % 5 == 0:
            if mul(a, a) == neg(half) and _fourth_or_not_square(
                B, div(sub(s(1), mul(s(2), g)), s(4))
            ):
                return Verdict(True, "3.6(v)(a)")
            if power_class(B, div(add(mul(s(2), mul(a, a)), s(1)), s(2)), 2) and mul(s(2), g) == s(1):
                return Verdict(True, "3.6(v)(b)")
        return _NONE

    if tid == "3.7":
        if q % 5 == 0 and td == 0 and _fourth_or_not_square(B, div(g, s(2))):
            return Verdict(True, "3.7(i)")
        if q == 9 and td == 0 and g in (s(1), s(-1)):
            return Verdict(True, "3.7(ii)")
        if (
            q % 5 in (2, 3)
            and td != 0
            and sub(sub(powe(td, 4), mul(s(80), td)), mul(s(40), g)) == 0
        ):
            return Verdict(True, "3.7(iii)")
        if q % 5 == 0 and td != 0 and add(g, mul(s(2), td)) == 0:
            return Verdict(True, "3.7(iv)")
        return _NONE

    if tid == "3.8":
        if td == 0:
            return Verdict(True, "3.8(i)")
        if q % 5 in (2, 3) and mul(s(40), g) == mul(s(19), powe(td, 5)):
            return Verdict(True, "3.8(ii)")
        if q % 5 == 0 and mul(s(2), g) == powe(td, 5):
            return Verdict(True, "3.8(iii)")
        return _NONE

    if tid == "3.9":
        if td == 0:
            if add(g, s(2)) != 0:
                return Verdict(True, "3.9(i)")
            return _NONE
        if q % 5 in (2, 3) and mul(s(40), g) == sub(powe(td, 5), s(80)):
            # with 2a = Tr(delta) this is 5*gamma = 4*a^5 - 10, the form the
            # oracle confirms at q = 7 and q = 13
            return Verdict(True, "3.9(ii)")
        if q % 5 == 0 and g == s(3):
            return Verdict(True, "3.9(iii)")
        return _NONE

    if tid == "3.10":
        if td == 0:
            return Verdict(True, "3.10(i)")
        if q % 3 == 0 and g != powe(td, 4):
            return Verdict(True, "3.10(ii)")
        if q % 3 == 2 and g == neg(div(powe(td, 4), s(2))):
            return Verdict(True, "3.10(iii)")
        return _NONE

    if tid == "3.11":
        if td == 0:
            return Verdict(True, "3.11(i)")
        if q % 5 in (2, 3) and g == sub(div(powe(td, 5), s(40)), mul(s(2), td)):
            return Verdict(True, "3.11(ii)")
        if q % 5 == 0 and g == neg(mul(s(2), td)):
            return Verdict(True, "3.11(iii)")
        return _NONE

    if tid == "3.12":
        if td == 0:
            return Verdict(True, "3.12(i)")
        if q % 5 != 1 and g == sub(div(powe(td, 5), s(4)), mul(s(2), td)):
            return Verdict(True, "3.12(ii)")
        if q % 5 == 0 and _fourth_or_not_square(
            B, div(add(add(powe(td, 5), mul(s(2), td)), g), td)
        ):
            return Verdict(True, "3.12(iii)")
        if q == 9 and g in (powe(td, 5), sub(powe(td, 5), td)):
            return Verdict(True, "3.12(iv)")
        return _NONE

    if tid == "3.13":
        if i is None:
            raise MissingParam("theorem 3.13 requires i")
        if not 1 <= i < B.m:
            return _violated("i out of [1, m)")
        if td == 0:
            return _NONE
        # the z-part a*(u^{k/2} z^{k+1 ... } ...) is additive; it permutes iff
        # (a^2/u)^{k/2} has no root of index k = p^i - 1 in F_q*
        k = B.p**i - 1
        w = powe(div(mul(a, a), tower.u), k // 2)
        solvable = power_class(B, w, k)
        return Verdict(not solvable, "3.13" if not solvable else "none")

    if tid == "3.14":
        if q % 3 == 0:
            return Verdict(True, "3.14(a)")
        if q % 3 == 2 and td == 0:
            return Verdict(True, "3.14(b)")
        return _NONE

    if tid == "3.15":
        if q % 5 == 0:
            return Verdict(True, "3.15(a)")
        if q % 5 in (2, 3, 4) and td == 0:
            return Verdict(True, "3.15(b)")
        return _NONE

    if tid == "3.16":
        return Verdict(
            q % 5 == 0 and td != 0, "3.16" if (q % 5 == 0 and td != 0) else "none"
        )

    if tid == "3.17":
        if q % 3 == 0 and td != s(2):
            return Verdict(True, "3.17(a)")
        if q % 3 == 2 and td == 0:
            return Verdict(True, "3.17(b)")
        return _NONE

    if tid == "3.18":
        if q % 5 == 0 and td != s(-1):
            return Verdict(True, "3.18(a)")
        if q % 5 in (2, 3, 4) and td == 0:
            return Verdict(True, "3.18(b)")
        return _NONE

    raise UnknownTheorem(f"no predicate for theorem {tid!r}")


def _predict_319(tower: TowerCtx, inv: _Invariants, delta: int, gamma: int) -> Verdict:
    B = tower.base
    m_odd = B.m % 2 == 1
    u = tower.u
    b = inv.split[delta][1]
    b2 = inv.square[b]
    c, d = inv.split[gamma]
    mul, add = B.mul, B.add
    if d == 0:
        if b == 0 or b2 == c:
            return Verdict(True, "3.19(i)")
        return _NONE
    if c == 0:
        cond = add(add(mul(b2, u), b2), mul(d, u)) == 0
        return Verdict(cond and m_odd, "3.19(ii)" if (cond and m_odd) else "none")
    inner = add(
        mul(b2, add(add(c, d), mul(d, u))),
        add(add(mul(c, c), mul(c, d)), mul(mul(d, d), u)),
    )
    cond = add(mul(b2, mul(c, c)), mul(d, inner)) == 0
    return Verdict(cond and m_odd, "3.19(iii)" if (cond and m_odd) else "none")


def _predict_41(ctx: FieldCtx, gamma: int, d: int) -> Verdict:
    m = ctx.m // d
    if m <= 1:
        return _violated("q = 2^m needs m > 1")
    q = 2**m
    if ctx.pow(gamma, q) != gamma:
        return _NONE
    for t in subfield_elements(ctx, q):
        v = ctx.add(ctx.mul(gamma, ctx.add(ctx.pow(t, 3), t)), 1)
        if v == 0:
            return _NONE
    return Verdict(True, "4.1")


def reduce_trace_composed(g_coeffs, field: FieldCtx, n: int) -> list[int]:
    """Coefficients Tr(a_i) of the reduced map h(x) = x + sum Tr(a_i) x^i.

    g_coeffs are the encodings of a_1..a_{q-1} in F_{q^n}; the returned
    encodings live in the subfield F_q of the same field.
    """
    q = subfield_order(field, n)
    if len(g_coeffs) != q - 1:
        raise ValueError("g_coeffs must be indexed 1..q-1 (reduce first)")
    return [trace_sum(field, a, q, n) for a in g_coeffs]


def h_permutes_subfield(field: FieldCtx, q: int, h_coeffs) -> bool:
    """Does h(x) = x + sum h_coeffs[i-1] x^i permute the subfield of order q?"""
    S = subfield_elements(field, q)
    images = set()
    for x in S:
        acc = x
        tpow = 1
        for c in h_coeffs:
            tpow = field.mul(tpow, x)
            acc = field.add(acc, field.mul(c, tpow))
        images.add(acc)
    return len(images) == len(S)


def t319_subfield_h(tower: TowerCtx, delta: int, c: int) -> tuple[int, int, int]:
    """Coefficients (h0, h1, h2) of h(x) = h2 x^2 + h1 x + h0 over F_q with
    Tr(f(x)) = h(Tr(x)) for f = (x^q + x + delta)^{2q+1} + c*x, gamma = c in F_q."""
    theorem_info("3.19").check(tower, delta=delta, gamma=c)
    if not 0 <= c < tower.q:
        raise GammaNotInSubfield("gamma must be a base-field encoding")
    B = tower.base
    td = tower.trace(delta)
    nd = tower.norm(delta)  # delta^{q+1}
    h2 = td
    h1 = B.add(B.mul(td, td), c)
    h0 = B.mul(nd, td)
    return h0, h1, h2
