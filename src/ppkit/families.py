"""Polynomial families under study and their closed-form bivariate components.

Four family kinds are supported:

* delta_power        f(x) = sum_i (x^q - x + delta)^{s_i} + gamma * L(x)   over F_{q^2}, odd q
* even_delta_power   f(x) = sum_i (x^q + x + delta)^{s_i} + gamma * L(x)   over F_{q^2}, q = 2^m
* trace_form         f(x) = x + gamma * Tr(x^{q+1} + x^{2q+2})             over F_{q^d}, q = 2^m
* trace_composed     f(x) = x + g(Tr(x))                                    over F_{q^n}

Exponents are stored portably in terms of q: a pair (e_q, e_1) denotes
s = e_q * q + e_1, and ("ppow", i) denotes s = q + p^i.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ExponentOutOfRange,
    InvalidParam,
    KindContextMismatch,
    MissingParam,
    UnknownTheorem,
    WrongCharacteristic,
)
from .gf import FieldCtx, FieldElem, build_field, subfield_order, trace_sum
from .tower import TowerCtx, TowerElem, build_tower


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    terms: tuple = ()
    delta: int = 0
    gamma: int = 0
    linear_kind: str = "x"  # "x" | "xq_plus_x"
    d: int = 1  # trace_form: odd extension degree
    n: int = 2  # trace_composed: extension degree
    g_coeffs: tuple = ()  # trace_composed: a_1..a_{q-1} encodings in F_{q^n}


def _exponent_pair(term, p: int) -> tuple[int, int]:
    """(e_q, e_1) of a portable exponent spec; ("ppow", i) is (1, p^i)."""
    return (1, p ** term[1]) if term[0] == "ppow" else term


def instantiate_exponent(term, q: int, p: int) -> int:
    """Resolve a portable exponent spec at a concrete q."""
    e_q, e_1 = _exponent_pair(term, p)
    s = e_q * q + e_1
    if s <= 0:
        raise ExponentOutOfRange(f"s = {s} must be positive")
    return s


def fold_exponent(e: int, q: int) -> int:
    """The exponent below q of x^e modulo x^q - x: both agree at every x in
    F_q.  e = 0 stays 0, as 0^0 = 1 makes x^0 the constant."""
    return e if e < q else (e - 1) % (q - 1) + 1


def reduce_poly_coeffs(coeffs: dict[int, int], field_ctx: FieldCtx, q: int) -> list[int]:
    """Reduce {exponent: coeff} modulo x^q - x to coefficients indexed 1..q-1.

    A nonzero constant or x^0 term is not part of the contract and is
    rejected by construction (keys must be >= 1).
    """
    out = [0] * q  # index by exponent, slot 0 unused
    for e, c in coeffs.items():
        if e < 1:
            raise ValueError("exponents must be >= 1")
        r = fold_exponent(e, q)
        out[r] = field_ctx.add(out[r], c)
    return out[1:]


def _check_encoding(ctx, name: str, enc: int) -> None:
    """Raise InvalidParam unless enc encodes an element of ctx: the scalar
    and vector arithmetic read nothing outside [0, order)."""
    if not 0 <= enc < ctx.order:
        raise InvalidParam(f"{name}={enc} out of [0, {ctx.order})")


def _check_delta_power(spec: FamilySpec, ctx) -> None:
    """Raise unless spec is a delta-power family, ctx a tower of its parity,
    and its delta and gamma encodings in that tower."""
    if spec.kind not in ("delta_power", "even_delta_power"):
        raise KindContextMismatch(f"{spec.kind} is not a delta-power family")
    if not isinstance(ctx, TowerCtx):
        raise KindContextMismatch("delta-power families need a TowerCtx")
    parity = "odd" if spec.kind == "delta_power" else "even"
    if ctx.kind != parity:
        raise KindContextMismatch(f"{spec.kind} requires {parity} characteristic")
    _check_encoding(ctx, "delta", spec.delta)
    _check_encoding(ctx, "gamma", spec.gamma)


def eval_family(spec: FamilySpec, ctx, x):
    """Exact evaluation of the family at a single point, on the scalar arithmetic."""
    if spec.kind in ("delta_power", "even_delta_power"):
        _check_delta_power(spec, ctx)
        if isinstance(x, TowerElem):
            x = x.enc
        _check_encoding(ctx, "x", x)
        q = ctx.q
        xq = ctx.frob(x)
        if spec.kind == "delta_power":
            core = ctx.add(ctx.sub(xq, x), spec.delta)
        else:
            core = ctx.add(ctx.add(xq, x), spec.delta)
        acc = 0
        for term in spec.terms:
            s = instantiate_exponent(term, q, ctx.base.p)
            acc = ctx.add(acc, ctx.pow(core, s))
        lin = x if spec.linear_kind == "x" else ctx.add(xq, x)
        acc = ctx.add(acc, ctx.mul(spec.gamma, lin))
        return ctx.elem(acc)

    if spec.kind == "trace_form":
        if not isinstance(ctx, FieldCtx):
            raise KindContextMismatch("trace_form needs a flat FieldCtx")
        q = subfield_order(ctx, spec.d)
        if spec.d % 2 == 0:
            raise ValueError("trace_form requires odd d")
        if isinstance(x, FieldElem):
            x = x.enc
        _check_encoding(ctx, "x", x)
        w = ctx.mul(ctx.pow(x, q), x)  # x^{q+1}
        t = ctx.add(w, ctx.mul(w, w))  # x^{q+1} + x^{2q+2}
        tr = trace_sum(ctx, t, q, spec.d)
        return ctx.elem(ctx.add(x, ctx.mul(spec.gamma, tr)))

    if spec.kind == "trace_composed":
        if not isinstance(ctx, FieldCtx):
            raise KindContextMismatch("trace_composed needs a flat FieldCtx")
        q = subfield_order(ctx, spec.n)
        if len(spec.g_coeffs) != q - 1:
            raise ValueError("g_coeffs must have length q - 1 (reduce first)")
        if isinstance(x, FieldElem):
            x = x.enc
        _check_encoding(ctx, "x", x)
        tr = trace_sum(ctx, x, q, spec.n)
        acc = x
        tpow = 1
        for a_i in spec.g_coeffs:
            tpow = ctx.mul(tpow, tr)
            acc = ctx.add(acc, ctx.mul(a_i, tpow))
        return ctx.elem(acc)

    raise ValueError(f"unknown family kind {spec.kind!r}")


def delta_power_rows(spec: FamilySpec, tower: TowerCtx, deltas):
    """(delta, acc, lin) per delta: f = acc + gamma * lin on the whole tower.

    The one vector evaluation of a delta-power family; spec gives the terms
    and the linear part, its own delta and gamma are not read.  acc and lin
    are int64 vectors indexed by encoding, lin read-only.  x^q -+ x, both
    linear parts and h(y) = sum_i y^{s_i}, each tabulated at every element
    of the tower (order * 8 bytes), do not depend on delta or gamma, so
    they are kept in the tower's store (ArithCtx.kept): the vectors once per
    tower, h once per term tuple.  Each row is then the gather
    acc = h[x^q -+ x + delta]: exact, as h is known at every encoding the
    core can take.  A spec or context that eval_family refuses raises
    the same KindContextMismatch, when the first row is drawn.
    """
    _check_delta_power(spec, tower)
    xs, core0, xq_plus_x = tower.kept("family", lambda: _family_vectors(tower))
    lin = xs if spec.linear_kind == "x" else xq_plus_x

    def h_table():
        powers = [tower.pow_vec(xs, instantiate_exponent(t, tower.q, tower.p)) for t in spec.terms]
        return (functools.reduce(tower.add_vec, powers) if powers else np.zeros(tower.order, dtype=np.int64),)

    [h] = tower.kept(("h", spec.terms), h_table)
    for delta in deltas:
        yield delta, h[tower.add_vec(core0, delta)], lin


def _family_vectors(tower: TowerCtx) -> tuple:
    """(x, x^q -+ x, x^q + x) at every encoding x of the tower; one array for
    the last two where p = 2, as -x = x there."""
    xs = np.arange(tower.order)
    xq = tower.pow_vec(xs, tower.q)
    plus = tower.add_vec(xq, xs)
    return xs, plus if tower.p == 2 else tower.add_vec(xq, tower.mul_vec(tower.scalar(-1), xs)), plus


def family_images(spec: FamilySpec, tower: TowerCtx) -> np.ndarray:
    """f(x) for every encoding x, at spec's delta and gamma, as one int64 vector."""
    [(_, acc, lin)] = delta_power_rows(spec, tower, (spec.delta,))
    return tower.add_vec(acc, tower.mul_vec(spec.gamma, lin))


# ---------------------------------------------------------------------------
# theorem registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremInfo:
    tid: str
    kind: str
    terms: tuple
    linear_kind: str
    gamma_domain: str  # "Fq_star" | "Fq2_star" | "Fqd"
    has_closed_form: bool = True
    # decided by kind and terms; plain attributes, read by check and by each class verdict
    char: str = field(init=False)  # "odd" | "even": the parity of q
    needs_i: bool = field(init=False)  # an exponent q + p^i
    needs_d: bool = field(init=False)  # the trace form over F_{q^d}

    def __post_init__(self):
        object.__setattr__(self, "char", "odd" if self.kind == "delta_power" else "even")
        object.__setattr__(self, "needs_i", any(t[0] == "ppow" for t in self.terms))
        object.__setattr__(self, "needs_d", self.kind == "trace_form")

    def exponents(self, i=None) -> tuple:
        """The registered terms, with i put into ("ppow", i)."""
        if not self.needs_i:
            return self.terms
        if i is None:
            raise MissingParam(f"theorem {self.tid} requires parameter i")
        return tuple(("ppow", i) if t[0] == "ppow" else t for t in self.terms)

    def check(self, ctx, i=None, d=None, u=None, delta=None, gamma=None) -> None:
        """Raise unless ctx is this theorem's field and it takes each i, d, u given,
        and each delta, gamma given is an encoding in ctx (delta 0 for the trace form).

        ctx None checks the parameters alone.  A missing i is raised where i is
        read, because a sweep runs every i in [1, m) when none is given.
        """
        if i is not None and not self.needs_i:
            raise InvalidParam(f"theorem {self.tid} takes no i; got i={i}")
        if i is not None and i < 0:  # i = 0 and i >= m are hypothesis probes
            raise InvalidParam(f"i={i}; the exponent q + p^i needs i >= 0")
        if self.needs_d:
            if ctx is not None and not (isinstance(ctx, FieldCtx) and ctx.p == 2):
                raise WrongCharacteristic(f"theorem {self.tid} needs the flat field F_{{q^d}}, q = 2^m")
            if u is not None:
                raise InvalidParam(f"theorem {self.tid} takes no u; got u={u}")
            if d is None:
                raise MissingParam(f"theorem {self.tid} requires d")
            if d < 1 or d % 2 == 0 or (ctx is not None and ctx.m % d != 0):
                raise InvalidParam(f"d={d} must be odd, positive and divide the field's degree")
        elif ctx is not None and not (isinstance(ctx, TowerCtx) and ctx.kind == self.char):
            raise WrongCharacteristic(f"theorem {self.tid} needs a tower F_{{q^2}}, q {self.char}")
        elif d is not None:
            raise InvalidParam(f"theorem {self.tid} takes no d; got d={d}")
        if self.needs_d and delta:
            raise InvalidParam(f"theorem {self.tid} has no delta; got delta={delta}")
        for name, enc in (("delta", delta), ("gamma", gamma)):
            if ctx is not None and enc is not None:
                _check_encoding(ctx, name, enc)


THEOREMS: dict[str, TheoremInfo] = {
    t.tid: t
    for t in [
        TheoremInfo("3.1", "delta_power", ((1, 2),), "x", "Fq2_star"),
        TheoremInfo("3.2", "delta_power", ((0, 2),), "x", "Fq2_star", has_closed_form=False),
        TheoremInfo("3.3", "delta_power", ((2, 0),), "x", "Fq2_star", has_closed_form=False),
        TheoremInfo("3.4", "delta_power", ((1, 2), (2, 1)), "x", "Fq2_star"),
        TheoremInfo("3.5", "delta_power", ((1, 4), (0, 5)), "x", "Fq2_star"),
        TheoremInfo("3.6", "delta_power", ((2, 1), (3, 2)), "x", "Fq_star"),
        TheoremInfo("3.7", "delta_power", ((2, 3), (2, 0)), "x", "Fq_star"),
        TheoremInfo("3.8", "delta_power", ((2, 4), (1, 5)), "x", "Fq_star"),
        TheoremInfo("3.9", "delta_power", ((2, 4), (1, 0)), "x", "Fq_star"),
        TheoremInfo("3.10", "delta_power", ((2, 3), (5, 0)), "x", "Fq_star"),
        TheoremInfo("3.11", "delta_power", ((2, 4), (2, 0)), "x", "Fq_star"),
        TheoremInfo("3.12", "delta_power", ((1, 5), (2, 0)), "x", "Fq_star"),
        TheoremInfo("3.13", "delta_power", (("ppow", None),), "xq_plus_x", "Fq_star"),
        TheoremInfo("3.14", "delta_power", ((1, 2),), "xq_plus_x", "Fq_star"),
        TheoremInfo("3.15", "delta_power", ((3, 2),), "xq_plus_x", "Fq_star"),
        TheoremInfo("3.16", "delta_power", ((4, 2),), "xq_plus_x", "Fq_star"),
        TheoremInfo("3.17", "delta_power", ((1, 3), (1, 2)), "xq_plus_x", "Fq_star"),
        TheoremInfo("3.18", "delta_power", ((3, 2), (4, 2)), "xq_plus_x", "Fq_star"),
        TheoremInfo("3.19", "even_delta_power", ((2, 1),), "x", "Fq2_star"),
        TheoremInfo("4.1", "trace_form", (), "x", "Fqd", has_closed_form=False),
    ]
}


def theorem_info(tid: str) -> TheoremInfo:
    try:
        return THEOREMS[tid]
    except KeyError:
        raise UnknownTheorem(f"no theorem {tid!r}") from None


def theorem_context(tid: str, p: int, m: int, u=None, i=None, d=None, delta=None, gamma=None):
    """The theorem's field, checked with the parameters given: F_{q^d} for 4.1,
    else the tower F_{q^2}."""
    info = theorem_info(tid)
    if info.needs_d:  # F_{p^m} if d is missing or below 1, which the check refuses
        ctx = build_field(p, m * d if d is not None and d > 0 else m)
    else:
        ctx = build_tower(build_field(p, m), u=u)
    info.check(ctx, i, d, u, delta, gamma)
    return ctx


def family_for_theorem(
    tid: str, delta: int, gamma: int, i: int | None = None, d: int | None = None
) -> FamilySpec:
    """Instantiate the theorem's family with encoded parameters."""
    info = theorem_info(tid)
    info.check(None, i, d)
    terms = info.exponents(i)
    if info.needs_d:
        return FamilySpec(kind="trace_form", gamma=gamma, d=d)
    return FamilySpec(
        kind=info.kind,
        terms=terms,
        delta=delta,
        gamma=gamma,
        linear_kind=info.linear_kind,
    )


# ---------------------------------------------------------------------------
# closed-form component tables
# ---------------------------------------------------------------------------

class ComponentTable:
    """Bivariate component pair (g1, g2) over F_q, constants excluded.

    Coefficients are keyed by (deg_y, deg_z).  Degrees of q and more alias
    lower ones as functions on F_q x F_q, so same_values compares the pairs
    reduced modulo y^q - y and z^q - z.
    """

    def __init__(self, base: FieldCtx, g1: dict, g2: dict):
        self.base = base
        self.g1 = {k: v for k, v in g1.items() if v != 0}
        self.g2 = {k: v for k, v in g2.items() if v != 0}

    def eval(self, which: int, y: int, z: int) -> int:
        b = self.base
        coeffs = self.g1 if which == 1 else self.g2
        acc = 0
        for (dy, dz), c in coeffs.items():
            term = b.mul(c, b.mul(b.pow(y, dy), b.pow(z, dz)))
            acc = b.add(acc, term)
        return acc

    def serialize(self) -> dict:
        return {
            "g1": [[dy, dz, c] for (dy, dz), c in sorted(self.g1.items())],
            "g2": [[dy, dz, c] for (dy, dz), c in sorted(self.g2.items())],
        }

    def same_values(self, other: "ComponentTable") -> bool:
        """Do the two pairs agree at every point of F_q x F_q?  A polynomial of
        degree below q in each variable is fixed by its values there (Lidl and
        Niederreiter, ch. 7), so the pairs reduced modulo y^q - y and z^q - z
        decide it."""
        add, q = self.base.add, self.base.q

        def reduced(coeffs: dict) -> dict:
            red = {}
            for (dy, dz), c in coeffs.items():
                key = (fold_exponent(dy, q), fold_exponent(dz, q))
                red[key] = add(red[key], c) if key in red else c
            return {k: c for k, c in red.items() if c}

        return reduced(self.g1) == reduced(other.g1) and reduced(self.g2) == reduced(other.g2)


def closed_form_components(
    tid: str, tower: TowerCtx, delta: TowerElem, gamma: TowerElem, i: int | None = None
) -> ComponentTable:
    """The theorem's closed-form component pair (g1, g2), constants dropped.

    Coordinate conventions: delta = a + b*alpha, gamma = c + d*alpha,
    with alpha^2 = u (odd) or alpha^2 = alpha + u (even).  The substitution
    x = y - (z - b)*alpha/2 (odd) or x = y + (z + a)*alpha (even) makes the
    core x^q -+ x + delta = a + z*alpha or z + b*alpha; the core part is
    expanded from the theorem's registered exponents, in powers of v = a or b.
    """
    info = theorem_info(tid)
    if not info.has_closed_form:
        raise UnknownTheorem(f"theorem {tid} has no closed-form component pair")
    info.check(tower, i)
    if info.gamma_domain == "Fq_star" and gamma.enc >= tower.q:
        raise KindContextMismatch(f"theorem {tid} requires gamma in F_q")
    B = tower.base
    u = tower.u
    a, b = tower.split(delta.enc)
    c, d = tower.split(gamma.enc)
    odd = tower.kind == "odd"
    g = _core_part(tower, info.exponents(i), a if odd else b)

    # gamma * L(x): x^q + x is 2y, and x = y + (const + r*z)*alpha gives
    # gamma*y + r*z*gamma*alpha, where gamma*alpha = d*u + (c, or c + d if even)*alpha
    if info.linear_kind == "xq_plus_x":
        lin_y, lin_z = (B.add(c, c), B.add(d, d)), (0, 0)
    elif odd:  # r = -1/2
        r = B.neg(tower._half)
        lin_y, lin_z = (c, d), (B.mul(r, B.mul(d, u)), B.mul(r, c))
    else:  # r = 1
        lin_y, lin_z = (c, d), (B.mul(d, u), B.add(c, d))
    for slot, ty, tz in zip(g, lin_y, lin_z):
        slot[(1, 0)] = ty
        if tz:
            slot[(0, 1)] = B.add(slot[(0, 1)], tz) if (0, 1) in slot else tz
    return ComponentTable(B, *g)


def _core_part(tower: TowerCtx, terms: tuple, v: int) -> tuple[dict, dict]:
    """(g1, g2) of sum_s core^s at v, keyed by (0, z-degree): one walk of the
    cached _core_monomials, with v^k raised as the v-degree grows."""
    B = tower.base
    g = ({}, {})  # g1, g2
    vk, k = 1, 0  # v^k
    for vdeg, which, key, const in _core_monomials(terms, B.p, B.m, tower.u):
        if vdeg != k:
            vk = B.mul(vk, v if vdeg == k + 1 else B.pow(v, vdeg - k))
            k = vdeg
        slot, t = g[which], B.mul(const, vk)
        slot[key] = B.add(slot[key], t) if key in slot else t
    return g


def _binomials(e: int, p: int) -> list[tuple[int, int]]:
    """(k, C(e, k) mod p) for every k where it is nonzero, digit by digit (Lucas)."""
    out, place = [(0, 1)], 1
    while e:
        e, digit = divmod(e, p)
        out = [(k + j * place, c * math.comb(digit, j) % p) for k, c in out for j in range(digit + 1)]
        place *= p
    return out


@functools.cache
def _core_monomials(terms: tuple, p: int, m: int, u: int) -> tuple:
    """sum_s core^s over F_q at u, as (v-degree, g index, (0, z-degree), constant)
    in v-degree order, constants and zero terms dropped.

    core = v + z*alpha (odd, v = a) or z + v*alpha (even, v = b); core^q swaps
    alpha for its conjugate alpha^q, so core^(e_q*q + e_1) = core^e_1 * conj^e_q.
    Binomial terms k of the one and l of the other carry alpha^k * (alpha^q)^l,
    whose coordinates fold into the constants of the g1 and g2 monomials with
    z^(k+l) v^(n-k-l) (odd) or z^(n-k-l) v^(k+l) (even), n = e_1 + e_q.
    Keyed on (p, m) rather than a context, so no field or tower is kept.
    """
    tower = build_tower(build_field(p, m), u)
    alpha = tower.from_coords(0, 1)
    conj = tower.frob(alpha)
    B, odd = tower.base, tower.kind == "odd"
    acc = {}
    for term in terms:
        e_q, e_1 = _exponent_pair(term, p)
        for k, ck in _binomials(e_1, p):
            for l, cl in _binomials(e_q, p):
                j, n = k + l, e_1 + e_q
                zdeg, vdeg = (j, n - j) if odd else (n - j, j)
                if zdeg == 0:
                    continue
                w = tower.mul(tower.pow(alpha, k), tower.pow(conj, l))
                for which, x in enumerate(tower.split(w)):
                    key = (vdeg, which, (0, zdeg))
                    acc[key] = B.add(acc.get(key, 0), B.mul(B.scalar(ck * cl), x))
    return tuple((*key, c) for key, c in sorted(acc.items()) if c)
