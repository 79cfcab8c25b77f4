"""The canonical quadratic extension F_{q^2}/F_q with basis {1, alpha}.

Odd characteristic uses alpha^2 = u for a non-square u; even characteristic
uses alpha^2 = alpha + u for a u of absolute trace 1 (Lidl and Niederreiter,
ch. 3).  The canonical u is the least admissible encoding.
Elements are coordinate pairs (c0, c1) over the base field, encoded as
enc(c0) + q * enc(c1).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParam, LeftBaseField
from .gf import ArithCtx, ArithElem, FieldCtx, FieldElem, power_class, trace_sum


class TowerElem(ArithElem):
    """Element of F_{q^2} as coordinates w.r.t. {1, alpha}."""

    __slots__ = ()

    @property
    def c0(self) -> FieldElem:
        return self.ctx.base.elem(self.enc % self.ctx.q)

    @property
    def c1(self) -> FieldElem:
        return self.ctx.base.elem(self.enc // self.ctx.q)

    def _same(self, other) -> int:
        if isinstance(other, FieldElem) and other.ctx is self.ctx.base:
            return other.enc  # base-field elements embed as themselves
        return super()._same(other)

    def __repr__(self):
        return f"<{self.enc} in F_{self.ctx.q}^2>"


class TowerCtx(ArithCtx):
    """F_{q^2} over a base FieldCtx, with a fixed reduction rule for alpha^2."""

    elem_type = TowerElem

    def __init__(self, base: FieldCtx, u: int):
        super().__init__(base.p, base.q**2)
        self.base = base
        self.u = u
        self.kind = "even" if base.p == 2 else "odd"
        self.q = base.q
        if self.kind == "odd":
            self._half = base.inv(base.scalar(2))

    # -- encoding ------------------------------------------------------------

    def from_coords(self, c0: int, c1: int) -> int:
        return c0 + self.q * c1

    def split(self, x: int) -> tuple[int, int]:
        return x % self.q, x // self.q

    @property
    def alpha(self) -> TowerElem:
        return TowerElem(self, self.from_coords(0, 1))

    # -- integer-encoding arithmetic ------------------------------------------

    def mul(self, x, y):
        """x * y on base-field coordinates, through the base's scalar mul and
        add: ints, or int64 arrays elementwise."""
        b = self.base
        x0, x1 = self.split(x)
        y0, y1 = self.split(y)
        cross = b.add(b.mul(x0, y1), b.mul(x1, y0))
        hi = b.mul(x1, y1)
        lo = b.add(b.mul(x0, y0), b.mul(self.u, hi))
        if self.kind == "even":
            # alpha^2 = alpha + u contributes hi to the alpha coordinate too
            cross = b.add(cross, hi)
        return self.from_coords(lo, cross)

    def frob(self, x: int) -> int:
        """x^q in coordinates: conjugation by the reduction rule."""
        b = self.base
        x0, x1 = self.split(x)
        if self.kind == "odd":
            return self.from_coords(x0, b.neg(x1))  # alpha^q = -alpha
        return self.from_coords(b.add(x0, x1), x1)  # alpha^q = 1 + alpha

    def trace(self, x: int) -> int:
        """Tr_q^{q^2}(x) as a base-field encoding."""
        return self._in_base(self.add(x, self.frob(x)), "trace")

    def norm(self, x: int) -> int:
        """N_q^{q^2}(x) as a base-field encoding."""
        return self._in_base(self.mul(x, self.frob(x)), "norm")

    def inv(self, x):
        """1/x = x^q / N(x) on the base field's scalar ops, so the scalar
        arithmetic reads none of the tower's own tables; ints, or int64 arrays
        elementwise."""
        b = self.base
        xq = self.frob(x)  # once, for N(x) = x * x^q and for the numerator
        n_inv = b.inv(self._in_base(self.mul(x, xq), "norm"))  # N(0) = 0 raises DivisionByZero
        c0, c1 = self.split(xq)
        return self.from_coords(b.mul(c0, n_inv), b.mul(c1, n_inv))

    def _in_base(self, y, what: str):
        y0, y1 = self.split(y)
        if y1.any() if isinstance(y1, np.ndarray) else y1:  # np.any costs microseconds on an int
            raise LeftBaseField(f"{what} {y} of {self!r} has a nonzero alpha part")
        return y0

    # -- vector arithmetic -----------------------------------------------------

    # bound in this class too, so per-class instrumentation sees tower calls
    tables = ArithCtx.tables
    pow_vec = ArithCtx.pow_vec

    def __repr__(self):
        return f"TowerCtx(q={self.q}, kind={self.kind}, u={self.u})"


def build_tower(base: FieldCtx, u: int | None = None) -> TowerCtx:
    """Canonical F_{q^2} over base, at the least admissible u unless u is given.
    One TowerCtx per base object and resolved u, so its tables are built once,
    and the canonical u is searched for once per base object.
    The base field's O(q) tables are built first, so that the tower's scalar
    ops run on the base's table-backed mul; they never read the tower's own
    tables, which keeps them an independent check of those."""
    base.tables()
    towers = base._towers  # by u, and by None for the canonical tower
    if u not in towers:
        if u is None:
            canonical = next(e for e in range(base.q) if _admissible(base, e))
            if canonical not in towers:
                towers[canonical] = TowerCtx(base, canonical)
            towers[None] = towers[canonical]
        elif not 0 <= u < base.q:
            raise InvalidParam(f"u={u} out of [0, {base.q})")
        elif _admissible(base, u):
            towers[u] = TowerCtx(base, u)
        else:
            raise InvalidParam(f"u={u} has absolute trace 0" if base.p == 2 else f"u={u} is a square in F_{base.q}")
    return towers[u]


def _admissible(base: FieldCtx, u: int) -> bool:
    """Does u define F_{q^2}: is x^2 - u (odd q) or x^2 - x - u (q = 2^m)
    irreducible over base?  That holds exactly when u is a non-square, or
    has absolute trace 1."""
    if base.p == 2:
        return trace_sum(base, u, 2, base.m) == 1
    return not power_class(base, u, 2)


def valid_us(base: FieldCtx) -> list[int]:
    """All admissible u values for a tower over base, in encoding order."""
    return [e for e in range(base.q) if _admissible(base, e)]


def proof_substitution(t: TowerCtx, delta: TowerElem, y: FieldElem, z: FieldElem) -> TowerElem:
    """The substitution point x(y, z) used throughout the quadratic analysis.

    Odd towers return x = y - (z - b) * alpha / 2, so that
    x^q - x + delta = a + z*alpha.  Even towers return x = y + (z + a) * alpha,
    so that x^q + x + delta = z + b*alpha.  Here (a, b) are the coordinates
    of delta.
    """
    return TowerElem(t, t.from_coords(y.enc, substitution_alpha(t, delta.enc, z.enc)))


def substitution_alpha(t: TowerCtx, delta: int, z):
    """The alpha coordinate of x(y, z) of proof_substitution, which does not
    depend on y, at the encoding z or elementwise on an int64 array of them."""
    b = t.base
    a_enc, b_enc = t.split(delta)
    if t.kind == "odd":
        return b.neg(b.mul(b.sub(z, b_enc), t._half))
    return b.add(z, a_enc)
