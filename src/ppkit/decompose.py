"""Multivariate component maps of univariate polynomials over F_{q^n}.

A univariate map f over F_{q^n} is turned into a component map
(f_1, ..., f_n) over F_q^n relative to chosen bases and invertible affine
twists; f permutes F_{q^n} exactly when the component map permutes F_q^n.
The bivariate (g1, g2) pair of the quadratic analysis is recovered
numerically by evaluating f along the proof substitution and interpolating.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DependentBasis, DomainTooLarge, SingularMatrix
from .families import ComponentTable, FamilySpec, family_images
from .gf import FieldCtx, FieldElem, _poly_to_enc, build_field
from .oracle import is_bijection, multivar_bijection
from .tower import TowerCtx, substitution_alpha


def mat_inv(ctx: FieldCtx, M: list[list[int]]) -> list[list[int]]:
    """Inverse of a square matrix of encodings over ctx (Gauss-Jordan)."""
    n = len(M)
    aug = [list(row) + [1 if j == i else 0 for j in range(n)] for i, row in enumerate(M)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrix("matrix is not invertible")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = ctx.inv(aug[col][col])
        aug[col] = [ctx.mul(inv_p, v) for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [
                    ctx.sub(v, ctx.mul(factor, w)) for v, w in zip(aug[r], aug[col])
                ]
    return [row[n:] for row in aug]


def mat_vec(ctx: FieldCtx, M, v):
    return [
        _dot(ctx, row, v)
        for row in M
    ]


def vec_mat(ctx: FieldCtx, v, M):
    n = len(M)
    return [_dot(ctx, v, [M[r][c] for r in range(n)]) for c in range(len(M[0]))]


def _dot(ctx: FieldCtx, a, b):
    acc = 0
    for x, y in zip(a, b):
        acc = ctx.add(acc, ctx.mul(x, y))
    return acc


@dataclass
class DecompositionConfig:
    """Bases and affine twists for the component construction over F_{p^n}/F_p."""

    field: FieldCtx  # the extension F_{p^n}
    in_basis: tuple[FieldElem, ...]
    out_basis: tuple[FieldElem, ...]
    A: list[list[int]] | None = None  # n x n over F_p, default identity
    B: list[list[int]] | None = None
    a_vec: tuple[int, ...] | None = None  # offsets over F_p, default zero
    b_vec: tuple[int, ...] | None = None
    c: int = 0  # constant absorbed before coordinates are read (Prop 2.2 form)

    def __post_init__(self):
        n = self.field.m
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        if self.A is None:
            self.A = [row[:] for row in ident]
        if self.B is None:
            self.B = [row[:] for row in ident]
        if self.a_vec is None:
            self.a_vec = (0,) * n
        if self.b_vec is None:
            self.b_vec = (0,) * n
        pf = build_field(self.field.p, 1)
        self._pf = pf
        mat_inv(pf, self.A)  # raises SingularMatrix if degenerate
        self._B_inv = mat_inv(pf, self.B)
        self._in_mat, _ = _basis_matrix(self.field, self.in_basis)
        _, self._out_inv = _basis_matrix(self.field, self.out_basis)


def _basis_matrix(ctx: FieldCtx, basis) -> tuple[list[list[int]], list[list[int]]]:
    """Columns are the coefficient vectors of the basis elements; with its inverse."""
    n = ctx.m
    if len(basis) != n:
        raise DependentBasis(f"need {n} basis elements, got {len(basis)}")
    cols = [list(ctx.coeffs(b.enc)) for b in basis]
    M = [[cols[j][i] for j in range(n)] for i in range(n)]
    try:
        return M, mat_inv(build_field(ctx.p, 1), M)
    except SingularMatrix:
        raise DependentBasis("basis elements are linearly dependent") from None


def component_map(
    f: Callable[[int], int], cfg: DecompositionConfig
) -> Callable[[tuple], tuple]:
    """The component map (f_1, ..., f_n): F_q^n -> F_q^n of f under cfg."""
    ctx = cfg.field
    pf = cfg._pf
    n = ctx.m

    def G(xs: tuple) -> tuple:
        shifted = [pf.add(x, a) for x, a in zip(xs, cfg.a_vec)]
        y = vec_mat(pf, shifted, cfg.A)  # (x + a) A
        x_coeffs = mat_vec(pf, cfg._in_mat, y)  # coordinates of sum y_i alpha_i
        x_enc = _poly_to_enc(x_coeffs, ctx.p)
        fx = f(x_enc)
        fx = ctx.sub(fx, cfg.c)
        w = mat_vec(pf, cfg._out_inv, list(ctx.coeffs(fx)))  # coords in out basis
        comp = vec_mat(pf, w, cfg._B_inv)
        return tuple(pf.sub(v, b) for v, b in zip(comp, cfg.b_vec))

    return G


def verify_equivalence(
    f: Callable[[int], int], cfg: DecompositionConfig
) -> tuple[bool, bool, bool]:
    """Both sides of the equivalence: f permutes F_{q^n} iff G permutes F_q^n."""
    ctx = cfg.field
    f_is_pp = is_bijection(f, ctx.q).is_permutation
    G = component_map(f, cfg)
    components_permute = multivar_bijection(G, ctx.p, ctx.m).is_permutation
    return f_is_pp, components_permute, f_is_pp == components_permute


def lemma31_extract(spec: FamilySpec, tower: TowerCtx) -> ComponentTable:
    """Numerically extract (g1, g2) for a delta-power family.

    Evaluates f once on the whole tower, reads it along the proof
    substitution x(y, z), splits the values into {1, alpha} coordinates,
    interpolates both value tables over F_q x F_q, and drops the constant
    term.  Coefficients are reduced modulo y^q - y and z^q - z, so at small q
    high-degree terms fold down; ComponentTable.same_values reduces the
    other pair the same way before it compares.
    """
    images = family_images(spec, tower)  # raises KindContextMismatch off a delta-power kind
    B = tower.base
    q = B.q
    # x(y, z) has coordinates (y, c1(z)), so x = y + q * c1(z)
    base = np.arange(q)  # F_q, as y and as z
    V = images[base[:, None] + q * substitution_alpha(tower, spec.delta, base)]  # V[y, z]
    g1, g2 = _interp2d(B, V % q, V // q)
    g1.pop((0, 0), None)  # the constant of the decomposition, discarded
    g2.pop((0, 0), None)
    return ComponentTable(B, g1, g2)


@functools.cache
def _vandermonde_inv(p: int, m: int) -> np.ndarray:
    """Inverse of the Vandermonde matrix [[x^j]] over all of F_{p^m}, read-only int64.

    Column a holds the coefficients of the Lagrange polynomial
    L_a(x) = 1 - (x - a)^(q-1), which is 1 at a and 0 elsewhere.  As
    binom(q-1, j) = (-1)^j mod p, entry (j, a) is [j = 0] - a^(q-1-j) with
    0^0 = 1, so no elimination is needed.  It depends on the field alone, so
    it is built once per (p, m); keyed on ints rather than a context, so no
    field is kept.
    """
    ctx = build_field(p, m)
    xs = np.arange(ctx.q)
    pows = np.array([ctx.pow_vec(xs, ctx.q - 1 - j) for j in range(ctx.q)])
    out = ctx.mul_vec(ctx.neg(1), pows)
    out[0] = ctx.add_vec(1, out[0])
    out.flags.writeable = False
    return out


@functools.cache
def _vandermonde_digits(p: int, m: int) -> np.ndarray:
    """W^-1 of _vandermonde_inv as an F_p-linear map on p-adic digits: the
    (q m x q m) float64 matrix, read-only, whose block (i, k) is the m x m
    matrix of multiplication by W^-1[i, k] on the digits of an encoding
    (column d holds the digits of W^-1[i, k] * x^d, whose encoding is p^d).

    Its product with a matrix of digits is exact in float64: each sum has q m
    terms, each a product of two digits, so it stays below
    q m (p - 1)^2 <= 2^49 for q <= 2^16, short of the 2^53 where float64
    stops holding every integer.  Built once per (p, m), as _vandermonde_inv.
    """
    ctx = build_field(p, m)
    q = ctx.q
    if q * m * (p - 1) ** 2 >= 2**53:
        raise DomainTooLarge(f"F_{q}: a digit product would not be exact in float64")
    places = p ** np.arange(m)
    prods = ctx.mul_vec(_vandermonde_inv(p, m)[:, :, None], places)  # (i, k, d)
    out = np.empty((q, m, q, m))  # (i, e, k, d)
    for e, place in enumerate(places):
        out[:, e] = prods // place % p
    out = out.reshape(q * m, q * m)
    out.flags.writeable = False
    return out


def _interp2d(ctx: FieldCtx, *tables) -> list[dict]:
    """Exact bivariate interpolation on all of F_q x F_q (reduced exponents),
    one dict of Python ints per value table.

    V[y][z] is a value table; the coefficient of y^i z^j is C[i][j] for
    C = Winv . V . Winv^T, the transpose of Winv . (Winv . V)^T.  Each Winv .
    is one float64 product of _vandermonde_digits with p-adic digits, mod p:
    the digits of Winv . V, then of C^T.  The tables stand side by side as
    the columns, so two products serve them all.
    """
    q, m, p, n = ctx.q, ctx.m, ctx.p, len(tables)
    D = _vandermonde_digits(p, m)
    places = p ** np.arange(m)
    V = np.asarray(tables, dtype=np.int64)[..., None] // places % p  # (table, y, z, digit)
    A = D @ V.transpose(1, 3, 0, 2).reshape(q * m, n * q)
    A %= p  # the digits of Winv . V: (i, digit), (table, z)
    Ct = D @ A.reshape(q, m, n, q).transpose(3, 1, 2, 0).reshape(q * m, n * q)
    Ct %= p  # the digits of C^T: (j, digit), (table, i)
    C = (places @ Ct.reshape(q, m, n * q)).astype(np.int64).reshape(q, n, q).transpose(1, 2, 0)
    out = []
    for c in C:  # (i, j) of one table
        i, j = np.nonzero(c)
        out.append(dict(zip(zip(i.tolist(), j.tolist()), c[i, j].tolist())))
    return out
