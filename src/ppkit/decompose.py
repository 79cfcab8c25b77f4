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

from .errors import DependentBasis, SingularMatrix
from .families import ComponentTable, FamilySpec, family_images
from .gf import FieldCtx, FieldElem, _poly_to_enc, build_field
from .oracle import is_bijection, multivar_bijection
from .tower import TowerCtx, proof_substitution


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
    delta = tower.elem(spec.delta)
    images = family_images(spec, tower)  # raises KindContextMismatch off a delta-power kind
    B = tower.base
    q = B.q
    # x(y, z) has coordinates (y, c1(z)), so x = y + q * c1(z)
    c1 = [proof_substitution(tower, delta, B.elem(0), B.elem(z)).enc // q for z in range(q)]
    V = images[np.arange(q)[:, None] + q * np.array(c1)]
    g1 = _interp2d(B, V % q)
    g2 = _interp2d(B, V // q)
    g1.pop((0, 0), None)  # the constant of the decomposition, discarded
    g2.pop((0, 0), None)
    return ComponentTable(B, g1, g2)


# the elements of one broadcast product in _mat_mul, which bounds its memory
_MAT_MUL_BLOCK = 2**18


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


def _mat_mul(ctx: FieldCtx, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X . Y over ctx for square int64 matrices of encodings.

    The products X[i, k] * Y[k, j] are formed by broadcast, a block of k at a
    time, and summed over k one pair at a time: unspread adds two spreads
    without carry, not more.
    """
    n = X.shape[0]
    step = max(1, _MAT_MUL_BLOCK // (n * n))
    acc = np.zeros((n, n), dtype=np.int64)
    for lo in range(0, n, step):
        prods = ctx.mul_vec(X[:, lo:lo + step, None], Y[None, lo:lo + step, :])  # (i, k, j)
        for k in range(prods.shape[1]):
            acc = ctx.add_vec(acc, prods[:, k])
    return acc


def _interp2d(ctx: FieldCtx, V) -> dict:
    """Exact bivariate interpolation on all of F_q x F_q (reduced exponents).

    V[y][z] is the value table; the coefficient of y^i z^j is C[i][j] for
    C = Winv . V . Winv^T, returned as Python ints.
    """
    Winv = _vandermonde_inv(ctx.p, ctx.m)
    C = _mat_mul(ctx, _mat_mul(ctx, Winv, np.asarray(V, dtype=np.int64)), Winv.T).tolist()
    q = ctx.q
    return {(i, j): C[i][j] for i in range(q) for j in range(q) if C[i][j] != 0}
