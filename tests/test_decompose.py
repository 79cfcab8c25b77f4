import functools
import random

import pytest

from ppkit.decompose import (
    DecompositionConfig,
    _basis_matrix,
    _interp2d,
    _vandermonde_digits,
    _vandermonde_inv,
    component_map,
    lemma31_extract,
    mat_inv,
    verify_equivalence,
)
from ppkit.errors import DependentBasis, DomainTooLarge, KindContextMismatch, SingularMatrix
from ppkit.families import THEOREMS, ComponentTable, FamilySpec, closed_form_components, family_for_theorem
from ppkit.gf import build_field
from ppkit.tower import build_tower


def test_mat_inv():
    F = build_field(5, 1)
    M = [[1, 2], [3, 4]]
    Minv = mat_inv(F, M)
    prod = [
        [
            F.add(F.mul(M[i][0], Minv[0][j]), F.mul(M[i][1], Minv[1][j]))
            for j in range(2)
        ]
        for i in range(2)
    ]
    assert prod == [[1, 0], [0, 1]]
    with pytest.raises(SingularMatrix):
        mat_inv(F, [[1, 2], [2, 4]])


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (3, 2), (2, 4), (5, 2)], ids=["F3", "F5", "F9", "F16", "F25"])
def test_vandermonde_inverse_is_cached_per_field(p, m):
    F = build_field(p, m)
    q = F.q
    W = [[F.pow(x, j) for j in range(q)] for x in range(q)]
    Winv = _vandermonde_inv(p, m)
    ident = [[1 if i == j else 0 for j in range(q)] for i in range(q)]
    dot = lambda row, j: functools.reduce(F.add, (F.mul(row[k], W[k][j]) for k in range(q)), 0)
    assert [[dot(row, j) for j in range(q)] for row in Winv] == ident
    assert _vandermonde_inv(p, m) is Winv


@pytest.mark.parametrize(
    "p,m", [(2, 1), (3, 1), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2)],
    ids=["F2", "F3", "F8", "F9", "F25", "F27", "F49"],
)
def test_vandermonde_inverse_closed_form_is_mat_inv(p, m):
    F = build_field(p, m)
    W = [[F.pow(x, j) for j in range(F.q)] for x in range(F.q)]
    assert _vandermonde_inv(p, m).tolist() == mat_inv(F, W)


def test_vandermonde_digits_refuse_an_inexact_float64_product(monkeypatch):
    # at p >= 2^18 a sum of q m digit products passes 2^53; the check raises,
    # not an assert that python -O strips, before any q x q matrix is built
    monkeypatch.setenv("PPKIT_MAX_Q", str(2**19))
    monkeypatch.setattr("ppkit.decompose._vandermonde_inv", lambda *a: pytest.fail("q x q matrix built"))
    with pytest.raises(DomainTooLarge):
        _vandermonde_digits(262147, 1)


def test_vandermonde_inverse_times_vandermonde_is_identity():
    # table a holds y^a at every z, column a of W: Winv . W = I leaves it
    # the one coefficient (a, 0), through the float64 digit products
    F = build_field(7, 2)
    W = [[F.pow(x, j) for j in range(F.q)] for x in range(F.q)]
    tables = [[[W[y][a]] * F.q for y in range(F.q)] for a in range(F.q)]
    assert _interp2d(F, *tables) == [{(a, 0): 1} for a in range(F.q)]


def test_dependent_basis_rejected():
    F = build_field(3, 2)
    with pytest.raises(DependentBasis):
        _basis_matrix(F, (F.elem(1), F.elem(2)))
    with pytest.raises(DependentBasis):
        _basis_matrix(F, (F.elem(1),))


def test_identity_config_reads_coordinates():
    F = build_field(3, 2)
    basis = (F.elem(1), F.elem(3))  # 1 and the generator
    cfg = DecompositionConfig(F, basis, basis)
    G = component_map(lambda x: x, cfg)
    for x in range(9):
        assert G(tuple(F.coeffs(x))) == tuple(F.coeffs(x))


def test_constant_offset_absorbed():
    F = build_field(3, 2)
    basis = (F.elem(1), F.elem(3))
    cfg = DecompositionConfig(F, basis, basis, c=7)
    G = component_map(lambda x: F.add(x, 7), cfg)
    for x in range(9):
        assert G(tuple(F.coeffs(x))) == tuple(F.coeffs(x))


def _random_config(F, rng):
    p, n = F.p, F.m
    pf = build_field(p, 1)

    def inv_mat():
        while True:
            M = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            try:
                mat_inv(pf, M)
                return M
            except SingularMatrix:
                pass

    def basis():
        while True:
            b = tuple(F.elem(rng.randrange(1, F.q)) for _ in range(n))
            try:
                _basis_matrix(F, b)
                return b
            except DependentBasis:
                pass

    return DecompositionConfig(
        F,
        basis(),
        basis(),
        inv_mat(),
        inv_mat(),
        tuple(rng.randrange(p) for _ in range(n)),
        tuple(rng.randrange(p) for _ in range(n)),
        rng.randrange(F.q),
    )


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3), (2, 4)])
def test_equivalence_on_random_maps(p, n):
    rng = random.Random(100 * p + n)
    F = build_field(p, n)
    for _ in range(10):
        table = [rng.randrange(F.q) for _ in range(F.q)]
        cfg = _random_config(F, rng)
        f_pp, comps_pp, agree = verify_equivalence(lambda x: table[x], cfg)
        assert agree


def test_equivalence_on_known_permutation():
    F = build_field(3, 2)
    rng = random.Random(0)
    cfg = _random_config(F, rng)
    f_pp, comps_pp, agree = verify_equivalence(lambda x: F.pow(x, 3), cfg)
    assert f_pp and comps_pp and agree


def test_lemma31_extract_matches_closed_form():
    T = build_tower(build_field(5, 1))
    cases = [(T, tid, gamma, delta, None) for tid, gamma in [("3.1", 7), ("3.6", 2), ("3.14", 3)]
             for delta in (0, 3, 13)]
    # 3.13 at i = 0, a hypothesis probe: its core a^2 - u*z^2 has no z^1 term
    T9 = build_tower(build_field(3, 2))
    cases += [(T, "3.13", 2, 3, 0), (T, "3.13", 4, 17, 0), (T9, "3.13", 1, 1, 0), (T9, "3.13", 5, 40, 0)]
    # one seeded point per closed-form theorem over a non-prime base
    rng = random.Random(31)
    T8 = build_tower(build_field(2, 3))
    for info in THEOREMS.values():
        if info.has_closed_form:
            t = T9 if info.char == "odd" else T8
            gamma = rng.randrange(1, t.q if info.gamma_domain == "Fq_star" else t.order)
            cases.append((t, info.tid, gamma, rng.randrange(t.order), 1 if info.needs_i else None))
    for t, tid, gamma, delta, i in cases:
        spec = family_for_theorem(tid, delta, gamma, i=i)
        ext = lemma31_extract(spec, t)
        clo = closed_form_components(tid, t, t.elem(delta), t.elem(gamma), i=i)
        assert clo.same_values(ext), (tid, t.q, delta, gamma, i)


@pytest.mark.parametrize("m", [4, 5], ids=["F81", "F243"])
def test_lemma31_extract_matches_closed_form_at_large_q(m):
    # the digit matrix has q m = 324 and 1,215 rows: its float64 products
    # must stay exact over sums of that many digit products
    T = build_tower(build_field(3, m))
    rng = random.Random(m)
    for tid in ("3.6", "3.14"):
        delta, gamma = rng.randrange(T.order), rng.randrange(1, T.q)
        ext = lemma31_extract(family_for_theorem(tid, delta, gamma), T)
        clo = closed_form_components(tid, T, T.elem(delta), T.elem(gamma))
        assert clo.same_values(ext), (tid, delta, gamma)


def test_lemma31_extract_rejects_flat_kinds():
    T = build_tower(build_field(3, 1))
    with pytest.raises(KindContextMismatch):
        lemma31_extract(FamilySpec(kind="trace_form", d=1, gamma=1), T)
    # a delta-power kind on a tower of the other parity, or on a flat field
    T_even = build_tower(build_field(2, 2))
    odd, even = family_for_theorem("3.6", 1, 1), family_for_theorem("3.19", 1, 1)
    for spec, ctx in [(odd, T_even), (even, T), (odd, build_field(3, 2))]:
        with pytest.raises(KindContextMismatch):
            lemma31_extract(spec, ctx)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)], ids=["F4", "F8", "F9", "F25", "F27"])
def test_interp2d_reproduces_value_tables(p, m):
    F = build_field(p, m)
    q = F.q
    rng = random.Random(q)
    V = [[rng.randrange(q) for _ in range(q)] for _ in range(q)]
    [coeffs] = _interp2d(F, V)
    assert all(type(v) is int for key, c in coeffs.items() for v in (*key, c))
    table = ComponentTable(F, coeffs, {})
    assert [[table.eval(1, y, z) for z in range(q)] for y in range(q)] == V
