import random

import numpy as np
import pytest

from ppkit.errors import LeftBaseField, MixedContexts
from ppkit.gf import _CTX_TOKEN, FieldCtx, build_field
from ppkit.tower import (
    TowerElem,
    build_tower,
    proof_substitution,
    valid_us,
)

TOWERS = [(3, 1), (3, 2), (5, 1), (7, 1), (2, 1), (2, 2), (2, 3)]


@pytest.mark.parametrize("p,m", TOWERS)
def test_alpha_reduction_rule(p, m):
    T = build_tower(build_field(p, m))
    a2 = T.mul(T.alpha.enc, T.alpha.enc)
    if T.kind == "odd":
        assert a2 == T.embed(T.u)
    else:
        assert a2 == T.add(T.alpha.enc, T.embed(T.u))


@pytest.mark.parametrize("p,m", TOWERS)
def test_frob_is_qth_power(p, m):
    T = build_tower(build_field(p, m))
    for x in range(T.order):
        assert T.frob(x) == T.pow(x, T.q)
        # Frobenius is an involution on the quadratic extension
        assert T.frob(T.frob(x)) == x


@pytest.mark.parametrize("p,m", TOWERS)
def test_field_axioms_on_tower(p, m):
    T = build_tower(build_field(p, m))
    pts = range(T.order) if T.order <= 25 else range(0, T.order, 7)
    for x in pts:
        assert T.add(x, T.neg(x)) == 0
        if x:
            assert T.mul(x, T.inv(x)) == 1
        for y in pts:
            assert T.mul(x, y) == T.mul(y, x)
            assert T.add(x, y) == T.add(y, x)


@pytest.mark.parametrize("p,m", [(3, 1), (2, 2), (2, 3), (3, 2)])
def test_add_sub_neg_act_on_coordinates(p, m):
    T = build_tower(build_field(p, m))
    b = T.base

    def coordinate_wise(op, x, y):
        (x0, x1), (y0, y1) = T.split(x), T.split(y)
        return T.from_coords(op(x0, y0), op(x1, y1))

    for x in range(T.order):
        x0, x1 = T.split(x)
        assert T.neg(x) == T.sub(0, x) == T.from_coords(b.neg(x0), b.neg(x1))
        for y in range(T.order):
            assert T.add(x, y) == coordinate_wise(b.add, x, y)
            assert T.sub(x, y) == coordinate_wise(b.sub, x, y)


def test_trace_norm_values():
    T = build_tower(build_field(3, 1))
    for x in range(9):
        c0, c1 = T.split(x)
        # odd tower: Tr(c0 + c1*alpha) = 2*c0, N = c0^2 - u*c1^2
        assert T.trace(x) == T.base.mul(T.base.scalar(2), c0)
        want = T.base.sub(T.base.mul(c0, c0), T.base.mul(T.u, T.base.mul(c1, c1)))
        assert T.norm(x) == want


def test_trace_norm_invariant_is_checked_without_assert(monkeypatch):
    T = build_tower(build_field(3, 1))
    monkeypatch.setattr(T, "frob", lambda x: x)  # a broken conjugation
    with pytest.raises(LeftBaseField):
        T.trace(T.alpha.enc)
    with pytest.raises(LeftBaseField):
        T.norm(T.add(1, T.alpha.enc))


def test_even_trace_is_alpha_coordinate():
    T = build_tower(build_field(2, 2))
    for x in range(T.order):
        assert T.trace(x) == T.split(x)[1]


def _table_ctx(kind, p, m):
    # a fresh field: its scalar ops read no tables, so the flat cases check the
    # tables against the polynomial path; build_tower gives the base its tables,
    # and a tower's scalar ops never read the tower's own
    base = FieldCtx(p, m, _token=_CTX_TOKEN)
    return base if kind == "flat" else build_tower(base)


@pytest.mark.parametrize(
    "kind,p,m,rows",
    [
        pytest.param("tower", 3, 1, None, id="3-1"),
        pytest.param("tower", 5, 1, None, id="5-1"),
        pytest.param("tower", 2, 2, None, id="2-2"),
        pytest.param("tower", 3, 2, 40, id="3-2"),
        pytest.param("tower", 2, 3, None, id="tower-2-3"),
        pytest.param("flat", 2, 4, None, id="flat-2-4"),
        pytest.param("flat", 2, 9, 12, id="flat-2-9"),
        pytest.param("flat", 3, 3, None, id="flat-3-3"),
        pytest.param("flat", 5, 2, None, id="flat-5-2"),
    ],
)
def test_tables_match_scalar_ops(kind, p, m, rows):
    ctx = _table_ctx(kind, p, m)
    scalar = _table_ctx(kind, p, m)
    ctx.tables()
    grid = np.arange(ctx.order)
    add = ctx.add_vec(grid[:, None], grid)
    mul = ctx.mul_vec(grid[:, None], grid)
    xs = range(ctx.order)
    if rows is not None:
        xs = random.Random(p * 100 + m).sample(xs, rows)
    for x in xs:
        assert add[x].tolist() == [scalar.add(x, y) for y in grid.tolist()]
        want = [scalar.mul(x, y) for y in grid.tolist()]
        assert mul[x].tolist() == want
        assert [ctx.mul(x, y) for y in grid.tolist()] == want
        if x:
            assert ctx.inv(x) == scalar.inv(x)


@pytest.mark.parametrize(
    "kind,p,m",
    [("flat", 2, 3), ("flat", 3, 2), ("flat", 5, 2), ("tower", 2, 2), ("tower", 5, 1),
     ("tower", 3, 2)],
    ids=["F8", "F9", "F25", "F4^2", "F5^2", "F9^2"],
)
def test_line_vec_is_add_of_mul(kind, p, m):
    ctx = _table_ctx(kind, p, m)
    rng = np.random.default_rng(ctx.order)
    acc = rng.integers(0, ctx.order, size=3 * ctx.order)
    lin = rng.integers(0, ctx.order, size=3 * ctx.order)
    acc[:2 * ctx.order:2] = 0  # zeros in both, in acc only, in lin only, in neither
    lin[:ctx.order] = 0
    at = ctx.line_vec(acc, lin)
    for g in range(ctx.order):
        assert at(g).tolist() == ctx.add_vec(acc, ctx.mul_vec(g, lin)).tolist(), g


@pytest.mark.parametrize(
    "kind,p,m",
    [("flat", 2, 3), ("flat", 3, 2), ("flat", 5, 2), ("tower", 2, 2), ("tower", 5, 1),
     ("tower", 3, 2)],
    ids=["F8", "F9", "F25", "F4^2", "F5^2", "F9^2"],
)
def test_line_vec_block_rows_are_the_int_vectors(kind, p, m):
    ctx = _table_ctx(kind, p, m)
    rng = np.random.default_rng(ctx.order)
    acc = rng.integers(0, ctx.order, size=2 * ctx.order)
    lin = rng.integers(0, ctx.order, size=2 * ctx.order)
    lin[:ctx.order] = 0
    at = ctx.line_vec(acc, lin)
    gs = [0] + rng.integers(0, ctx.order, size=ctx.order).tolist() + [0]
    block = at(np.array(gs))
    assert block.shape == (len(gs), len(lin))
    for j, g in enumerate(gs):
        assert block[j].tolist() == at(g).tolist(), (j, g)


def test_pow_vec_matches_pow():
    for kind, p, m in [("tower", 3, 1), ("tower", 3, 2), ("flat", 2, 4), ("flat", 2, 9)]:
        ctx = _table_ctx(kind, p, m)
        scalar = _table_ctx(kind, p, m)
        xs = np.arange(ctx.order)
        q = ctx.q if kind == "tower" else p
        for e in (0, 1, 2, 5, 7, 11, q, q + 1, ctx.order - 1, 3 * ctx.order):
            got = ctx.pow_vec(xs, e)
            assert [scalar.pow(int(x), e) for x in xs] == list(got)
    # e * log x passes 2^31 here, so the product must not wrap
    ctx = build_tower(build_field(2, 8))
    xs = np.array(random.Random(256).sample(range(ctx.order), 200))
    for e in (40000, ctx.order - 3):
        assert ctx.pow_vec(xs, e).tolist() == [ctx.pow(int(x), e) for x in xs]


def test_valid_us():
    F = build_field(5, 1)
    us = valid_us(F)
    assert us == [2, 3]  # non-squares mod 5
    for u in us:
        build_tower(F, u=u)
    with pytest.raises(ValueError):
        build_tower(F, u=4)  # 4 = 2^2 is a square
    E = build_field(2, 2)
    for u in valid_us(E):
        build_tower(E, u=u)
    with pytest.raises(ValueError):
        build_tower(E, u=0)  # absolute trace 0


def test_build_tower_is_cached_per_base_object():
    F = build_field(5, 1)
    T = build_tower(F)
    assert build_tower(F) is T
    assert build_tower(F, u=T.u) is T
    assert build_tower(F, u=3) is build_tower(F, u=3) is not T
    fresh = FieldCtx(5, 1, _token=_CTX_TOKEN)
    assert fresh == F and build_tower(fresh) is not T


def test_elem_ops_and_embedding():
    T = build_tower(build_field(3, 1))
    B = T.base
    x = T.elem(5)
    y = T.elem(7)
    assert (x + y).enc == T.add(5, 7)
    assert (x * y).enc == T.mul(5, 7)
    assert (x - y) + y == x
    assert (x / y) * y == x
    assert (x + B.elem(2)).enc == T.add(5, T.embed(2))
    other = build_tower(build_field(5, 1))
    with pytest.raises(MixedContexts):
        _ = x + other.elem(1)
    assert T.elem(T.from_coords(x.c0.enc, x.c1.enc)) == x


@pytest.mark.parametrize("p,m", TOWERS)
def test_proof_substitution_identity(p, m):
    T = build_tower(build_field(p, m))
    B = T.base
    for delta in range(T.order):
        de = T.elem(delta)
        a, b = T.split(delta)
        for y in range(B.q):
            for z in range(B.q):
                x = proof_substitution(T, de, B.elem(y), B.elem(z))
                if T.kind == "odd":
                    got = T.add(T.sub(T.frob(x.enc), x.enc), delta)
                    assert got == T.from_coords(a, z)
                else:
                    got = T.add(T.add(T.frob(x.enc), x.enc), delta)
                    assert got == T.from_coords(z, b)


def test_proof_substitution_is_bijective_in_yz():
    T = build_tower(build_field(5, 1))
    de = T.elem(17)
    seen = {
        proof_substitution(T, de, T.base.elem(y), T.base.elem(z)).enc
        for y in range(5)
        for z in range(5)
    }
    assert len(seen) == T.order
