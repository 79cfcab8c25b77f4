import functools
import random

import numpy as np
import pytest

from ppkit import gf
from ppkit.directions import (
    check_complementarity,
    direction_set,
    permuting_translate_set,
)
from ppkit.errors import DomainTooLarge, ImageOutOfDomain, KindContextMismatch
from ppkit.families import eval_family, family_for_theorem, family_images
from ppkit.gf import build_field
from ppkit.oracle import is_bijection
from ppkit.tower import TowerCtx, build_tower


def test_linear_map_has_single_direction():
    F = build_field(7, 1)
    f = lambda x: F.mul(3, x)
    assert direction_set(f, F) == {3}
    # f + gamma*x = (3 + gamma) x permutes unless gamma = -3
    assert permuting_translate_set(f, F) == set(range(7)) - {F.neg(3)}


def test_constant_map():
    F = build_field(5, 1)
    f = lambda x: 2
    assert direction_set(f, F) == {0}
    assert permuting_translate_set(f, F) == set(range(1, 5))


def test_duality_on_random_maps():
    F = build_field(2, 3)
    rng = random.Random(42)
    for _ in range(20):
        table = [rng.randrange(8) for _ in range(8)]
        rep = check_complementarity(lambda x: table[x], F)
        assert rep.complementary
        assert rep.sizes_sum_to_field


@pytest.mark.parametrize(
    "ctx",
    [
        build_field(2, 3),
        build_field(3, 2),
        build_tower(build_field(3, 1)),
        build_tower(build_field(2, 2)),
    ],
    ids=["F8", "F9", "F3^2", "F4^2"],
)
def test_permuting_translate_set_matches_brute_force(ctx):
    rng = random.Random(ctx.order)
    n, add, mul, pw = ctx.order, ctx.add, ctx.mul, ctx.pow
    tables = [rng.sample(range(n), n) for _ in range(3)]  # permutations
    tables += [[rng.randrange(n) for _ in range(n)] for _ in range(3)]
    for _ in range(4):  # a*x^p + b*x^(p^2) + c: additive, so many slopes permute
        a, b, c = (rng.randrange(n) for _ in range(3))
        tables.append(
            [add(add(mul(a, pw(x, ctx.p)), mul(b, pw(x, ctx.p**2))), c) for x in range(n)]
        )
    for table in tables:
        want = {
            g for g in range(n)
            if is_bijection(lambda x: ctx.add(table[x], ctx.mul(g, x)), n).is_permutation
        }
        assert permuting_translate_set(lambda x: table[x], ctx) == want


def test_duality_on_tower_family():
    T = build_tower(build_field(3, 1))
    for delta in range(9):
        spec = family_for_theorem("3.2", delta, 0)
        rep = check_complementarity(lambda e: eval_family(spec, T, e).enc, T)
        assert rep.complementary and rep.sizes_sum_to_field
        # gamma makes f + gamma*x a permutation iff it is a permuting slope
        for g in range(1, 9):
            spec_g = family_for_theorem("3.2", delta, g)
            pp = is_bijection(lambda e: eval_family(spec_g, T, e).enc, 9).is_permutation
            assert pp == (g in rep.permuting)


def test_restricted_direction_set():
    T = build_tower(build_field(3, 1))
    f = lambda x: T.mul(4, x)
    full = direction_set(f, T)
    restricted = direction_set(f, T, restrict_to_base=True)
    assert restricted <= full == {4}


def test_restrict_to_base_needs_a_tower():
    with pytest.raises(KindContextMismatch):
        direction_set(lambda x: x, build_field(3, 2), restrict_to_base=True)


def test_size_guard():
    F = build_field(2, 13)
    with pytest.raises(DomainTooLarge):
        direction_set(lambda x: x, F)
    with pytest.raises(DomainTooLarge):
        permuting_translate_set(lambda x: x, F)
    with pytest.raises(DomainTooLarge):
        direction_set(lambda x: x, F, restrict_to_base=True)


@pytest.mark.parametrize(
    "ctx",
    [
        build_field(2, 3),
        build_field(3, 2),
        build_tower(build_field(3, 1)),
        build_tower(build_field(2, 2)),
        build_tower(build_field(5, 1)),
        build_tower(build_field(7, 1)),
        build_tower(build_field(2, 4)),
    ],
    ids=["F8", "F9", "F3^2", "F4^2", "F5^2", "F7^2", "F16^2"],
)
def test_direction_set_matches_definition(ctx):
    rng = random.Random(ctx.order)
    n, add, mul, pw = ctx.order, ctx.add, ctx.mul, ctx.pow
    if n > 81:  # one random map keeps it within 1.5 s
        assert (n - 1) * n > gf._LINE_BLOCK  # p = 2 walks every h: their rows span several blocks
        tables = [[rng.randrange(n) for _ in range(n)]]
    else:
        tables = [rng.sample(range(n), n) for _ in range(3)]  # permutations
        tables += [[rng.randrange(n) for _ in range(n)] for _ in range(3)]
        for _ in range(4):  # a*x^p + b*x^(p^2) + c: additive, so few directions
            a, b, c = (rng.randrange(n) for _ in range(3))
            tables.append(
                [add(add(mul(a, pw(x, ctx.p)), mul(b, pw(x, ctx.p**2))), c) for x in range(n)]
            )
    values = rng.sample(range(n), 3)  # 3 values: each pair (f(x + h), f(x)) recurs often
    tables.append([rng.choice(values) for _ in range(n)])
    restricts = [False, True] if isinstance(ctx, TowerCtx) else [False]
    for table in tables:
        for restrict in restricts:
            want = _definition(ctx, table, restrict)
            assert direction_set(lambda x: table[x], ctx, restrict_to_base=restrict) == want


@pytest.mark.parametrize(
    "p,m", [(2, 2), (2, 3), (5, 1), (7, 1), (3, 2), (5, 2)],
    ids=["F4^2", "F8^2", "F5^2", "F7^2", "F9^2", "F25^2"],
)
def test_direction_set_matches_definition_on_family_images(p, m):
    # p = 2, odd p at m = 1, and m = 2, where a base-field coordinate has two
    # digits; a random map too below |F| = 625, where the definition's
    # |F|^2 scalar quotients take about a second a map
    T = build_tower(build_field(p, m))
    rng = random.Random(T.order)
    tid = "3.6" if T.kind == "odd" else "3.19"
    tables = [family_images(family_for_theorem(tid, rng.randrange(T.order), 0), T).tolist()]
    if T.order < 625:
        tables.append([rng.randrange(T.order) for _ in range(T.order)])
    for table in tables:
        for restrict in [False, True]:
            got = direction_set(table.__getitem__, T, restrict_to_base=restrict)
            assert got == _definition(T, table, restrict), (tid, restrict)


def test_direction_set_makes_no_scalar_tower_calls():
    # the translations, differences, inverses and quotients are int64 arrays,
    # handed to the tower's add, sub, inv and mul a block at a time
    T = _fresh_tower(7)
    calls = {"scalar": 0, "array": 0}

    def counted(op):
        def call(*args):
            calls["array" if any(isinstance(a, np.ndarray) for a in args) else "scalar"] += 1
            return op(*args)
        return call

    for name in ("add", "sub", "mul", "inv"):
        setattr(T, name, counted(getattr(T, name)))
    table = family_images(family_for_theorem("3.6", 40, 0), build_tower(T.base)).tolist()
    got = direction_set(table.__getitem__, T)
    assert calls["scalar"] == 0
    assert 0 < calls["array"] <= 8  # a handful a block: F_49's 24 h make one
    for name in ("add", "sub", "mul", "inv"):
        delattr(T, name)
    assert got == _definition(T, table)


@pytest.mark.parametrize("block", [1, 400])
def test_direction_set_does_not_depend_on_the_blocks(monkeypatch, block):
    # 1 image: one h a block.  400: the rows of 8 h of F_49 a block, 4 of
    # F_81 and 12 of F_32, whose walk of 31 h ends in a short block
    monkeypatch.setattr(gf, "_LINE_BLOCK", block)
    for ctx in (build_tower(build_field(7, 1)), build_tower(build_field(3, 2)), build_field(2, 5)):
        rng = random.Random(ctx.order)
        values = rng.sample(range(ctx.order), 3)
        for table in [rng.choices(range(ctx.order), k=ctx.order), rng.choices(values, k=ctx.order)]:
            for restrict in [False, True] if isinstance(ctx, TowerCtx) else [False]:
                got = direction_set(table.__getitem__, ctx, restrict_to_base=restrict)
                assert got == _definition(ctx, table, restrict), (ctx, restrict)


def _fresh_tower(p: int) -> TowerCtx:
    """A tower over F_p that shares no state with build_tower's cached one."""
    cached = build_tower(build_field(p, 1))
    return TowerCtx(cached.base, cached.u)


def _definition(ctx, table, restrict: bool = False) -> set[int]:
    """(f(x) - f(y)) / (x - y) over x != y, with y = x - d; with restrict only
    for d in F_q, which a tower encodes below q."""
    n, sub, mul = ctx.order, ctx.sub, ctx.mul
    inv = functools.cache(ctx.inv)  # one inverse per d, not per pair
    ds = range(1, ctx.q if restrict else n)
    return {mul(sub(table[x], table[sub(x, d)]), inv(d)) for x in range(n) for d in ds}


def test_direction_set_inverts_its_walk_once_per_tower():
    # the walked h and their inverses are kept on the context, per end of the walk
    T = _fresh_tower(7)
    calls = []
    inv = T.inv
    T.inv = lambda x: calls.append(x) or inv(x)
    rng = random.Random(11)
    tables = [rng.sample(range(T.order), T.order), rng.choices(range(T.order), k=T.order)]
    for restrict in [False, True]:
        got = [direction_set(table.__getitem__, T, restrict_to_base=restrict) for table in tables]
        assert len(calls) == 1 + restrict
        fresh = _fresh_tower(7)
        assert got == [direction_set(table.__getitem__, fresh, restrict_to_base=restrict) for table in tables]


def test_direction_set_adds_once_per_digit_and_element():
    # one array add per block of h builds the translation rows, and the pairs
    # are subtracted, never added: two scalar adds per (x, h) would make
    # 2 * 48 * 49 = 4,704
    T = _fresh_tower(7)
    table = random.Random(7).sample(range(T.order), T.order)
    calls = []
    add = T.add
    T.add = lambda x, y: calls.append(1) or add(x, y)
    got = direction_set(table.__getitem__, T)
    assert len(calls) <= 2 * T.order  # F_49 encodings have 2 digits
    del T.add
    assert got == _definition(T, table)


def test_direction_set_reads_no_vector_arithmetic():
    # D(f) is the scalar side of the duality; P(f) is decided on the vector side
    T = _fresh_tower(5)

    def refuse(*args, **kwargs):
        raise AssertionError("vector arithmetic used")

    for name in dir(T):
        if name == "tables" or name.endswith("_vec") or name.startswith("line_"):
            setattr(T, name, refuse)
    rng = random.Random(5)
    values = rng.sample(range(T.order), 3)
    for table in [rng.sample(range(T.order), T.order), [rng.choice(values) for _ in range(T.order)]]:
        assert direction_set(table.__getitem__, T) == _definition(T, table)
    assert T._tables is None


@pytest.mark.parametrize(
    "ctx", [build_field(2, 3), build_tower(build_field(3, 1))], ids=["F8", "F3^2"]
)
def test_check_complementarity_evaluates_f_once_per_element(ctx):
    calls = []
    table = random.Random(1).sample(range(ctx.order), ctx.order)

    def f(x):
        calls.append(x)
        return table[x]

    rep = check_complementarity(f, ctx)
    assert sorted(calls) == list(range(ctx.order))
    assert rep.complementary and rep.sizes_sum_to_field


@pytest.mark.parametrize("p,m", [(3, 2), (2, 3)], ids=["F9^2", "F8^2"])
def test_complementary_matches_definition(p, m, monkeypatch):
    # complementary is D and -P disjoint with |D| + |P| = |F|; the definition
    # asks m in D <=> -m not in P of each element m
    T = build_tower(build_field(p, m))
    n = T.order
    rng = random.Random(n)
    tables = [[rng.randrange(n) for _ in range(n)] for _ in range(3)]
    tables += [[rng.randrange(n)] * n, rng.sample(range(n), n)]  # a constant map, a permutation

    def definition(rep):
        return all((e in rep.directions) != (T.neg(e) in rep.permuting) for e in range(n))

    sloped = []  # the tables with a permuting slope to drop
    for table in tables:
        rep = check_complementarity(table.__getitem__, T)
        assert rep.directions == direction_set(table.__getitem__, T)
        assert rep.permuting == permuting_translate_set(table.__getitem__, T)
        assert rep.complementary == definition(rep) is True
        if rep.permuting:
            sloped.append(table)
    assert len(sloped) >= 2
    full = permuting_translate_set
    monkeypatch.setattr(
        "ppkit.directions.permuting_translate_set", lambda f, ctx: set(sorted(full(f, ctx))[1:])
    )
    for table in sloped:
        rep = check_complementarity(table.__getitem__, T)
        assert rep.complementary == definition(rep) is False
        assert not rep.sizes_sum_to_field


def test_tower_inv_reads_no_tower_tables():
    # the tower's scalar ops, direction_set's inv included, run on the base
    # field's tables alone: poisoned exp/log lists of the tower change nothing
    T = _fresh_tower(7)
    T.tables()
    inverses = [T.inv(x) for x in range(1, T.order)]
    table = random.Random(3).sample(range(T.order), T.order)
    # on another tower: T keeps the inverses of its first direction_set call
    want = direction_set(table.__getitem__, _fresh_tower(7))
    T._exp_list = [0] * len(T._exp_list)
    T._log_list = [0] * len(T._log_list)
    assert [T.inv(x) for x in range(1, T.order)] == inverses
    assert all(T.mul(x, y) == 1 for x, y in zip(range(1, T.order), inverses))
    assert direction_set(table.__getitem__, T) == want == _definition(T, table)


@pytest.mark.parametrize(
    "ctx", [build_field(7, 1), build_tower(build_field(3, 1)), build_field(2, 3)],
    ids=["F7", "F3^2", "F8"],
)
@pytest.mark.parametrize("image", ["-1", "|F|"])
def test_the_direction_kernels_refuse_images_outside_the_field(ctx, image):
    # f(0) = -1 would read as the last encoding (D(f) the whole field, P(f)
    # empty, and the duality reported to hold); f(0) = |F| indexes past the end
    table = list(range(ctx.order))
    table[0] = -1 if image == "-1" else ctx.order
    for kernel in (direction_set, permuting_translate_set, check_complementarity):
        with pytest.raises(ImageOutOfDomain, match=r"f\(0\) = "):
            kernel(table.__getitem__, ctx)
