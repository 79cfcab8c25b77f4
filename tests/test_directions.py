import random

import pytest

from ppkit.directions import (
    check_complementarity,
    direction_set,
    permuting_translate_set,
)
from ppkit.errors import DomainTooLarge, KindContextMismatch
from ppkit.families import eval_family, family_for_theorem
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
    ],
    ids=["F8", "F9", "F3^2", "F4^2", "F5^2", "F7^2"],
)
def test_direction_set_matches_definition(ctx):
    rng = random.Random(ctx.order)
    n, add, mul, pw, sub, div = ctx.order, ctx.add, ctx.mul, ctx.pow, ctx.sub, ctx.div
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
            want = {
                div(sub(table[x], table[y]), sub(x, y))
                for x in range(n) for y in range(n)
                if x != y and (not restrict or ctx.split(sub(x, y))[1] == 0)  # x - y in F_q
            }
            assert direction_set(lambda x: table[x], ctx, restrict_to_base=restrict) == want


def _fresh_tower(p: int) -> TowerCtx:
    """A tower over F_p that shares no state with build_tower's cached one."""
    cached = build_tower(build_field(p, 1))
    return TowerCtx(cached.base, cached.u)


def _definition(ctx, table) -> set[int]:
    n, sub, div = ctx.order, ctx.sub, ctx.div
    return {div(sub(table[x], table[y]), sub(x, y)) for x in range(n) for y in range(n) if x != y}


def test_direction_set_adds_once_per_digit_and_element():
    # |F| scalar adds per p-adic digit of the encoding build the translation
    # rows, and the pairs are subtracted, never added: two adds per (x, h)
    # would make 2 * 48 * 49 = 4,704
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
