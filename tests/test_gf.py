import operator
import os

import pytest
from hypothesis import given, settings, strategies as st

from ppkit.errors import (
    DegreeTooLarge,
    DivisionByZero,
    InvalidConfig,
    InvalidParam,
    MixedContexts,
    NotPrime,
    PPKitError,
)
from ppkit import gf
from ppkit.cli import main
from ppkit.gf import (
    _CTX_TOKEN,
    FieldCtx,
    _poly_to_enc,
    build_field,
    power_class,
    trace_sum,
)

FIELDS = [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (2, 4), (3, 3)]


@pytest.mark.parametrize("p,m", FIELDS)
def test_modulus_is_deterministic_and_monic(p, m):
    F = build_field(p, m)
    G = build_field(p, m)
    assert F is G  # cached construction
    assert len(F.modulus) == m + 1
    assert F.modulus[-1] == 1


def test_non_prime_characteristic_rejected():
    with pytest.raises(NotPrime):
        build_field(4, 1)
    with pytest.raises(NotPrime):
        build_field(1, 2)


def test_the_size_bound_is_checked_before_primality(monkeypatch):
    # trial division of p = 10^18 + 9 would take 10^9 steps
    calls = []
    monkeypatch.setattr(gf, "is_prime", lambda n: calls.append(n) or True)
    with pytest.raises(DegreeTooLarge):
        build_field(10**18 + 9, 1)
    assert calls == []


def test_field_size_bound(monkeypatch, capsys):
    with pytest.raises(DegreeTooLarge):
        build_field(2, 17)
    monkeypatch.setenv("PPKIT_MAX_Q", "16")
    build_field.cache_clear()
    try:
        with pytest.raises(DegreeTooLarge):
            build_field(5, 2)
        # F_5 fits, but its tower's tables of order 25 do not
        assert main(["sweep", "--p", "5", "--m", "1", "--theorem", "3.14"]) == 65
        err = capsys.readouterr().err
        assert err.startswith("ppkit: ") and err.count("\n") == 1
        monkeypatch.setenv("PPKIT_MAX_Q", "lots")
        build_field.cache_clear()
        with pytest.raises(InvalidConfig):
            build_field(5, 1)
        assert main(["field-info", "--p", "5", "--m", "1"]) == 65
        err = capsys.readouterr().err
        assert err.startswith("ppkit: ") and err.count("\n") == 1
    finally:
        build_field.cache_clear()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_field_axioms(data):
    p, m = data.draw(st.sampled_from(FIELDS))
    F = build_field(p, m)
    x = data.draw(st.integers(0, F.q - 1))
    y = data.draw(st.integers(0, F.q - 1))
    z = data.draw(st.integers(0, F.q - 1))
    assert F.add(x, y) == F.add(y, x)
    assert F.mul(x, y) == F.mul(y, x)
    assert F.add(F.add(x, y), z) == F.add(x, F.add(y, z))
    assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
    assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
    assert F.add(x, F.neg(x)) == 0
    if x != 0:
        assert F.mul(x, F.inv(x)) == 1


# m = 1 is the prime-field branch, where the reference is (x +- y) % p
@pytest.mark.parametrize("p,m", [(7, 1), (13, 1), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_add_sub_neg_act_on_coefficients(p, m):
    F = build_field(p, m)

    def coefficient_wise(op, x, y):
        return _poly_to_enc([op(a, b) % p for a, b in zip(F.coeffs(x), F.coeffs(y))], p)

    for x in range(F.q):
        assert F.neg(x) == F.sub(0, x) == coefficient_wise(operator.sub, 0, x)
        for y in range(F.q):
            assert F.add(x, y) == coefficient_wise(operator.add, x, y)
            assert F.sub(x, y) == coefficient_wise(operator.sub, x, y)


class _Bounded(int):
    """An int whose floor divisions are counted: a digit loop that does not
    end fails the test at once instead of hanging it."""

    divisions = 0

    def __floordiv__(self, other):
        _Bounded.divisions += 1
        if _Bounded.divisions > 100:
            raise AssertionError("the digit loop does not end")
        return _Bounded(int(self) // other)


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 3)])
def test_add_and_sub_take_a_fixed_number_of_digits(p, m):
    # -1 floors to -1 forever, so a loop until the operands reach 0 never ended
    F = build_field(p, m)
    for op in (F.add, F.sub):
        _Bounded.divisions = 0
        assert 0 <= op(_Bounded(5), _Bounded(-1)) < F.q
        assert _Bounded.divisions == 2 * m


@pytest.mark.parametrize("p,m", [(3, 2), (2, 3), (5, 1)])
def test_pow_and_fermat(p, m):
    F = build_field(p, m)
    for x in range(F.q):
        assert F.pow(x, F.q) == x  # x^q = x
        if x:
            assert F.pow(x, F.q - 1) == 1
    assert F.pow(0, 0) == 1


def test_division_by_zero():
    F = build_field(5, 1)
    with pytest.raises(DivisionByZero):
        F.inv(0)
    with pytest.raises(DivisionByZero):
        F.div(3, 0)


@pytest.mark.parametrize("p,m", [(5, 1), (3, 2)])
def test_tables_raise_when_no_element_is_primitive(p, m):
    # a fresh field, not the cached one, whose scalar mul is wrong: x * y = x.
    # Each candidate's walk must stop after n - 1 steps, and no candidate is
    # primitive, so tables() raises instead of looping or using the last walk
    ctx = FieldCtx(p, m, _token=_CTX_TOKEN)
    ctx.mul = lambda x, y: x
    with pytest.raises(PPKitError, match="generates"):
        ctx.tables()
    assert ctx._tables is None

def test_elem_operators_and_mixed_contexts():
    F = build_field(3, 2)
    G = build_field(3, 1)
    a, b = F.elem(4), F.elem(7)
    assert (a + b).enc == F.add(4, 7)
    assert (a * b).enc == F.mul(4, 7)
    assert (a - b) + b == a
    assert (a / b) * b == a
    assert (a + 1).enc == F.add(4, F.scalar(1))
    with pytest.raises(MixedContexts):
        _ = a + G.elem(1)
    with pytest.raises(InvalidParam):  # an encoding past the field
        F.elem(9)


def test_trace_is_additive_and_surjective():
    F = build_field(3, 2)
    traces = set()
    for x in range(F.q):
        for y in range(F.q):
            ts = trace_sum(F, F.add(x, y), 3, 2)
            assert ts == F.add(trace_sum(F, x, 3, 2), trace_sum(F, y, 3, 2))
        traces.add(trace_sum(F, x, 3, 2))
    assert traces == {0, 1, 2}


def test_power_class_matches_brute_force():
    for p, m in [(7, 1), (3, 2), (13, 1), (2, 4), (5, 2)]:
        F = build_field(p, m)
        for k in range(1, 9):
            powers = {F.pow(y, k) for y in range(F.q)}
            got = [power_class(F, x, k) for x in range(F.q)]
            assert got == [x in powers for x in range(F.q)], (F, k)
    with pytest.raises(InvalidParam):
        power_class(build_field(5, 1), 2, 0)

