import os

import pytest
from hypothesis import given, settings, strategies as st

from ppkit.errors import (
    DegreeTooLarge,
    DivisionByZero,
    InvalidConfig,
    InvalidSubfield,
    MixedContexts,
    NotPrime,
    WrongCharacteristic,
)
from ppkit.cli import main
from ppkit.gf import (
    FieldCtx,
    build_field,
    find_special,
    frobenius,
    in_subfield,
    power_class,
    is_square,
    trace_and_norm,
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


def test_frobenius_is_field_automorphism():
    F = build_field(3, 2)
    for x in range(F.q):
        for y in range(F.q):
            fx = frobenius(F, F.elem(x), 3, 1)
            fy = frobenius(F, F.elem(y), 3, 1)
            fxy = frobenius(F, F.elem(F.add(x, y)), 3, 1)
            assert fxy.enc == F.add(fx.enc, fy.enc)
            assert frobenius(F, F.elem(F.mul(x, y)), 3, 1).enc == F.mul(fx.enc, fy.enc)


def test_trace_norm_land_in_subfield():
    F = build_field(2, 4)
    for x in range(F.q):
        t, n = trace_and_norm(F, F.elem(x), 4)
        assert in_subfield(F, t, 4)
        assert in_subfield(F, n, 4)
    with pytest.raises(InvalidSubfield):
        trace_and_norm(F, F.elem(1), 8)


def test_trace_is_additive_and_surjective():
    F = build_field(3, 2)
    traces = set()
    for x in range(F.q):
        for y in range(F.q):
            tx = trace_and_norm(F, F.elem(x), 3)[0].enc
            ty = trace_and_norm(F, F.elem(y), 3)[0].enc
            ts = trace_and_norm(F, F.elem(F.add(x, y)), 3)[0].enc
            assert ts == F.add(tx, ty)
        traces.add(trace_and_norm(F, F.elem(x), 3)[0].enc)
    assert traces == {0, 1, 2}


def test_square_classes():
    F = build_field(7, 1)
    squares = {F.mul(x, x) for x in range(7)}
    for x in range(7):
        assert is_square(F, F.elem(x)) == (x in squares)
    assert is_square(F, F.elem(0))


def test_power_class_wrong_k():
    F = build_field(5, 1)
    from ppkit.errors import UnsupportedK

    with pytest.raises(UnsupportedK):
        power_class(F, F.elem(2), 3)


def test_find_special_elements():
    F = build_field(5, 1)
    u = find_special(F, "non_square")
    assert not is_square(F, u)
    assert u.enc == min(e for e in range(1, 5) if not is_square(F, F.elem(e)))
    with pytest.raises(WrongCharacteristic):
        find_special(F, "abs_trace_one")
    E = build_field(2, 2)
    w = find_special(E, "abs_trace_one")
    assert trace_and_norm(E, w, 2)[0].enc == 1
    with pytest.raises(WrongCharacteristic):
        find_special(E, "non_square")
