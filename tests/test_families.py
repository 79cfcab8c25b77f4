import hashlib
import json
import random

import pytest

from ppkit.criteria import predict, t319_subfield_h
from ppkit.errors import (
    ExponentOutOfRange,
    InvalidParam,
    KindContextMismatch,
    UnknownTheorem,
    WrongCharacteristic,
)
from ppkit.families import (
    THEOREMS,
    ComponentTable,
    TheoremInfo,
    FamilySpec,
    closed_form_components,
    delta_power_rows,
    eval_family,
    family_for_theorem,
    family_images,
    fold_exponent,
    instantiate_exponent,
    reduce_poly_coeffs,
    theorem_info,
)
from ppkit.gf import build_field
from ppkit.sweep import check_single
from ppkit.tower import build_tower, valid_us


def test_instantiate_exponent():
    assert instantiate_exponent((2, 1), 9, 3) == 19
    assert instantiate_exponent(("ppow", 1), 9, 3) == 12
    with pytest.raises(ExponentOutOfRange):
        instantiate_exponent((0, 0), 9, 3)


def test_registry_covers_all_theorems():
    assert len(THEOREMS) == 20
    with pytest.raises(UnknownTheorem):
        theorem_info("9.9")
    # char, needs_i and needs_d follow from kind and terms
    odd = [f"3.{k}" for k in range(1, 19)]
    assert [t for t, info in THEOREMS.items() if info.char == "odd"] == odd
    assert all(THEOREMS[t].char == "even" for t in ("3.19", "4.1"))
    assert [t for t, info in THEOREMS.items() if info.needs_i] == ["3.13"]
    assert [t for t, info in THEOREMS.items() if info.needs_d] == ["4.1"]
    assert [t for t, info in THEOREMS.items() if not info.has_closed_form] == ["3.2", "3.3", "4.1"]
    with pytest.raises(TypeError):  # derived, so not declared
        TheoremInfo("3.1", "delta_power", ((1, 2),), "x", "Fq2_star", char="odd")


def test_family_kinds_need_matching_context():
    T_odd = build_tower(build_field(3, 1))
    T_even = build_tower(build_field(2, 2))
    F = build_field(3, 2)
    spec = family_for_theorem("3.2", 1, 1)
    with pytest.raises(KindContextMismatch):
        eval_family(spec, T_even, 0)
    with pytest.raises(KindContextMismatch):
        eval_family(spec, F, 0)
    spec19 = family_for_theorem("3.19", 1, 1)
    with pytest.raises(KindContextMismatch):
        eval_family(spec19, T_odd, 0)
    for s, ctx in [(spec, T_even), (spec, F), (spec19, T_odd)]:  # the vector path too
        with pytest.raises(KindContextMismatch):
            family_images(s, ctx)


@pytest.mark.parametrize(
    "p,m", [(3, 1), (3, 2), (2, 1), (2, 3), (5, 1), (7, 1)],
    ids=["F3^2", "F9^2", "F2^2", "F8^2", "F5^2", "F7^2"],
)
def test_delta_power_rows_match_eval_family(p, m):
    T = build_tower(build_field(p, m))
    rng = random.Random(T.order)
    n = T.order
    tids = [t.tid for t in THEOREMS.values() if t.char == T.kind and not t.needs_d]
    for tid in tids:
        for i in range(m + 1) if THEOREMS[tid].needs_i else [None]:  # every i, probes included
            pairs = [(0, 0), (0, rng.randrange(1, n)), (rng.randrange(1, n), 0)]
            pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(3)]
            rows = delta_power_rows(family_for_theorem(tid, 0, 0, i=i), T, [d for d, _ in pairs])
            for (delta, acc, lin), (_, gamma) in zip(rows, pairs):
                spec = family_for_theorem(tid, delta, gamma, i=i)
                want = [eval_family(spec, T, x).enc for x in range(n)]
                assert next(T.line_rows(acc, T.line_products(lin, [gamma]))).tolist() == want, (tid, i, delta, gamma)
                assert family_images(spec, T).tolist() == want


def test_delta_power_evaluation_by_hand():
    T = build_tower(build_field(3, 1))
    spec = FamilySpec(kind="delta_power", terms=((0, 2),), delta=4, gamma=2)
    for x in range(T.order):
        core = T.add(T.sub(T.frob(x), x), 4)
        want = T.add(T.mul(core, core), T.mul(2, x))
        assert eval_family(spec, T, x).enc == want


def test_linear_kind_xq_plus_x():
    T = build_tower(build_field(3, 1))
    spec = family_for_theorem("3.14", 2, 1)
    for x in range(T.order):
        core = T.add(T.sub(T.frob(x), x), 2)
        want = T.add(T.pow(core, 5), T.add(T.frob(x), x))
        assert eval_family(spec, T, x).enc == want


def test_trace_form_evaluation():
    F = build_field(2, 2)
    spec = family_for_theorem("4.1", 0, 1, d=1)
    for x in range(4):
        w = F.mul(F.pow(x, 4), x)
        tr = F.add(w, F.mul(w, w))
        assert eval_family(spec, F, x).enc == F.add(x, tr)


def test_trace_composed_evaluation():
    F = build_field(3, 2)
    g = (1, 4)  # a_1 = 1, a_2 = 4
    spec = FamilySpec(kind="trace_composed", n=2, g_coeffs=g)
    for x in range(9):
        tr = F.add(x, F.pow(x, 3))
        want = F.add(x, F.add(tr, F.mul(4, F.mul(tr, tr))))
        assert eval_family(spec, F, x).enc == want
    with pytest.raises(ValueError):
        eval_family(FamilySpec(kind="trace_composed", n=2, g_coeffs=(1,)), F, 0)


def test_reduce_poly_coeffs():
    F = build_field(3, 1)
    # x^5 folds onto x^3, x^3 stays; over F_3 exponents live in 1..2 mod 2
    out = reduce_poly_coeffs({5: 1, 3: 2, 1: 1}, F, 3)
    assert len(out) == 2
    assert out == [1, 0]  # x^5 -> x^1, x^3 -> x^1: 1 + 2 + 1 = 1 mod 3
    with pytest.raises(ValueError):
        reduce_poly_coeffs({0: 1}, F, 3)


def test_component_table_eval_and_serialize():
    B = build_field(3, 1)
    t = ComponentTable(B, {(1, 0): 2, (0, 2): 1, (0, 1): 0}, {(0, 1): 1})
    assert (0, 1) not in t.g1  # zero coefficients dropped
    assert t.eval(1, 2, 2) == B.add(B.mul(2, 2), B.mul(2, 2))
    ser = t.serialize()
    assert ser["g1"] == [[0, 2, 1], [1, 0, 2]]
    assert ser["g2"] == [[0, 1, 1]]
    same = ComponentTable(B, {(1, 0): 2, (0, 4): 1}, {(0, 1): 1})
    # z^4 and z^2 agree pointwise over F_3
    assert t.same_values(same)


def _value_tables(t: ComponentTable):
    """g1 and g2 at every point of F_q x F_q, on the scalar eval."""
    q = t.base.q
    return tuple([[t.eval(which, y, z) for z in range(q)] for y in range(q)] for which in (1, 2))


@pytest.mark.parametrize(
    "p,m,rounds", [(3, 1, 60), (2, 2, 60), (3, 2, 30), (5, 2, 10)], ids=["F3", "F4", "F9", "F25"]
)
def test_same_values_matches_eval_tables(p, m, rounds):
    # same_values folds the degrees; the reference tabulates eval at every
    # point, at degrees up to 2q + 1, where y^q and y^(2q-1) act as y
    B = build_field(p, m)
    B.tables()  # the scalar mul on the log tables, for speed
    q, top = B.q, 2 * B.q + 1
    rng = random.Random(q)

    def lift(e):  # a degree of at most top that folds onto e < q
        return e if e == 0 else e + (q - 1) * rng.randrange((top - e) // (q - 1) + 1)

    def random_g():
        return {(rng.randrange(top + 1), rng.randrange(top + 1)): rng.randrange(1, q)
                for _ in range(rng.randrange(1, 6))}

    def twin_of(g):  # each degree folded and lifted again, coefficients merged on a clash
        out = {}
        for (dy, dz), c in g.items():
            key = (lift(fold_exponent(dy, q)), lift(fold_exponent(dz, q)))
            out[key] = B.add(out.get(key, 0), c)
        return out

    def cancel(g):  # c*y^e z^k - c*y^(e+q-1) z^k: two terms that fold onto one and sum to 0
        out = dict(g)
        e, k, c = rng.randrange(1, q + 3), rng.randrange(top + 1), rng.randrange(1, q)
        for key, coeff in [((e, k), c), ((e + q - 1, k), B.neg(c))]:
            out[key] = B.add(out.get(key, 0), coeff)
        return out

    def changed(g):  # one coefficient moved by a nonzero amount
        out = dict(g)
        key = rng.choice(sorted(out))
        out[key] = B.add(out[key], rng.randrange(1, q))
        return out

    zero = ComponentTable(B, {}, {})
    assert zero.same_values(ComponentTable(B, cancel({}), cancel({})))
    got = {True: 0, False: 0}
    for _ in range(rounds):
        g = [random_g(), random_g()]
        t = ComponentTable(B, *g)
        which = rng.randrange(2)
        others = [
            (ComponentTable(B, *map(twin_of, g)), True),
            (ComponentTable(B, *map(cancel, map(twin_of, g))), True),
            (ComponentTable(B, *(changed(x) if w == which else x for w, x in enumerate(g))), False),
            (ComponentTable(B, random_g(), random_g()), None),
            (zero, None),
        ]
        want_t = _value_tables(t)
        for other, label in others:
            same = want_t == _value_tables(other)
            assert t.same_values(other) == other.same_values(t) == same
            assert label is None or same == label
            got[same] += 1
    assert got[True] >= 2 * rounds and got[False] >= rounds


def test_closed_form_requires_gamma_in_base():
    T = build_tower(build_field(3, 1))
    with pytest.raises(KindContextMismatch):
        closed_form_components("3.6", T, T.elem(0), T.elem(4))
    with pytest.raises(UnknownTheorem):
        closed_form_components("3.2", T, T.elem(0), T.elem(1))


def test_closed_forms_are_pinned():
    """sha256 of the pairs at seeded points over fields criterion 3's O(q^3)
    extraction cannot reach, at the canonical and the largest u, as written
    by the theorem-by-theorem closed forms this expansion replaced."""
    rng = random.Random(9)
    digest = hashlib.sha256()
    for p, m in [(5, 2), (3, 3), (7, 2), (3, 4), (2, 4), (2, 6)]:
        base = build_field(p, m)
        for u in (None, valid_us(base)[-1]):
            T = build_tower(base, u)
            for info in THEOREMS.values():
                if not info.has_closed_form or info.char != T.kind:
                    continue
                for i in range(1, m) if info.needs_i else [None]:
                    for _ in range(10):
                        delta = rng.randrange(T.order)
                        gamma = rng.randrange(1, T.q if info.gamma_domain == "Fq_star" else T.order)
                        table = closed_form_components(info.tid, T, T.elem(delta), T.elem(gamma), i=i)
                        digest.update(json.dumps(table.serialize()).encode())
    assert digest.hexdigest() == "0e617345c73f1bc6702c5befb0d78d848d8482ac0ac0b346fdf4c02765d61c70"


def test_serialize_round_trip():
    spec = family_for_theorem("3.13", 3, 2, i=1)
    d = spec.serialize()
    assert d["terms"] == [["ppow", 1]]
    assert d["kind"] == "delta_power"
    assert FamilySpec(
        kind=d["kind"],
        terms=tuple(tuple(t) for t in d["terms"]),
        delta=d["delta"],
        gamma=d["gamma"],
        linear_kind=d["linear_kind"],
    ) == spec


T4 = build_tower(build_field(2, 2))
T3 = build_tower(build_field(3, 1))
T8 = build_tower(build_field(2, 3))
T5 = build_tower(build_field(5, 1))


@pytest.mark.parametrize(
    "call, fault",
    [
        (lambda: predict("3.6", T4, 0, 0), WrongCharacteristic),
        (lambda: predict("3.6", build_field(3, 2), 0, 1), WrongCharacteristic),
        (lambda: closed_form_components("3.6", T4, T4.elem(0), T4.elem(1)), WrongCharacteristic),
        (lambda: predict("4.1", build_field(2, 2), 0, 1, d=2), InvalidParam),
        (lambda: predict("3.14", T3, 0, 1, i=7), InvalidParam),
        (lambda: check_single("3.14", 3, 1, 0, 1, d=5), InvalidParam),
        (lambda: predict("3.4", T5, 0, 25), InvalidParam),
        (lambda: predict("3.1", T5, 999, 1), InvalidParam),
        (lambda: predict("3.13", T5, 999, 1, i=1), InvalidParam),
        (lambda: predict("3.19", T8, 64, 1), InvalidParam),
        (lambda: predict("4.1", build_field(2, 2), 5, 1, d=1), InvalidParam),
        (lambda: predict("4.1", build_field(2, 2), 0, 4, d=1), InvalidParam),
        (lambda: t319_subfield_h(T8, 64, 1), InvalidParam),
    ],
    ids=["parity-before-gamma", "flat-field", "closed-form-parity", "even-d", "foreign-i", "foreign-d",
         "gamma-outside-field", "delta-outside-field", "delta-outside-field-313",
         "delta-outside-field-319", "delta-on-trace-form", "gamma-outside-flat-field",
         "t319-delta-outside-field"],
)
def test_theorem_check_raises_one_class_per_fault(call, fault):
    with pytest.raises(fault):
        call()
