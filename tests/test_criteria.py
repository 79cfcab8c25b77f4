import pytest

from ppkit.criteria import (
    Verdict,
    cubic_norm_pp,
    h_permutes_subfield,
    predict,
    quintic_norm_pp,
    reduce_trace_composed,
    t319_subfield_h,
)
from ppkit.errors import (
    GammaNotInSubfield,
    ImageOutOfDomain,
    InvalidParam,
    InvalidSubfield,
    MissingParam,
    WrongCharacteristic,
)
from ppkit.families import FamilySpec, eval_family, family_for_theorem
from ppkit.gf import build_field, subfield_elements
from ppkit.oracle import is_bijection
from ppkit.tower import build_tower

ODD_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]


@pytest.mark.parametrize("p,m", ODD_FIELDS)
def test_cubic_norm_pp_exact(p, m):
    F = build_field(p, m)
    for c in range(F.q):
        truth = is_bijection(
            lambda x: F.sub(F.pow(x, 3), F.mul(c, x)), F.q
        ).is_permutation
        assert cubic_norm_pp(F, c) == truth


def _quintic_points(F):
    """Every (A, B) up to q = 25; at q = 125 the rows of the two q = 0 mod 5
    branches: A = 0, where z^5 + Bz is linearized, and B = (A/2)^2, where
    f = z(z^2 + A/2)^2."""
    if F.q <= 25:
        return [(A, B) for A in range(F.q) for B in range(F.q)]
    half = F.inv(F.scalar(2))
    return [(0, B) for B in range(F.q)] + [(A, F.pow(F.mul(A, half), 2)) for A in range(1, F.q)]


@pytest.mark.parametrize("p,m", ODD_FIELDS + [(5, 2), (5, 3)])
def test_quintic_norm_pp_exact(p, m):
    F = build_field(p, m)
    for A, B in _quintic_points(F):
        truth = is_bijection(
            lambda x: F.add(
                F.pow(x, 5), F.add(F.mul(A, F.pow(x, 3)), F.mul(B, x))
            ),
            F.q,
        ).is_permutation
        assert quintic_norm_pp(F, A, B) == truth, (A, B)


def test_norm_predicates_reject_even_characteristic():
    F = build_field(2, 2)
    with pytest.raises(WrongCharacteristic):
        cubic_norm_pp(F, 1)
    with pytest.raises(WrongCharacteristic):
        quintic_norm_pp(F, 1, 1)


def test_predict_gamma_hypotheses():
    T = build_tower(build_field(3, 1))
    v = predict("3.6", T, 0, 0)
    assert not v.predicted and "hypothesis-violated" in v.notes
    v = predict("3.6", T, 0, 4)  # gamma outside F_q*
    assert not v.predicted and "hypothesis-violated" in v.notes
    with pytest.raises(MissingParam):
        predict("3.13", T, 0, 1)
    v = predict("3.13", build_tower(build_field(3, 2)), 0, 1, i=5)
    assert not v.predicted and "hypothesis-violated" in v.notes


def test_313_without_i_raises_at_every_gamma():
    # the missing i is found with the theorem check, before the gamma hypothesis
    T = build_tower(build_field(3, 2))
    for gamma in (0, 1, 10):
        with pytest.raises(MissingParam, match="requires parameter i"):
            predict("3.13", T, 0, gamma)


def test_predict_known_values_36():
    # q = 9: the (Tr delta, gamma) = (2, 1) and (1, 1) instances are case (i)
    T = build_tower(build_field(3, 2))
    for tr, g in [(2, 1), (1, 1)]:
        delta = next(d for d in range(81) if T.trace(d) == tr)
        v = predict("3.6", T, delta, g)
        assert v.predicted and v.matched_case == "3.6(i)"
    # q = 13: the seven listed (a, gamma) pairs are case (ii)
    T = build_tower(build_field(13, 1))
    for a, g in [(0, 6), (1, 11), (12, 11), (2, 4), (11, 4), (5, 6), (8, 6)]:
        delta = next(d for d in range(169) if T.trace(d) == (2 * a) % 13)
        v = predict("3.6", T, delta, g)
        assert v.predicted and v.matched_case == "3.6(ii)"


def test_predict_against_oracle_sample():
    T = build_tower(build_field(7, 1))
    for tid in ("3.2", "3.8", "3.10"):
        for delta in (0, 11, 30):
            gammas = range(1, 7)
            for g in gammas:
                spec = family_for_theorem(tid, delta, g)
                truth = is_bijection(
                    lambda x: eval_family(spec, T, x).enc, 49
                ).is_permutation
                assert predict(tid, T, delta, g).predicted == truth


def test_predict_313_counterexample():
    # q = 27, i = 2: the z-part kernel is nontrivial for every delta
    T = build_tower(build_field(3, 3))
    delta = next(d for d in range(T.order) if T.trace(d) != 0)
    assert not predict("3.13", T, delta, 1, i=2).predicted
    assert predict("3.13", T, delta, 1, i=1).predicted


def test_predict_319_characteristic_guard():
    T_odd = build_tower(build_field(3, 1))
    with pytest.raises(WrongCharacteristic):
        predict("3.19", T_odd, 0, 1)
    T = build_tower(build_field(2, 2))
    # gamma in F_q*, Tr delta = 0: f = x^{2(q+1)} + ... + gamma x, case (i)
    assert predict("3.19", T, 0, 1).matched_case == "3.19(i)"


def test_predict_41():
    F = build_field(2, 2)
    v = predict("4.1", F, 0, 0, d=1)
    assert v.predicted  # gamma = 0 gives the identity
    with pytest.raises(MissingParam):
        predict("4.1", F, 0, 1)
    with pytest.raises(InvalidParam):
        predict("4.1", F, 0, 1, d=2)
    v = predict("4.1", build_field(2, 1), 0, 1, d=1)
    assert not v.predicted and "hypothesis-violated" in v.notes


def test_subfield_elements():
    for p, m, sub in [(2, 4, 4), (2, 4, 2), (2, 6, 8), (2, 6, 64), (3, 4, 9), (5, 2, 5)]:
        F = build_field(p, m)
        S = subfield_elements(F, sub)
        assert len(S) == sub and 0 in S and 1 in S
        assert S == [x for x in range(F.q) if F.pow(x, sub) == x]  # the brute-force scan


F9 = build_field(3, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: subfield_elements(F9, 5),
        lambda: h_permutes_subfield(F9, 5, [0, 0, 0, 0]),
        lambda: eval_family(FamilySpec(kind="trace_composed", n=0, g_coeffs=(1, 4)), F9, 1),
        lambda: reduce_trace_composed((1, 4), F9, 0),
        lambda: eval_family(FamilySpec(kind="trace_form", d=-1, gamma=1), build_field(2, 2), 1),
        lambda: eval_family(FamilySpec(kind="trace_form", d=0, gamma=1), build_field(2, 2), 1),
        lambda: eval_family(FamilySpec(kind="trace_composed", n=3, g_coeffs=(1, 4)), F9, 1),
        lambda: reduce_trace_composed((1, 4), F9, 3),
    ],
    ids=["elements-of-order-5", "h-of-order-5", "eval-index-0", "reduce-index-0",
         "trace-form-d-minus-1", "trace-form-d-0", "eval-index-not-dividing", "reduce-index-not-dividing"],
)
def test_subfield_faults_raise_invalid_subfield(call):
    with pytest.raises(InvalidSubfield) as exc:
        call()
    assert isinstance(exc.value, ValueError)


def test_reduce_trace_composed_and_h():
    F = build_field(3, 2)
    g = (4, 7)
    h = reduce_trace_composed(g, F, 2)
    for idx, a in enumerate(g):
        assert h[idx] == F.add(a, F.pow(a, 3))
    spec = FamilySpec(kind="trace_composed", n=2, g_coeffs=g)
    f_pp = is_bijection(lambda x: eval_family(spec, F, x).enc, 9).is_permutation
    assert f_pp == h_permutes_subfield(F, 3, h)
    with pytest.raises(ValueError):
        reduce_trace_composed((1,), F, 2)


def test_h_permutes_subfield_refuses_an_h_that_leaves_it():
    F = build_field(3, 2)
    assert h_permutes_subfield(F, 3, (0, 0))  # x
    assert not h_permutes_subfield(F, 3, (0, 2))  # x + 2x^3 = 0 on F_3
    # x + 3x, injective on F_9, maps {0, 1, 2} to {0, 4, 8}: not a map of F_3
    with pytest.raises(ImageOutOfDomain, match=r"^h\(1\) = 4 outside F_3$"):
        h_permutes_subfield(F, 3, (3, 0))


def test_t319_subfield_h_diagram():
    T = build_tower(build_field(2, 3))
    B = T.base
    for delta in (0, 5, 37, 60):
        for c in (1, 3, 7):
            h0, h1, h2 = t319_subfield_h(T, delta, c)
            spec = family_for_theorem("3.19", delta, c)
            for x in range(T.order):
                t = T.trace(x)
                want = B.add(B.add(B.mul(h2, B.mul(t, t)), B.mul(h1, t)), h0)
                assert T.trace(eval_family(spec, T, x).enc) == want
    with pytest.raises(WrongCharacteristic):
        t319_subfield_h(build_tower(build_field(3, 1)), 0, 1)
    with pytest.raises(GammaNotInSubfield):
        t319_subfield_h(T, 0, 9)
