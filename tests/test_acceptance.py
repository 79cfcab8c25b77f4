"""End-to-end acceptance checks.

Each test exercises one acceptance criterion exhaustively (or with the
stated random sample sizes) and prints a single PASS/FAIL line so the
results are visible in the terminal run log.
"""

import itertools
import random
import sys

import pytest

from ppkit.criteria import (
    h_permutes_subfield,
    predict,
    quintic_norm_pp,
    cubic_norm_pp,
    reduce_trace_composed,
)
from ppkit.decompose import (
    DecompositionConfig,
    _basis_matrix,
    lemma31_extract,
    mat_inv,
    verify_equivalence,
)
from ppkit.directions import check_complementarity
from ppkit.errors import DependentBasis, SingularMatrix
from ppkit.families import (
    THEOREMS,
    FamilySpec,
    closed_form_components,
    eval_family,
    family_for_theorem,
    reduce_poly_coeffs,
)
from ppkit.gf import build_field
from ppkit.oracle import is_bijection
from ppkit.sweep import disagreements, sweep_theorem
from ppkit.tower import build_tower, proof_substitution, valid_us


def report(criterion: str, ok: bool):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    print(line, flush=True)
    assert ok, line


SWEEP_MATRIX = (
    [(tid, p, m) for tid in ("3.1", "3.2", "3.3", "3.4", "3.5")
     for p, m in [(3, 1), (5, 1), (7, 1), (3, 2)]]
    + [(tid, p, m) for tid in ("3.6", "3.7", "3.8", "3.9", "3.10", "3.11", "3.12")
       for p, m in [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]]
    + [(tid, p, m) for tid in ("3.13", "3.14", "3.15", "3.16", "3.17", "3.18")
       for p, m in [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3)]
       if not (tid == "3.13" and m == 1)]  # no i lies in [1, m) when m = 1
)


def test_criterion_1_exhaustive_sweeps():
    configs = [(tid, p, m, {}) for tid, p, m in SWEEP_MATRIX]
    # every odd theorem at every other admissible u for q <= 9 as well: the
    # statements read only Tr and N, but the closed forms and tables use u
    configs += [
        (tid, p, m, {"u": u})
        for tid, info in THEOREMS.items() if info.char == "odd"
        for p, m in [(3, 1), (5, 1), (7, 1), (3, 2)]
        if not (tid == "3.13" and m == 1)
        for u in valid_us(build_field(p, m))[1:]
    ]
    for p, m in [(2, 1), (2, 2), (2, 3)]:
        configs += [("3.19", p, m, {"u": u}) for u in valid_us(build_field(p, m))]
    configs += [("4.1", 2, m, {"d": d}) for m in (2, 3) for d in (1, 3)]
    bad, empty = [], []
    for tid, p, m, kw in configs:
        recs = sweep_theorem(tid, p, m, **kw)
        if not recs:  # a configuration without records would pass vacuously
            empty.append((tid, p, m, kw))
        bad.extend(disagreements(recs))
    report("criterion 1 (exhaustive sweeps, prediction == oracle)", not bad and not empty)


def test_criterion_2_reference_value_tables():
    ok = True
    # 3.6, q = 9: Tr(delta) in {2a : a = +-1} = {2, 1}, gamma = 1
    T9 = build_tower(build_field(3, 2))
    expected_q9 = {(2, 1), (1, 1)}
    for tr, g in expected_q9:
        delta = next(d for d in range(81) if T9.trace(d) == tr)
        v = predict("3.6", T9, delta, g)
        ok &= v.predicted and v.matched_case == "3.6(i)"
    # 3.6, q = 13: the seven (a, gamma) pairs
    T13 = build_tower(build_field(13, 1))
    for a, g in [(0, 6), (1, 11), (12, 11), (2, 4), (11, 4), (5, 6), (8, 6)]:
        delta = next(d for d in range(169) if T13.trace(d) == (2 * a) % 13)
        v = predict("3.6", T13, delta, g)
        ok &= v.predicted and v.matched_case == "3.6(ii)"
        spec = family_for_theorem("3.6", delta, g)
        ok &= is_bijection(lambda x: eval_family(spec, T13, x).enc, 169).is_permutation
    # 3.12, q = 9: the twelve admissible (Tr delta, gamma) pairs; c + d*i
    # encodes as c + 3d in the canonical F_9 = F_3[x]/(x^2 + 1)
    twelve = {
        (1, 1), (4, 8), (6, 6), (7, 5), (2, 2), (8, 4),
        (3, 3), (5, 7), (4, 4), (7, 7), (8, 8), (5, 5),
    }
    for tr, g in twelve:
        delta = next(d for d in range(81) if T9.trace(d) == tr)
        ok &= predict("3.12", T9, delta, g).predicted
        spec = family_for_theorem("3.12", delta, g)
        ok &= is_bijection(lambda x: eval_family(spec, T9, x).enc, 81).is_permutation
    report("criterion 2 (reference value tables)", ok)


def test_criterion_3_closed_forms_match_extraction():
    closed_tids = [t for t in THEOREMS.values() if t.has_closed_form]
    ok = True
    rng = random.Random(3)
    for info in closed_tids:
        if info.char == "odd":
            fields = [(3, 2), (5, 1)] if info.needs_i else [(3, 1), (5, 1)]
        else:
            fields = [(2, 1), (2, 2)]
        for idx, (p, m) in enumerate(fields):
            T = build_tower(build_field(p, m))
            ivals = list(range(1, m)) if info.needs_i else [None]
            if not ivals:
                continue
            gammas = (
                range(1, T.q) if info.gamma_domain == "Fq_star" else range(1, T.order)
            )
            pts = list(itertools.product(range(T.order), gammas, ivals))
            # full grid at the smallest field, a sample at the next one
            if idx:
                pts = rng.sample(pts, min(10, len(pts)))
            for delta, gamma, i in pts:
                spec = family_for_theorem(info.tid, delta, gamma, i=i)
                ext = lemma31_extract(spec, T)
                clo = closed_form_components(
                    info.tid, T, T.elem(delta), T.elem(gamma), i=i
                )
                ok &= clo.same_values(ext)
    report("criterion 3 (closed-form components == extraction)", ok)


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
        F, basis(), basis(), inv_mat(), inv_mat(),
        tuple(rng.randrange(p) for _ in range(n)),
        tuple(rng.randrange(p) for _ in range(n)),
        rng.randrange(F.q),
    )


def test_criterion_4_multivariate_equivalence():
    rng = random.Random(4)
    ok = True
    for p, n in [(3, 2), (5, 2), (3, 3), (2, 4)]:
        F = build_field(p, n)
        for _ in range(25):
            table = [rng.randrange(F.q) for _ in range(F.q)]
            cfg = _random_config(F, rng)
            ok &= verify_equivalence(lambda x: table[x], cfg)[2]
    report("criterion 4 (univariate <-> multivariate equivalence, 100 trials)", ok)


def test_criterion_5_trace_composed_reduction():
    rng = random.Random(5)
    ok = True
    for p, m in [(3, 2), (2, 2)]:
        F = build_field(p, m)
        q = p
        cases = [tuple([0] * (q - 1))]
        for _ in range(100):
            raw = {
                e: rng.randrange(F.q)
                for e in rng.sample(range(1, 3 * q), min(3, q))
            }
            cases.append(tuple(reduce_poly_coeffs(raw, F, q)))
        for g in cases:
            spec = FamilySpec(kind="trace_composed", n=2, g_coeffs=g)
            f_pp = is_bijection(
                lambda x: eval_family(spec, F, x).enc, F.q
            ).is_permutation
            h = reduce_trace_composed(g, F, 2)
            ok &= f_pp == h_permutes_subfield(F, q, h)
    report("criterion 5 (trace-composed reduction, 200 random + zero g)", ok)


def test_criterion_6_normalized_form_predicates():
    ok = True
    for p, m in [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]:
        F = build_field(p, m)
        for c in range(F.q):
            truth = is_bijection(
                lambda x: F.sub(F.pow(x, 3), F.mul(c, x)), F.q
            ).is_permutation
            ok &= cubic_norm_pp(F, c) == truth
        for A in range(F.q):
            for B in range(F.q):
                truth = is_bijection(
                    lambda x: F.add(
                        F.pow(x, 5), F.add(F.mul(A, F.pow(x, 3)), F.mul(B, x))
                    ),
                    F.q,
                ).is_permutation
                ok &= quintic_norm_pp(F, A, B) == truth
    report("criterion 6 (cubic/quintic predicates == brute force)", ok)


def test_criterion_7_direction_complementarity():
    rng = random.Random(7)
    ok = True
    F8 = build_field(2, 3)
    for _ in range(50):
        table = [rng.randrange(8) for _ in range(8)]
        rep = check_complementarity(lambda x: table[x], F8)
        ok &= rep.complementary and rep.sizes_sum_to_field
    for p, m in [(3, 1), (5, 1)]:
        T = build_tower(build_field(p, m))
        for delta in range(T.order):
            spec = family_for_theorem("3.2", delta, 0)
            rep = check_complementarity(
                lambda e: eval_family(spec, T, e).enc, T
            )
            ok &= rep.complementary and rep.sizes_sum_to_field
    report("criterion 7 (direction/permuting-slope duality)", ok)


def test_criterion_8_substitution_identities():
    ok = True
    for p, m in [(3, 1), (5, 1), (7, 1), (3, 2), (2, 1), (2, 2), (2, 3)]:
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
                        ok &= got == T.from_coords(a, z)
                    else:
                        got = T.add(T.add(T.frob(x.enc), x.enc), delta)
                        ok &= got == T.from_coords(z, b)
    report("criterion 8 (substitution identities for all delta, y, z)", ok)
