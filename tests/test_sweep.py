import csv
import hashlib
import io
import itertools
import json
import random

import numpy as np
import pytest

from ppkit import criteria, families, gf, sweep
from ppkit.cli import main
from ppkit.criteria import predict
from ppkit.errors import (
    InvalidParam,
    MissingParam,
    PPKitError,
    UnknownTheorem,
    WrongCharacteristic,
)
from ppkit.families import (
    THEOREMS,
    TheoremInfo,
    eval_family,
    family_for_theorem,
    theorem_context,
    theorem_info,
)
from ppkit.gf import build_field
from ppkit.oracle import is_bijection
from ppkit.sweep import (
    SweepRecord,
    check_single,
    disagreements,
    summarize,
    sweep_theorem,
    write_records,
)
from ppkit.tower import TowerCtx, build_tower, valid_us


def test_sweep_order_and_domain():
    recs = sweep_theorem("3.2", 3, 1)
    # all deltas in F_9, gamma over F_{q^2}* for this family
    assert len(recs) == 9 * 8
    keys = [(r.delta, r.gamma) for r in recs]
    assert keys == sorted(keys)
    assert disagreements(recs) == []


def test_sweep_fq_star_domain():
    recs = sweep_theorem("3.14", 5, 1)
    assert len(recs) == 25 * 4
    assert all(1 <= r.gamma < 5 for r in recs)


def test_probe_includes_whole_field():
    recs = sweep_theorem("3.14", 3, 1, probe_hypotheses=True)
    assert len(recs) == 9 * 9
    noted = [r for r in recs if r.note]
    assert noted and all(not r.predicted for r in noted)
    # probe records never count as disagreements
    assert disagreements(recs) == []


def test_sweep_i_values():
    recs = sweep_theorem("3.13", 3, 2)
    assert {r.i for r in recs} == {1}
    assert sweep_theorem("3.13", 3, 1) == []  # no valid i when m = 1


def test_sweep_trace_form_requires_d():
    with pytest.raises(MissingParam):
        sweep_theorem("4.1", 2, 2)
    recs = sweep_theorem("4.1", 2, 2, d=1)
    assert len(recs) == 4  # gamma over all of F_4
    assert disagreements(recs) == []


def test_summarize():
    recs = sweep_theorem("3.14", 3, 1)
    s = summarize(recs)
    assert s["records"] == 18 and s["disagreements"] == 0
    assert s["predicted_true"] == s["oracle_true"]
    recs += [
        recs[5]._replace(agree=False, note=None),
        recs[6]._replace(agree=False, note=f"{criteria.HYPOTHESIS_VIOLATED}: gamma = 0"),
    ]
    assert len(disagreements(recs)) == 1
    assert summarize(recs) == {
        "records": 20,
        "disagreements": 1,
        "predicted_true": sum(r.predicted for r in recs),
        "oracle_true": sum(r.oracle for r in recs),
    }


def test_write_jsonl_and_csv():
    recs = sweep_theorem("3.14", 3, 1)[:4]
    buf = io.StringIO()
    write_records(recs, buf, "jsonl")
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == 4
    row = json.loads(lines[0])
    assert row["tid"] == "3.14" and row["agree"] is True
    buf = io.StringIO()
    write_records(recs, buf, "csv")
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert len(rows) == 4 and rows[0]["tid"] == "3.14"
    with pytest.raises(ValueError):
        write_records(recs, io.StringIO(), "xml")


def test_write_to_path(tmp_path):
    recs = sweep_theorem("3.14", 3, 1)[:2]
    out = tmp_path / "recs.jsonl"
    write_records(recs, str(out), "jsonl")
    assert len(out.read_text().strip().split("\n")) == 2


def test_check_single():
    rec = check_single("3.14", 3, 1, delta=0, gamma=1)
    assert isinstance(rec, SweepRecord)
    assert rec.predicted and rec.oracle and rec.agree
    rec = check_single("4.1", 2, 2, delta=0, gamma=3, d=1)
    assert rec.agree



RECORD_FIELDS = (
    "tid", "p", "m", "u", "i", "d", "delta", "gamma",
    "predicted", "matched_case", "oracle", "agree", "note",
)


def test_record_fields_and_immutability():
    rec = check_single("3.14", 3, 1, delta=0, gamma=0)  # a probe record, with a note
    assert rec.note
    assert SweepRecord._fields == RECORD_FIELDS
    assert tuple(rec.serialize()) == RECORD_FIELDS
    assert SweepRecord(**rec.serialize()) == rec
    assert rec == tuple(rec.serialize().values())
    assert SweepRecord(*rec[:-1]).note is None
    with pytest.raises(AttributeError):
        rec.agree = False


# sha256 of `ppkit check` stdout, as printed when a record was a frozen dataclass
CHECK_STDOUT = {
    "odd-tower": ("--p 5 --m 2 --theorem 3.6 --delta 10 --gamma 7",
                  "2042a8a5f4099e324f2b018630be361c87a4e7cd6db5f57bbdfd11604cc1e52e"),
    "odd-tower-probe": ("--p 3 --m 1 --theorem 3.14 --delta 0 --gamma 0",
                        "adf8377a536a259361ae63771f8618c1e896bd14b866750000f94be1f6bc6264"),
    "even-tower": ("--p 2 --m 3 --theorem 3.19 --u 3 --delta 5 --gamma 9",
                   "602953b83a02e078b43ea416dc17169258c65c0b6d86bf75b61297846dfc48d6"),
    "4.1-flat": ("--p 2 --m 2 --theorem 4.1 --d 3 --gamma 5",
                 "abb5fa50a04aa93c89dea31135faa4909a927fdb27169fb2b55ebabbdd631a67"),
}


@pytest.mark.parametrize("argv,want", CHECK_STDOUT.values(), ids=list(CHECK_STDOUT))
def test_check_stdout_is_pinned(capsys, argv, want):
    assert main(["check", *argv.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want

@pytest.mark.parametrize(
    "args, kw",
    [
        (("3.6", 3, 2), {}),
        (("3.1", 3, 2), {}),
        (("3.13", 3, 2), {"i": 1}),
        (("4.1", 2, 3), {"d": 1}),
    ]
    + [(("3.19", 2, 2), {"u": u}) for u in valid_us(build_field(2, 2))],
    ids=lambda v: "-".join(map(str, v.values() if isinstance(v, dict) else v)),
)
def test_check_equals_sweep_record(args, kw):
    recs = sweep_theorem(*args, probe_hypotheses=True, **kw)
    rng = random.Random(11)
    for rec in rng.sample(recs, min(len(recs), 40)):
        assert check_single(*args, delta=rec.delta, gamma=rec.gamma, **kw) == rec


@pytest.mark.parametrize(
    "args, kw", [(("3.6", 3, 2), {"probe_hypotheses": True}), (("3.19", 2, 3), {})],
    ids=["3.6-F9-probe", "3.19-F8"],
)
def test_records_do_not_depend_on_the_gamma_block(monkeypatch, args, kw):
    want = sweep_theorem(*args, **kw)
    # 1 image: one gamma a block.  1000 images: 15 gammas a block over
    # F_64 and 12 over F_81, so the last block of the 63 or 81 gammas is short
    for images in (1, 1000):
        monkeypatch.setattr(gf, "_LINE_BLOCK", images)
        assert sweep_theorem(*args, **kw) == want, images


# (tid, delta, gamma) per field: beyond the q <= 64 of dense q^2 x q^2 tables,
# each field has two permuting points, and F_125 reaches the q = 0 mod 5 cases;
# F_25 holds 3.6(v)(a), the one stated case that no criterion-1 sweep matches
CHECK_POINTS = {
    (67, 1): [("3.6", 2816, 46), ("3.12", 356, 40), ("3.14", 2092, 46)],
    (3, 4): [("3.14", 1100, 73), ("3.8", 1377, 35), ("3.6", 5102, 33)],
    (5, 3): [("3.6", 501, 3), ("3.16", 2201, 73), ("3.10", 12153, 46)],
    (5, 2): [("3.6", 10, 1), ("3.6", 10, 7)],
}


@pytest.mark.parametrize("p,m", list(CHECK_POINTS), ids=["67", "81", "125", "25"])
def test_check_single_beyond_q64(p, m):
    tower = build_tower(build_field(p, m))
    for tid, delta, gamma in CHECK_POINTS[p, m]:
        # the check builds the shared base field's tables, which speed up the
        # scalar path below; that path never reads the tower's own tables
        got = check_single(tid, p, m, delta, gamma)
        spec = family_for_theorem(tid, delta, gamma)
        oracle = is_bijection(lambda x: eval_family(spec, tower, x).enc, tower.order)
        v = predict(tid, tower, delta, gamma)
        want = SweepRecord(
            tid, p, m, tower.u, None, None, delta, gamma, v.predicted,
            v.matched_case, oracle.is_permutation, v.predicted == oracle.is_permutation,
            v.notes,
        )
        assert got == want


def test_check_single_builds_the_tower_once(monkeypatch):
    made = []
    init = TowerCtx.__init__
    monkeypatch.setattr(TowerCtx, "__init__", lambda self, *a: made.append(a) or init(self, *a))
    check_single("3.6", 5, 2, delta=3, gamma=2)
    tower = build_tower(build_field(5, 2))
    tables = tower._tables
    powers = []
    pow_vec = TowerCtx.pow_vec
    monkeypatch.setattr(TowerCtx, "pow_vec", lambda self, *a: powers.append(a) or pow_vec(self, *a))
    check_single("3.6", 5, 2, delta=7, gamma=1)
    # at most one tower (none if an earlier test made it), its tables once, and
    # x^q - x, L(x) and h(y) once: the second check takes no power of the tower
    assert len(made) <= 1
    assert tables is not None and tower._tables is tables
    assert powers == []


def _same_as_on_fresh_towers(T, queries):
    """check_on at each (tid, i, delta, gamma) on the one tower T, each record
    equal to the one on a fresh tower, which keeps nothing from the others."""
    for tid, i, delta, gamma in queries:
        assert sweep.check_on(T, tid, delta, gamma, i) == sweep.check_on(TowerCtx(T.base, T.u), tid, delta, gamma, i)


def test_kept_family_vectors_are_keyed_by_linear_part_and_terms():
    # L = x (3.2) and L = x^q + x (3.14), and 3.13 at two i, interleaved on
    # one tower: a store keyed too coarsely hands one query another's vectors
    rng = random.Random(28)
    T = build_tower(build_field(3, 2))
    T = TowerCtx(T.base, T.u)
    theorems = [("3.2", None), ("3.14", None), ("3.13", 1), ("3.2", None), ("3.13", 0), ("3.14", None)]
    _same_as_on_fresh_towers(T, [(tid, i, rng.randrange(T.order), rng.randrange(1, T.q)) for tid, i in theorems * 3])
    # the even tower: 3.19, with x^q + x as the core, between family images of
    # its L = x^q + x variant, which no theorem registers
    E = build_tower(build_field(2, 3))
    E = TowerCtx(E.base, E.u)
    for delta in rng.sample(range(E.order), 4):
        _same_as_on_fresh_towers(E, [("3.19", None, delta, rng.randrange(1, E.order))])
        spec = families.FamilySpec("even_delta_power", ((2, 1),), delta, 3, linear_kind="xq_plus_x")
        want = [eval_family(spec, E, x).enc for x in range(E.order)]
        assert families.family_images(spec, E).tolist() == want


@pytest.mark.parametrize("p, m, tid", [(2, 3, "3.19"), (3, 2, "3.6")], ids=["F8", "F9"])
def test_an_even_tower_keeps_x_q_plus_x_once(p, m, tid):
    # -x = x on an even tower, so x^q -+ x is x^q + x: one kept array there,
    # two on an odd tower; 3.19's records stay those PINNED below
    T = build_tower(build_field(p, m))
    T = TowerCtx(T.base, T.u)  # an empty store
    list(families.delta_power_rows(family_for_theorem(tid, 0, 0), T, (0,)))
    _, core0, xq_plus_x = T._kept["family"]
    assert (core0 is xq_plus_x) == (p == 2)
    assert core0.tolist() == [T.sub(T.frob(x), x) for x in range(T.order)]
    assert xq_plus_x.tolist() == [T.add(T.frob(x), x) for x in range(T.order)]


def test_kept_arrays_refuse_writes_and_hold_at_most_the_order(capsys):
    # a sweep, a check, a decompose and a directions query; no order^2 block,
    # as line_products' or permuting_translate_set's, is kept
    sweep_theorem("3.14", 3, 1)
    check_single("3.19", 2, 2, delta=5, gamma=3)
    for argv in ["decompose --p 3 --m 2 --theorem 3.6 --delta 5 --gamma 2",
                 "directions --p 5 --m 1 --theorem 3.14 --delta 7"]:
        assert main(argv.split()) == 0
    capsys.readouterr()
    for p, m in [(3, 1), (2, 2), (3, 2), (5, 1)]:
        tower = build_tower(build_field(p, m))
        assert tower._kept
        for ctx in (tower, tower.base):
            for arrays in ctx._kept.values():
                for a in arrays:
                    if isinstance(a, np.ndarray):
                        assert a.size <= ctx.order
                        with pytest.raises(ValueError):
                            a.fill(0)


def test_wrong_parity_is_a_wrong_characteristic():
    with pytest.raises(WrongCharacteristic):
        sweep_theorem("3.6", 2, 1)
    with pytest.raises(WrongCharacteristic):
        sweep_theorem("3.19", 3, 1)


def test_disagreements_exempt_only_hypothesis_violations():
    rec = check_single("3.14", 3, 1, delta=0, gamma=1)
    folded = rec._replace(agree=False, note="permutes only after exponent folding")
    probe = rec._replace(agree=False, note="hypothesis-violated: gamma = 0")
    assert disagreements([rec, folded, probe]) == [folded]


# sha256 of the JSONL records, as written by the table engine before the
# log/antilog rewrite; any change to a record's bytes shows up here
PINNED = [
    (("3.6", 3, 2), {}, "2a117cb38c8bdeabfc32c4acd91a88fe07532b57d0e481b70025e298e3fdb717"),
    (("3.6", 5, 2), {}, "92768d79d9a11c9e6e6cfe47375623bc664f373e95b8297259c8c85d88d94d22"),
    (("3.15", 13, 1), {"probe_hypotheses": True},
     "48b5e4d280adbc9d8fefcf76f96311a0c02bdaa45fd0dc1beb5dd7c1d69ed0ea"),
    (("3.13", 3, 3), {}, "e87086973efc24539183d9b4f47320eed5ce5b740845c3c2549e53e64f469a16"),
    (("3.1", 3, 2), {}, "11e7a2d91dd7e950f17f55c20114a7719e2d524936c7246c1d1b870c635509c0"),
    (("3.19", 2, 3), {"u": 1}, "83ac2dea349865fbcb5acd6c68c171590fd37d6233d92bef4b5fc951fc315020"),
    (("3.19", 2, 3), {"u": 3}, "2e3114d2df32a9d690c4da59df76c915877c725d2531ade61f2e19190f8078f1"),
    (("3.19", 2, 3), {"u": 5}, "4dc1b8046f3bf821347b5597b6197d930f1f6f5dd757cf28ab97629e89df2e66"),
    (("3.19", 2, 3), {"u": 7}, "cd23f5041ec885684e8f12ce3e759e13da2040d2d37559a8e1bf0f9f505acee8"),
    (("4.1", 2, 3), {"d": 3}, "d7df446be7cb8d03b686dcb7785ea022bb447a91a44c097f7af81d0368b80893"),
    (("4.1", 2, 2), {"d": 1}, "192d7c576635b381c780c24c20671c36de4139fa47457d4655a652cc085c45a9"),
]


def test_records_are_pinned():
    assert [kw["u"] for args, kw, _ in PINNED if args[0] == "3.19"] == valid_us(
        build_field(2, 3)
    )
    for args, kw, want in PINNED:
        buf = io.StringIO()
        write_records(sweep_theorem(*args, **kw), buf, "jsonl")
        got = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert got == want, (args, kw)


# sha256 of the same sweeps' CSV records, as csv.DictWriter wrote them whole
PINNED_CSV = [
    "5e4559b1661b94460072c0c2b6f2cbfead4586b9f0881d80f050144ae4f15a4b",
    "a3a458b073e5d7949150f5cacc787a14b343fcf936818bc56f6102d99421ad64",
    "d86954bc56f407fa0f8b8ab41114f9e3bd1dbf659edd32eb29c150451105325c",
    "aa27ef67bbed3f1e8aa0d34d73b4048378a91edf2376d8034f09800aa6437fb7",
    "41bef5f5cea33da934f61d9a2e6124f9d159c9db90092d01a7cfc3f8eec79848",
    "a91567c4d2fe72d00435281103f48f3ae9d029a46279cf06d28860e489a2c6e8",
    "91311a8826fb7d578e7c23eb911a20ae85ff932ddc28e93e4c19ff094ec5b7c2",
    "feda591db8532d06230f3fac34750687b5243b6fef2d51d2108d5843700ef74f",
    "34d1f1d1c5110dc84fe715c30b2cf22951e846b08b01bdafd1be1e4998eeff6c",
    "d001a1462c82f6402700fa3d8b71b666f1037247ee63065af974f62feeaf0148",
    "2f2dd1c5a6a7e11f885b8aab05eef409cbd419bbe6d494b11790ac654b5a0b37",
]


def test_csv_records_are_pinned():
    assert len(PINNED_CSV) == len(PINNED)
    for (args, kw, _), want in zip(PINNED, PINNED_CSV):
        buf = io.StringIO()
        write_records(sweep_theorem(*args, **kw), buf, "csv")
        got = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert got == want, (args, kw)


def _reference_lines(records, fmt):
    """The records serialized whole, one json.dumps or DictWriter row each."""
    buf = io.StringIO()
    if fmt == "jsonl":
        for r in records:
            buf.write(json.dumps(r.serialize()) + "\n")
    else:
        writer = csv.DictWriter(buf, fieldnames=list(SweepRecord._fields))
        writer.writeheader()
        for r in records:
            writer.writerow(r.serialize())
    return buf.getvalue()


AWKWARD = "a, \"quoted\"\nsecond line"


def _made_up_records():
    """Every head with every verdict, five times over, in a seeded mixed order."""
    heads = [("3.6", 5, 2, 2, None, None), ("4.1", 2, 6, 0, None, 3), ("3.13", 3, 3, 2, 1, None)]
    verdicts = [
        (True, "case A", True, True, None),
        (False, AWKWARD, True, False, AWKWARD),
        (False, "", False, True, "hypothesis-violated: gamma = 0"),
        (True, "x\r\ny", False, False, ""),
    ]
    recs = [
        SweepRecord(*h, 7 * k, 10**6 + k, *v)
        for k, (h, v) in enumerate(itertools.product(heads, verdicts * 5))
    ]
    random.Random(12).shuffle(recs)
    return recs


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_write_records_equals_whole_record_serialization(fmt, tmp_path):
    recs = _made_up_records()
    want = _reference_lines(recs, fmt)
    buf = io.StringIO()
    write_records(recs, buf, fmt)
    assert buf.getvalue() == want
    out = tmp_path / f"recs.{fmt}"
    write_records(recs, str(out), fmt)
    with open(out, newline="") as f:
        assert f.read() == want
    buf = io.StringIO()
    write_records([], buf, fmt)
    assert buf.getvalue() == _reference_lines([], fmt)


def test_bad_format_leaves_the_file_alone(tmp_path):
    keep = tmp_path / "keep.txt"
    keep.write_bytes(b"earlier output\n")
    with pytest.raises(ValueError, match="xml"):
        write_records(sweep_theorem("3.14", 3, 1)[:2], str(keep), "xml")
    assert keep.read_bytes() == b"earlier output\n"


ODD_TIDS = [t for t, info in THEOREMS.items() if info.char == "odd"]

# every theorem over F_9 at its stated gammas, the probe domain over F_3 and
# F_5 (3.13 has no i in [1, m) there), and 3.19 over F_4 and F_8
CLASS_SWEEPS = (
    [((tid, 3, 2), {}) for tid in ODD_TIDS]
    + [((tid, p, 1), {"probe_hypotheses": True}) for p in (3, 5) for tid in ODD_TIDS
       if tid != "3.13"]
    + [(("3.19", 2, m), {}) for m in (2, 3)]
)


def test_verdicts_and_oracle_are_invariant_on_trace_classes():
    for args, kw in CLASS_SWEEPS:
        tid = args[0]
        info = theorem_info(tid)
        tower = theorem_context(*args)
        recs = sweep_theorem(*args, **kw)
        assert recs, (args, kw)
        oracle = {}
        for r in recs:
            # the predicate body at the record's own delta, not at its class's
            v = criteria._class_verdict(tid, info, tower, r.delta, r.gamma, r.i,
                                        criteria._Invariants(info, tower, r.i))
            assert (v.predicted, v.matched_case, v.notes) == (
                r.predicted, r.matched_case, r.note), (args, kw, r)
            key = (r.i, tower.trace(r.delta), r.gamma)
            assert oracle.setdefault(key, r.oracle) == r.oracle, (args, kw, r)


@pytest.fixture
def computed(monkeypatch):
    """Every (delta, gamma) at which predict computes a verdict, in call order."""
    calls = []
    body = criteria._class_verdict

    def counted(tid, info, tower, delta, gamma, i, inv):
        calls.append((delta, gamma))
        return body(tid, info, tower, delta, gamma, i, inv)

    monkeypatch.setattr(criteria, "_class_verdict", counted)
    return calls


@pytest.mark.parametrize("args, classes, gammas", [(("3.6", 3, 2), 9, 8), (("3.19", 2, 2), 4, 15)])
def test_a_sweep_computes_one_verdict_per_class_and_gamma(computed, args, classes, gammas):
    first = sweep_theorem(*args)
    assert len(computed) == classes * gammas < len(first)
    computed.clear()
    assert sweep_theorem(*args) == first
    assert len(computed) == classes * gammas  # nothing carried over from the first sweep


def test_a_failed_sweep_leaves_no_table(computed, monkeypatch):
    calls = []

    def failing(images, size):
        calls.append(size)
        if len(calls) == 30:
            raise RuntimeError("oracle down")
        return True

    monkeypatch.setattr(sweep, "images_permute", failing)
    with pytest.raises(RuntimeError, match="oracle down"):
        sweep_theorem("3.6", 3, 2)
    computed.clear()
    tower = theorem_context("3.6", 3, 2)
    predict("3.6", tower, 14, 1)
    assert computed == [(5, 1)]  # 14 = 5 + 1*alpha, whose class starts at 5


def test_predict_outside_a_sweep_computes_every_call(computed):
    tower = build_tower(build_field(3, 2))
    for _ in range(3):
        predict("3.6", tower, 10, 2)
    assert computed == [(1, 2)] * 3


def test_the_verdict_table_is_bound_to_its_theorem_field_i_and_d(computed):
    tower = theorem_context("3.6", 5, 1)
    q = tower.q
    points = [(delta, gamma) for delta in range(tower.order) for gamma in range(1, q)]
    lone = [predict("3.6", tower, *pt) for pt in points]
    computed.clear()
    bound = criteria._bind("3.6", tower, None, None)
    assert [predict("3.6", tower, *pt, _bound=bound) for pt in points] == lone
    # Tr(delta) = 2 * (delta mod q): one verdict per class, at its least delta
    assert sorted(computed) == [(rep, gamma) for rep in range(q) for gamma in range(1, q)]
    for delta, gamma in [(tower.order, 1), (0, tower.order), (-1, 1), (0, -1)]:
        assert _raised(lambda: predict("3.6", tower, delta, gamma, _bound=bound)) == _raised(
            lambda: predict("3.6", tower, delta, gamma))


def test_the_bound_path_checks_i_and_d_like_the_full_path():
    tower = theorem_context("3.13", 3, 2, i=1)
    field = theorem_context("4.1", 2, 3, d=1)
    bound = criteria._bind("3.13", tower, 2, None)  # i = 2 is out of [1, m): a probe
    assert predict("3.13", tower, 1, 1, i=2, _bound=bound) == predict("3.13", tower, 1, 1, i=2)
    bound = criteria._bind("4.1", field, None, 1)
    assert predict("4.1", field, 0, 3, d=1, _bound=bound) == criteria._predict_41(field, 3, 1)
    for delta, gamma in [(1, 3), (0, field.order)]:  # a nonzero delta, a gamma out of range
        assert _raised(lambda: predict("4.1", field, delta, gamma, d=1, _bound=bound)) == _raised(
            lambda: predict("4.1", field, delta, gamma, d=1))
    with pytest.raises(InvalidParam, match="has no delta"):
        predict("4.1", field, 1, 3, d=1, _bound=bound)


def test_a_predict_made_during_a_sweep_gets_its_lone_verdict(monkeypatch):
    want = sweep_theorem("3.6", 5, 1)
    tower = theorem_context("3.8", 5, 1)
    lone = predict("3.8", tower, 0, 1)
    assert lone == criteria.Verdict(True, "3.8(i)") != predict("3.6", tower, 0, 1)
    seen, body = [], sweep.images_permute

    def permutes(images, size):  # on the tower the 3.6 sweep runs on
        seen.append(predict("3.8", tower, 0, 1))
        return body(images, size)

    monkeypatch.setattr(sweep, "images_permute", permutes)
    assert sweep_theorem("3.6", 5, 1) == want
    assert len(seen) == len(want) and set(seen) == {lone}


def _raised(call) -> tuple:
    """The type and message of what call() raises."""
    with pytest.raises(PPKitError) as exc:
        call()
    return exc.type, str(exc.value)


def test_predict_raises_each_refusal_by_type():
    T9 = theorem_context("3.6", 3, 2)
    T8 = theorem_context("3.19", 2, 3)
    F8 = theorem_context("4.1", 2, 3, d=1)
    calls = [
        ("9.9", T9, 0, 1),  # an unknown tid
        ("3.6", T8, 0, 1), ("3.19", T9, 0, 1), ("4.1", T9, 0, 1, None, 1),  # a foreign field
        ("3.6", T9, T9.order, 1), ("3.6", T9, 0, T9.order), ("3.6", T9, -1, 1),  # out of range
        ("3.13", T9, 1, 1, -1),  # i < 0
        ("4.1", F8, 0, 1, None, 2),  # an even d
        ("4.1", F8, 1, 1, None, 1),  # a nonzero delta on 4.1
        ("3.13", T9, 1, 1),  # 3.13 without i
    ]
    raised = [_raised(lambda: predict(*c)) for c in calls]
    assert [kind for kind, _ in raised] == [
        UnknownTheorem, *[WrongCharacteristic] * 3, *[InvalidParam] * 6, MissingParam]


def test_the_theorem_check_runs_once_per_sweep(monkeypatch):
    calls = []
    check = TheoremInfo.check

    def counted(self, *args, **kw):
        calls.append(args)
        return check(self, *args, **kw)

    monkeypatch.setattr(TheoremInfo, "check", counted)
    per_sweep = []
    # 9 * 8 and 81 * 80 records of 3.2, which reads no closed form, and 9 * 2
    # and 81 * 8 of 3.6, which reads one per computed class verdict
    for tid, m in [("3.2", 1), ("3.2", 2), ("3.6", 1), ("3.6", 2)]:
        calls.clear()
        assert sweep_theorem(tid, 3, m)
        per_sweep.append(len(calls))
    assert per_sweep == [3, 3, 3, 3]  # the field, the family, the verdict table
    with pytest.raises(WrongCharacteristic):  # a foreign field is refused as the table is bound
        criteria._bind("3.6", build_field(3, 2), None, None)


@pytest.mark.parametrize("tid, p, m", [("3.6", 3, 2), ("3.6", 5, 2), ("3.13", 3, 3)],
                         ids=["3.6-F81", "3.6-F625", "3.13-F729"])
def test_a_sweep_tabulates_its_powers_once_per_i(monkeypatch, tid, p, m):
    calls = []
    body = TowerCtx.pow_vec
    monkeypatch.setattr(TowerCtx, "pow_vec", lambda self, vec, e: calls.append(e) or body(self, vec, e))
    records = sweep_theorem(tid, p, m)
    i_values = {r.i for r in records}
    assert len(records) == p ** (2 * m) * (p**m - 1) * len(i_values)  # order deltas per i
    # x^q, then y^s on the whole tower per term: none of them per delta
    assert len(calls) <= (len(theorem_info(tid).terms) + 1) * len(i_values)


@pytest.fixture
def products(monkeypatch):
    """The blocks of every line_products call, one list per call."""
    calls = []
    body = gf.ArithCtx.line_products

    def counted(self, lin, gammas):
        calls.append([])
        for blk in body(self, lin, gammas):
            calls[-1].append(blk)
            yield blk

    monkeypatch.setattr(gf.ArithCtx, "line_products", counted)
    return calls


def test_a_sweep_forms_gamma_times_lin_once_per_i(products):
    assert {r.i for r in sweep_theorem("3.13", 3, 3)} == {1, 2}
    assert len(products) == 2
    products.clear()
    assert sweep_theorem("3.6", 3, 2)
    assert len(products) == 1


@pytest.mark.parametrize("tid, p, m", [("3.6", 5, 2), ("3.14", 3, 4)], ids=["625", "6561"])
def test_the_kept_blocks_stay_within_a_block(products, tid, p, m):
    ctx = theorem_context(tid, p, m)
    gammas = range(1, ctx.q)
    _, rows = sweep._head_rows(ctx, tid, None, None, range(3), gammas)
    kept = [blocks for _, _, blocks in rows]
    assert kept[0] is kept[1] is kept[2] and len(products) == 1  # one list, made once
    assert sum(len(blk) for blk in kept[0]) == len(gammas)
    assert max(blk.size for blk in kept[0]) <= max(gf._LINE_BLOCK, ctx.order)


def test_the_trace_form_streams_its_one_row(products):
    field = theorem_context("4.1", 2, 3, d=3)
    _, [(_, _, blocks)] = sweep._head_rows(field, "4.1", None, 3, None, range(field.order))
    assert not isinstance(blocks, list)  # order^2 images, read by this row alone
    assert sum(len(blk) for blk in blocks) == field.order
    assert len(products) == 1


def _counting(monkeypatch, owner, name):
    """Patch owner.name to count its calls; returns the list of their args."""
    calls = []
    body = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or body(*args))
    return calls


def test_a_sweep_computes_its_invariants_once_per_class_or_gamma(monkeypatch):
    traces = _counting(monkeypatch, TowerCtx, "trace")
    norms = _counting(monkeypatch, TowerCtx, "norm")
    q = 9
    assert len(sweep_theorem("3.1", 3, 2)) == q**2 * (q**2 - 1)
    assert len(traces) <= q + q**2 - 1  # Tr of each class, and of each gamma
    assert len(norms) <= q**2 - 1  # N of each gamma
    # each closed_form_components call builds one, under whatever name it is imported
    closed = _counting(monkeypatch, families.ComponentTable, "__init__")
    cores = _counting(monkeypatch, criteria, "_z_core")
    q = 25
    assert len(sweep_theorem("3.6", 5, 2)) == q**2 * (q - 1)
    assert len(closed) <= q and len(cores) <= q  # one z-core per class


@pytest.mark.parametrize("tid, other, p, m", [("3.6", "3.8", 5, 2), ("3.1", "3.2", 3, 2)])
def test_the_invariants_stay_within_their_block(tid, other, p, m):
    # the z-core (3.6) and N(gamma) (3.1) depend on u: two towers per base field
    towers = [theorem_context(tid, p, m, u=u) for u in valid_us(build_field(p, m))[:2]]
    want = {}
    for tower in towers:  # swept back to back
        for r in sweep_theorem(tid, p, m, u=tower.u):
            if r.delta < tower.q:  # the least delta of its class
                assert check_single(tid, p, m, r.delta, r.gamma, u=tower.u) == r, r
                want[tower, r.delta, r.gamma] = criteria.Verdict(r.predicted, r.matched_case, r.note)
    t1, t2 = towers
    points = [(delta, gamma) for tower, delta, gamma in want if tower is t1]
    beside = [predict(other, t1, *pt) for pt in points]  # lone calls
    bound = criteria._bind(tid, t1, None, None)
    assert [predict(tid, t1, *pt, _bound=bound) for pt in points] == [want[(t1, *pt)] for pt in points]
    # t1's invariants are filled now; the other tower and theorem do not read them
    assert [predict(tid, t2, *pt) for pt in points] == [want[(t2, *pt)] for pt in points]
    assert [predict(other, t1, *pt) for pt in points] == beside


@pytest.mark.parametrize("p, m", [(3, 2), (5, 2), (3, 3)], ids=["F9", "F25", "F27"])
def test_the_hoisted_z_coefficients_are_the_closed_forms(p, m):
    tids = [tid for tid, info in THEOREMS.items()
            if info.gamma_domain == "Fq_star" and not info.needs_i]
    assert len(tids) == 12  # 3.6-3.12 and 3.14-3.18
    for tid in tids:
        info = theorem_info(tid)
        tower = theorem_context(tid, p, m)
        inv = criteria._Invariants(info, tower, None)
        for delta in range(tower.q):
            for gamma in range(1, tower.q):
                g2 = families.closed_form_components(
                    tid, tower, tower.elem(delta), tower.elem(gamma)).g2
                want = tuple(g2.get((0, k), 0) for k in (5, 3, 1))
                assert criteria._z_terms(info, tower, inv.z_core[delta], gamma) == want, (
                    tid, delta, gamma)
