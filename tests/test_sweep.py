import csv
import dataclasses
import hashlib
import io
import json
import random

import pytest

from ppkit.criteria import predict
from ppkit.errors import InvalidConfig, MissingParam
from ppkit.families import eval_family, family_for_theorem
from ppkit.gf import build_field
from ppkit.oracle import is_bijection
from ppkit.sweep import (
    SweepPlan,
    SweepRecord,
    check_single,
    disagreements,
    run_plan,
    summarize,
    sweep_theorem,
    write_records,
)
from ppkit.tower import build_tower, valid_us


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


def test_workers_preserve_output():
    seq = sweep_theorem("3.14", 3, 1)
    par = sweep_theorem("3.14", 3, 1, workers=3)
    assert seq == par


def test_summarize():
    recs = sweep_theorem("3.14", 3, 1)
    s = summarize(recs)
    assert s["records"] == 18 and s["disagreements"] == 0
    assert s["predicted_true"] == s["oracle_true"]


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


def test_plan_from_file_with_overrides(tmp_path):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({"tid": "3.14", "p": 3, "m": 1, "workers": 1}))
    plan = SweepPlan.from_file(str(plan_file))
    assert plan == SweepPlan(tid="3.14", p=3, m=1)
    plan = SweepPlan.from_file(str(plan_file), p=5)
    assert plan.p == 5 and plan.tid == "3.14"
    assert disagreements(run_plan(plan)) == []
    plan_file.write_text(json.dumps({"p": 3}))
    with pytest.raises(InvalidConfig):
        SweepPlan.from_file(str(plan_file), m=1)  # no tid from either side


def test_check_single():
    rec = check_single("3.14", 3, 1, delta=0, gamma=1)
    assert isinstance(rec, SweepRecord)
    assert rec.predicted and rec.oracle and rec.agree
    rec = check_single("4.1", 2, 2, delta=0, gamma=3, d=1)
    assert rec.agree


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


# (tid, delta, gamma) per field beyond the q <= 64 of dense q^2 x q^2 tables;
# each field has two permuting points, and F_125 reaches the q = 0 mod 5 cases
BEYOND_64 = {
    (67, 1): [("3.6", 2816, 46), ("3.12", 356, 40), ("3.14", 2092, 46)],
    (3, 4): [("3.14", 1100, 73), ("3.8", 1377, 35), ("3.6", 5102, 33)],
    (5, 3): [("3.6", 501, 3), ("3.16", 2201, 73), ("3.10", 12153, 46)],
}


@pytest.mark.parametrize("p,m", list(BEYOND_64), ids=["67", "81", "125"])
def test_check_single_beyond_q64(p, m):
    tower = build_tower(build_field(p, m))
    for tid, delta, gamma in BEYOND_64[p, m]:
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


def test_disagreements_exempt_only_hypothesis_violations():
    rec = check_single("3.14", 3, 1, delta=0, gamma=1)
    folded = dataclasses.replace(rec, agree=False, note="permutes only after exponent folding")
    probe = dataclasses.replace(rec, agree=False, note="hypothesis-violated: gamma = 0")
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
