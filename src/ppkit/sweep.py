"""Exhaustive parameter sweeps comparing predicted criteria with the oracle.

A sweep fixes a theorem family and a field, enumerates every (delta, gamma)
in scope, evaluates the family on the whole field with dense numpy tables,
and records whether the stated criterion and the brute-force permutation
check agree.  Records are emitted in deterministic (delta, gamma) order.
"""

from __future__ import annotations

import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import criteria
from .errors import InvalidConfig, MissingParam
from .families import instantiate_exponent, theorem_info
from .gf import FieldCtx, build_field
from .oracle import images_permute
from .tower import TowerCtx, build_tower


@dataclass(frozen=True)
class SweepRecord:
    tid: str
    p: int
    m: int
    u: int
    i: Optional[int]
    d: Optional[int]
    delta: int
    gamma: int
    predicted: bool
    matched_case: str
    oracle: bool
    agree: bool
    note: Optional[str] = None

    def serialize(self) -> dict:
        return {
            "tid": self.tid,
            "p": self.p,
            "m": self.m,
            "u": self.u,
            "i": self.i,
            "d": self.d,
            "delta": self.delta,
            "gamma": self.gamma,
            "predicted": self.predicted,
            "matched_case": self.matched_case,
            "oracle": self.oracle,
            "agree": self.agree,
            "note": self.note,
        }


@dataclass(frozen=True)
class SweepPlan:
    tid: str
    p: int
    m: int
    u: Optional[int] = None
    i: Optional[int] = None
    d: Optional[int] = None
    probe_hypotheses: bool = False
    workers: int = 1

    @classmethod
    def from_file(cls, path: str, **overrides) -> "SweepPlan":
        """Plan from a JSON object; overrides that are not None win over it."""
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidConfig(f"plan {path}: malformed JSON: {exc}") from None
        if not isinstance(data, dict):
            raise InvalidConfig(f"plan {path}: expected a JSON object")
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise InvalidConfig(f"plan {path}: unknown keys {unknown}")
        data.update((k, v) for k, v in overrides.items() if v is not None)
        try:
            return cls(**data)
        except TypeError as exc:
            raise InvalidConfig(f"plan {path}: {exc}") from None


def _gamma_range(info, tower: TowerCtx, probe: bool) -> range:
    if probe:
        return range(tower.order)
    if info.gamma_domain == "Fq_star":
        return range(1, tower.q)
    return range(1, tower.order)


def _sweep_tower_deltas(
    tid: str, tower: TowerCtx, deltas: range, i: Optional[int], probe: bool
) -> list[SweepRecord]:
    info = theorem_info(tid)
    ADD, MUL, NEG, _ = tower.tables()
    order = tower.order
    xs = np.arange(order, dtype=np.int32)
    xq = tower.pow_vec(xs, tower.q)
    core0 = ADD[xq, NEG[xs]] if tower.kind == "odd" else ADD[xq, xs]
    lin = xs if info.linear_kind == "x" else ADD[xq, xs]
    terms = info.terms
    if info.needs_i:
        terms = tuple(("ppow", i) if t[0] == "ppow" else t for t in terms)
    exps = [instantiate_exponent(t, tower.q, tower.base.p) for t in terms]
    gammas = _gamma_range(info, tower, probe)

    records = []
    for delta in deltas:
        core = ADD[core0, delta]
        acc = np.zeros(order, dtype=np.int32)
        for s in exps:
            acc = ADD[acc, tower.pow_vec(core, s)]
        for gamma in gammas:
            images = ADD[acc, MUL[gamma][lin]]
            pp = images_permute(images, order)
            v = criteria.predict(tid, tower, delta, gamma, i=i)
            records.append(
                SweepRecord(
                    tid,
                    tower.base.p,
                    tower.base.m,
                    tower.u,
                    i,
                    None,
                    delta,
                    gamma,
                    v.predicted,
                    v.matched_case,
                    pp,
                    v.predicted == pp,
                    v.notes,
                )
            )
    return records


def _sweep_trace_form(tid: str, field: FieldCtx, d: int) -> list[SweepRecord]:
    ADD, MUL, _, _ = field.tables()
    order = field.q
    q = field.p ** (field.m // d)
    xs = np.arange(order, dtype=np.int32)
    w = field.pow_vec(xs, q + 1)
    t = ADD[w, MUL[w, w]]  # x^{q+1} + x^{2q+2}
    tr = np.zeros(order, dtype=np.int32)
    for k in range(d):
        tr = ADD[tr, field.pow_vec(t, q**k)]
    records = []
    for gamma in range(order):
        images = ADD[xs, MUL[gamma][tr]]
        pp = images_permute(images, order)
        v = criteria.predict(tid, field, 0, gamma, d=d)
        records.append(
            SweepRecord(
                tid,
                field.p,
                field.m,
                0,
                None,
                d,
                0,
                gamma,
                v.predicted,
                v.matched_case,
                pp,
                v.predicted == pp,
                v.notes,
            )
        )
    return records


def _worker(args) -> list[SweepRecord]:
    tid, p, m, u, lo, hi, i, probe = args
    tower = build_tower(build_field(p, m), u=u)
    return _sweep_tower_deltas(tid, tower, range(lo, hi), i, probe)


def sweep_theorem(
    tid: str,
    p: int,
    m: int,
    u: Optional[int] = None,
    i: Optional[int] = None,
    d: Optional[int] = None,
    probe_hypotheses: bool = False,
    workers: int = 1,
) -> list[SweepRecord]:
    """All records for one theorem over F_{p^m}, sorted by (delta, gamma)."""
    info = theorem_info(tid)

    if info.kind == "trace_form":
        if d is None:
            raise MissingParam(f"theorem {tid} requires d")
        field = build_field(p, m * d)
        return _sweep_trace_form(tid, field, d)

    base = build_field(p, m)
    tower = build_tower(base, u=u)
    if (tower.kind == "odd") != (info.char == "odd"):
        raise MissingParam(f"theorem {tid} needs characteristic parity {info.char}")

    i_values: list[Optional[int]]
    if info.needs_i:
        i_values = [i] if i is not None else list(range(1, m))
    else:
        i_values = [None]

    records: list[SweepRecord] = []
    for iv in i_values:
        if workers > 1:
            bounds = np.linspace(0, tower.order, workers + 1, dtype=int)
            jobs = [
                (tid, p, m, tower.u, int(lo), int(hi), iv, probe_hypotheses)
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for chunk in pool.map(_worker, jobs):
                    records.extend(chunk)
        else:
            records.extend(
                _sweep_tower_deltas(
                    tid, tower, range(tower.order), iv, probe_hypotheses
                )
            )
    records.sort(key=lambda r: (r.i if r.i is not None else 0, r.delta, r.gamma))
    return records


def run_plan(plan: SweepPlan) -> list[SweepRecord]:
    return sweep_theorem(
        plan.tid,
        plan.p,
        plan.m,
        u=plan.u,
        i=plan.i,
        d=plan.d,
        probe_hypotheses=plan.probe_hypotheses,
        workers=plan.workers,
    )


def disagreements(records: list[SweepRecord]) -> list[SweepRecord]:
    """Records where prediction and oracle differ, hypothesis probes excluded."""
    return [r for r in records if not r.agree and not r.note]


def summarize(records: list[SweepRecord]) -> dict:
    bad = disagreements(records)
    return {
        "records": len(records),
        "disagreements": len(bad),
        "predicted_true": sum(1 for r in records if r.predicted),
        "oracle_true": sum(1 for r in records if r.oracle),
    }


def write_records(records: list[SweepRecord], out, fmt: str = "jsonl"):
    """Write records as JSONL or CSV to a path or open stream."""
    stream = out if hasattr(out, "write") else open(out, "w")
    try:
        if fmt == "jsonl":
            for r in records:
                stream.write(json.dumps(r.serialize()) + "\n")
        elif fmt == "csv":
            fields = list(SweepRecord.__dataclass_fields__)
            writer = csv.DictWriter(stream, fieldnames=fields)
            writer.writeheader()
            for r in records:
                writer.writerow(r.serialize())
        else:
            raise ValueError(f"unknown format {fmt!r}")
    finally:
        if stream is not sys.stdout and not hasattr(out, "write"):
            stream.close()


def check_single(
    tid: str,
    p: int,
    m: int,
    delta: int,
    gamma: int,
    u: Optional[int] = None,
    i: Optional[int] = None,
    d: Optional[int] = None,
) -> SweepRecord:
    """One (delta, gamma) comparison, via the same engine as full sweeps."""
    info = theorem_info(tid)
    if info.kind == "trace_form":
        if d is None:
            raise MissingParam(f"theorem {tid} requires d")
        recs = _sweep_trace_form(tid, build_field(p, m * d), d)
        return next(r for r in recs if r.gamma == gamma)
    tower = build_tower(build_field(p, m), u=u)
    recs = _sweep_tower_deltas(tid, tower, range(delta, delta + 1), i, True)
    return next(r for r in recs if r.gamma == gamma)
