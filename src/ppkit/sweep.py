"""Exhaustive parameter sweeps comparing predicted criteria with the oracle.

A sweep fixes a theorem family and a field, enumerates every (delta, gamma)
in scope, evaluates the family on the whole field with the field's vector
arithmetic, and records whether the stated criterion and the brute-force
permutation check agree.  Records are emitted in deterministic
(i, delta, gamma) order.
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
from .families import family_for_theorem, instantiate_exponent, theorem_info
from .gf import build_field
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
        return dict(vars(self))


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
    def from_file(cls, path: Optional[str], **overrides) -> "SweepPlan":
        """Plan from a JSON object file, if any; overrides that are not None win."""
        data = {}
        if path is not None:
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


def _context(info, p: int, m: int, u: Optional[int], d: Optional[int]):
    """The theorem's field: F_{q^d} for the trace forms, else the tower F_{q^2}."""
    if info.kind == "trace_form":
        if d is None:
            raise MissingParam(f"theorem {info.tid} requires d")
        return build_field(p, m * d)
    tower = build_tower(build_field(p, m), u=u)
    if (tower.kind == "odd") != (info.char == "odd"):
        raise MissingParam(f"theorem {info.tid} needs characteristic parity {info.char}")
    return tower


def _tower_rows(tid: str, tower: TowerCtx, deltas, i: Optional[int]):
    """(delta, acc, lin) per delta: f = acc + gamma * lin on the whole tower."""
    spec = family_for_theorem(tid, 0, 0, i=i)
    xs = np.arange(tower.order)
    xq = tower.pow_vec(xs, tower.q)
    core0 = tower.add_vec(xq, tower.mul_vec(tower.scalar(-1), xs))  # x^q -+ x
    lin = xs if spec.linear_kind == "x" else tower.add_vec(xq, xs)
    exps = [instantiate_exponent(t, tower.q, tower.p) for t in spec.terms]
    for delta in deltas:
        core = tower.add_vec(core0, delta)
        acc = np.zeros(tower.order, dtype=np.int64)
        for s in exps:
            acc = tower.add_vec(acc, tower.pow_vec(core, s))
        yield delta, acc, lin


def _trace_rows(field, d: int):
    """The one row (0, x, Tr(x^{q+1} + x^{2q+2})) of the trace form over F_{q^d}."""
    q = field.p ** (field.m // d)
    xs = np.arange(field.order)
    w = field.pow_vec(xs, q + 1)
    t = field.add_vec(w, field.mul_vec(w, w))  # x^{q+1} + x^{2q+2}
    tr = np.zeros(field.order, dtype=np.int64)
    for k in range(d):
        tr = field.add_vec(tr, field.pow_vec(t, q**k))
    return [(0, xs, tr)]


def _records(ctx, head: tuple, rows, gammas) -> list[SweepRecord]:
    """The records of each row (delta, acc, lin) at each gamma; f = acc + gamma * lin.

    head is the records' (tid, p, m, u, i, d).  No other code makes a SweepRecord.
    """
    tid, _, _, _, i, d = head
    ctx.tables()
    records = []
    for delta, acc, lin in rows:
        for gamma in gammas:
            pp = images_permute(ctx.add_vec(acc, ctx.mul_vec(gamma, lin)), ctx.order)
            v = criteria.predict(tid, ctx, delta, gamma, i=i, d=d)
            records.append(
                SweepRecord(
                    *head, delta, gamma, v.predicted, v.matched_case, pp,
                    v.predicted == pp, v.notes,
                )
            )
    return records


def _job(job, ctx=None) -> list[SweepRecord]:
    """The records of one job (tid, p, m, u, i, d, deltas, gammas).

    ctx is the theorem's field; a worker process builds its own.
    """
    tid, p, m, u, i, d, deltas, gammas = job
    info = theorem_info(tid)
    if ctx is None:
        ctx = _context(info, p, m, u, d)
    if info.kind == "trace_form":  # one row, at delta 0
        return _records(ctx, (tid, p, m * d, 0, None, d), _trace_rows(ctx, d), gammas)
    rows = _tower_rows(tid, ctx, deltas, i)
    return _records(ctx, (tid, p, m, ctx.u, i, None), rows, gammas)


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
    """All records for one theorem over F_{p^m}, in (i, delta, gamma) order."""
    info = theorem_info(tid)
    ctx = _context(info, p, m, u, d)
    if info.kind == "trace_form":
        return _job((tid, p, m, u, None, d, None, range(ctx.order)), ctx)

    if info.needs_i:
        i_values = [i] if i is not None else list(range(1, m))
    else:
        i_values = [None]
    if probe_hypotheses:
        gammas = range(ctx.order)
    else:
        gammas = range(1, ctx.q if info.gamma_domain == "Fq_star" else ctx.order)
    bounds = np.linspace(0, ctx.order, max(workers, 1) + 1, dtype=int)
    jobs = [
        (tid, p, m, ctx.u, iv, None, range(lo, hi), gammas)
        for iv in i_values
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
        if hi > lo
    ]
    if workers <= 1:
        return [r for job in jobs for r in _job(job, ctx)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [r for chunk in pool.map(_job, jobs) for r in chunk]


def run_plan(plan: SweepPlan) -> list[SweepRecord]:
    return sweep_theorem(**vars(plan))


def disagreements(records: list[SweepRecord]) -> list[SweepRecord]:
    """Records where prediction and oracle differ, hypothesis violations excluded."""
    exempt = criteria.HYPOTHESIS_VIOLATED
    return [r for r in records if not r.agree and not (r.note or "").startswith(exempt)]


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
    """The record of one (delta, gamma), computed by the sweep's own engine."""
    info = theorem_info(tid)
    ctx = _context(info, p, m, u, d)
    ctx.elem(delta)  # both must be encodings in the theorem's field
    ctx.elem(gamma)
    [record] = _job((tid, p, m, u, i, d, (delta,), (gamma,)), ctx)
    return record
