"""Exhaustive parameter sweeps comparing predicted criteria with the oracle.

A sweep fixes a theorem family and a field, enumerates every (delta, gamma)
in scope, evaluates the family on the whole field with the field's vector
arithmetic, and records whether the stated criterion and the brute-force
permutation check agree.  Records are emitted in deterministic
(i, delta, gamma) order.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from typing import NamedTuple, Optional

import numpy as np

from . import criteria
from .families import delta_power_rows, family_for_theorem, theorem_context, theorem_info
from .gf import subfield_order
from .oracle import images_permute


class SweepRecord(NamedTuple):
    """The verdicts on one (delta, gamma): a head, the point, a verdict.

    A named tuple, so the head (tid, p, m, u, i, d) is record[:6] and the
    verdict (predicted, matched_case, oracle, agree, note) is record[8:].
    """

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
        return self._asdict()


def _trace_rows(field, d: int):
    """The one row (0, x, Tr(x^{q+1} + x^{2q+2})) of the trace form over F_{q^d}."""
    q = subfield_order(field, d)
    xs = np.arange(field.order)
    w = field.pow_vec(xs, q + 1)
    t = field.add_vec(w, field.mul_vec(w, w))  # x^{q+1} + x^{2q+2}
    tr = np.zeros(field.order, dtype=np.int64)
    for k in range(d):
        tr = field.add_vec(tr, field.pow_vec(t, q**k))
    return [(0, xs, tr)]


def _records(ctx, head: tuple, rows, gammas) -> list[SweepRecord]:
    """The records of each row (delta, acc, lin) at each gamma; f = acc + gamma * lin.

    head is the records' (tid, p, m, u, i, d).  Each record is made in one
    call, SweepRecord._make of the flat tuple of its 13 fields; no other code
    makes a SweepRecord.
    A row's image vectors are gathered a block of gammas at a time (line_rows),
    but the oracle still runs on every record, one vector at a time; predict
    computes one verdict per (i, trace class of delta, gamma) and returns it
    for the rest of the class.
    """
    tid, _, _, _, i, d = head
    ctx.tables()
    records, make = [], SweepRecord._make
    with criteria.one_verdict_per_class():
        for delta, acc, lin in rows:
            for gamma, images in zip(gammas, ctx.line_rows(acc, lin, gammas), strict=True):
                pp = images_permute(images, ctx.order)
                v = criteria.predict(tid, ctx, delta, gamma, i=i, d=d)
                records.append(
                    make((*head, delta, gamma, v.predicted, v.matched_case, pp,
                          v.predicted == pp, v.notes))
                )
    return records


def _head_rows(ctx, tid: str, p: int, m: int, i: Optional[int], d: Optional[int], deltas):
    """The records' head (tid, p, m, u, i, d) and the (delta, acc, lin) rows of one i."""
    if theorem_info(tid).needs_d:  # the trace form: one row, at delta 0
        return (tid, p, m * d, 0, None, d), _trace_rows(ctx, d)
    rows = delta_power_rows(family_for_theorem(tid, 0, 0, i=i), ctx, deltas)
    return (tid, p, m, ctx.u, i, None), rows


def sweep_theorem(
    tid: str,
    p: int,
    m: int,
    u: Optional[int] = None,
    i: Optional[int] = None,
    d: Optional[int] = None,
    probe_hypotheses: bool = False,
) -> list[SweepRecord]:
    """All records for one theorem over F_{p^m}, in (i, delta, gamma) order."""
    info = theorem_info(tid)
    ctx = theorem_context(tid, p, m, u, i, d)
    if info.needs_i:
        i_values = [i] if i is not None else list(range(1, m))
    else:
        i_values = [None]
    if probe_hypotheses or info.needs_d:
        gammas = range(ctx.order)
    else:
        gammas = range(1, ctx.q if info.gamma_domain == "Fq_star" else ctx.order)
    return [
        r
        for iv in i_values
        for r in _records(ctx, *_head_rows(ctx, tid, p, m, iv, d, range(ctx.order)), gammas)
    ]


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


_FIELDS = list(SweepRecord._fields)
_HEAD, _VERDICT = _FIELDS[:6], _FIELDS[8:]  # the fields before delta, after gamma


def _csv_cells(values) -> str:
    """One CSV row of values as the csv module writes it, without the line end."""
    buf = io.StringIO()
    csv.writer(buf).writerow(values)
    return buf.getvalue()[:-2]


def write_records(records: list[SweepRecord], out, fmt: str = "jsonl"):
    """Write records as JSONL or CSV to a path or open stream.

    A line is the record's head (tid, p, m, u, i, d), its ints delta and
    gamma, and its verdict (predicted, matched_case, oracle, agree, note).
    A sweep has one head and a handful of verdicts, so each distinct head and
    verdict is serialized once, by json.dumps or the csv writer, and the ints
    are spliced in between: every line has the bytes of serializing the whole
    record.
    """
    if fmt == "jsonl":
        header, mid = "", ', "gamma": '
        head = lambda h: json.dumps(dict(zip(_HEAD, h)))[:-1] + ', "delta": '
        verdict = lambda v: ", " + json.dumps(dict(zip(_VERDICT, v)))[1:] + "\n"
    elif fmt == "csv":
        header, mid = _csv_cells(_FIELDS) + "\r\n", ","
        head = lambda h: _csv_cells(h) + ","
        verdict = lambda v: "," + _csv_cells(v) + "\r\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    heads, verdicts = {}, {}
    with contextlib.nullcontext(out) if hasattr(out, "write") else open(out, "w") as stream:
        write = stream.write
        write(header)
        for r in records:
            h, v = r[:6], r[8:]
            hs = heads.get(h) or heads.setdefault(h, head(h))
            vs = verdicts.get(v) or verdicts.setdefault(v, verdict(v))
            write(f"{hs}{r.delta}{mid}{r.gamma}{vs}")


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
    ctx = theorem_context(tid, p, m, u, i, d, delta, gamma)
    [record] = _records(ctx, *_head_rows(ctx, tid, p, m, i, d, (delta,)), (gamma,))
    return record
