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
from itertools import chain
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


def _trace_rows(field, d: int, gammas):
    """The one row (0, x, blocks of gamma * Tr(x^{q+1} + x^{2q+2})) of the trace form
    over F_{q^d}; its blocks are streamed, as no other row reads them."""
    q = subfield_order(field, d)
    xs = np.arange(field.order)
    w = field.pow_vec(xs, q + 1)
    t = field.add_vec(w, field.mul_vec(w, w))  # x^{q+1} + x^{2q+2}
    tr = np.zeros(field.order, dtype=np.int64)
    for k in range(d):
        tr = field.add_vec(tr, field.pow_vec(t, q**k))
    return [(0, xs, field.line_products(tr, gammas))]


def _shared_products(ctx, rows, gammas):
    """Rows (delta, acc, lin) as (delta, acc, blocks of gamma * lin).

    gamma * lin does not depend on delta: the blocks are made once per lin
    object and kept, as a list, for every row that shares it.
    """
    lin0 = blocks = None
    for delta, acc, lin in rows:
        if lin is not lin0:
            lin0, blocks = lin, list(ctx.line_products(lin, gammas))
        yield delta, acc, blocks


def _records(ctx, tid: str, i, d, deltas, gammas) -> list[SweepRecord]:
    """The records of one i at each delta of deltas and gamma of gammas.

    Each record is made in one call, SweepRecord._make of the flat tuple of
    its 13 fields; no other code makes a SweepRecord.
    The oracle runs on every record, one image vector at a time; predict,
    bound to this theorem, field, i and d, checks them once per sweep and
    computes one verdict per (trace class of delta, gamma).
    """
    head, rows = _head_rows(ctx, tid, i, d, deltas, gammas)
    records, make, order = [], SweepRecord._make, ctx.order
    predict, permutes = criteria.predict, images_permute
    with criteria.one_verdict_per_class(tid, ctx, i, d):
        for delta, acc, blocks in rows:
            for gamma, images in zip(gammas, chain.from_iterable(ctx.line_rows(acc, blocks)), strict=True):
                pp = permutes(images, order)
                v = predict(tid, ctx, delta, gamma, i, d)
                records.append(
                    make((*head, delta, gamma, v.predicted, v.matched_case, pp,
                          v.predicted == pp, v.notes))
                )
    return records


def _head_rows(ctx, tid: str, i: Optional[int], d: Optional[int], deltas, gammas):
    """The records' head (tid, p, m, u, i, d), read off ctx (m of F_{q^d} for the
    trace form, of F_q for a tower), and the rows of one i: (delta, acc, blocks),
    where f = acc + gamma * lin and blocks are line_products(lin, gammas)."""
    if theorem_info(tid).needs_d:  # the trace form: one row, at delta 0
        return (tid, ctx.p, ctx.m, 0, None, d), _trace_rows(ctx, d, gammas)
    rows = delta_power_rows(family_for_theorem(tid, 0, 0, i=i), ctx, deltas)
    return (tid, ctx.p, ctx.base.m, ctx.u, i, None), _shared_products(ctx, rows, gammas)


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
        for r in _records(ctx, tid, iv, d, range(ctx.order), gammas)
    ]


def disagreements(records: list[SweepRecord]) -> list[SweepRecord]:
    """Records where prediction and oracle differ, hypothesis violations excluded."""
    exempt = criteria.HYPOTHESIS_VIOLATED
    return [r for r in records if not r.agree and not (r.note or "").startswith(exempt)]


def summarize(records: list[SweepRecord]) -> dict:
    """Counts over records, in one pass; disagreements() sees only the records
    whose prediction and oracle differ."""
    predicted = oracle = 0
    differ = []
    for r in records:
        if r.predicted:
            predicted += 1
        if r.oracle:
            oracle += 1
        if not r.agree:
            differ.append(r)
    return {
        "records": len(records),
        "disagreements": len(disagreements(differ)),
        "predicted_true": predicted,
        "oracle_true": oracle,
    }


_FIELDS = list(SweepRecord._fields)
# the fields before delta (6) and after gamma (7); prebuilt, as a record's
# r[:6] would build a slice object per record
_AT_HEAD, _AT_VERDICT = slice(6), slice(8, None)
_HEAD, _VERDICT = _FIELDS[_AT_HEAD], _FIELDS[_AT_VERDICT]


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
            h, v = r[_AT_HEAD], r[_AT_VERDICT]
            hs = heads.get(h) or heads.setdefault(h, head(h))
            vs = verdicts.get(v) or verdicts.setdefault(v, verdict(v))
            write(f"{hs}{r[6]}{mid}{r[7]}{vs}")


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
    return check_on(theorem_context(tid, p, m, u, i, d), tid, delta, gamma, i, d)


def check_on(ctx, tid: str, delta: int, gamma: int, i: Optional[int] = None,
             d: Optional[int] = None) -> SweepRecord:
    """check_single on ctx, the field that theorem_context resolved for tid, i
    and d: delta and gamma are checked here, raising what theorem_context
    would have raised for them."""
    theorem_info(tid).check(ctx, i, d, delta=delta, gamma=gamma)
    [record] = _records(ctx, tid, i, d, (delta,), (gamma,))
    return record
