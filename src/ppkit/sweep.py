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
from array import array
from collections import Counter
from collections.abc import Sequence
from itertools import chain, count, islice, repeat
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
    A sweep holds its records as SweepRecords' columns, and makes a
    SweepRecord only when one is read.
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


class SweepRecords(Sequence):
    """Records as four equal-length columns: heads, deltas, gammas, tails.

    A head (tid, p, m, u, i, d) is one tuple shared by every record of its i,
    and a tail (predicted, matched_case, oracle, agree, note) one tuple shared
    by every record of its verdict and oracle bit; a sweep keeps delta and
    gamma as unsigned 32-bit ints.  It reads as the list of its records: an
    index or iteration makes each SweepRecord as it is read, a slice is a
    SweepRecords, `+ list` is a list, and it equals a list of equal records.
    """

    __slots__ = ("heads", "deltas", "gammas", "tails")

    def __init__(self, heads=None, deltas=None, gammas=None, tails=None):
        if heads is None:
            heads, deltas, gammas, tails = [], array("I"), array("I"), []
        self.heads, self.deltas, self.gammas, self.tails = heads, deltas, gammas, tails

    @classmethod
    def of(cls, records) -> SweepRecords:
        """records, any iterable of SweepRecord or of tuples of its 13 fields,
        as columns, with equal heads and equal tails as one object each; a
        SweepRecords is returned as it is."""
        if isinstance(records, cls):
            return records
        rows, shared = list(records), {}
        one = lambda t: shared.setdefault(t, t)
        return cls([one(r[:6]) for r in rows], [r[6] for r in rows], [r[7] for r in rows],
                   [one(r[8:]) for r in rows])

    def __len__(self) -> int:
        return len(self.tails)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return SweepRecords(self.heads[k], self.deltas[k], self.gammas[k], self.tails[k])
        return SweepRecord._make((*self.heads[k], self.deltas[k], self.gammas[k], *self.tails[k]))

    def __iter__(self):
        make = SweepRecord._make
        for h, delta, gamma, t in zip(self.heads, self.deltas, self.gammas, self.tails):
            yield make((*h, delta, gamma, *t))

    def __eq__(self, other):
        if isinstance(other, (SweepRecords, list)):
            return list(self) == list(other)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, list):
            return list(self) + other
        return NotImplemented


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


def _records(out: SweepRecords, ctx, tid: str, i, d, deltas, gammas):
    """Append to out's columns the records of one i at each delta of deltas and
    gamma of gammas.

    The oracle runs on every record, one image vector at a time; predict gets
    one verdict table, bound to this theorem, field, i and d, so the theorem
    is checked once and one verdict computed per (trace class of delta, gamma).
    A tail is made once per verdict object and oracle bit, and found again by
    the verdict's id (a Verdict's own hash would hash its fields on every
    record); each verdict it was made from is kept in `made` until the i is
    done, so no id is reused.
    """
    head, rows = _head_rows(ctx, tid, i, d, deltas, gammas)
    order, start, made = ctx.order, len(out), []
    predict, permutes, bound = criteria.predict, images_permute, criteria._bind(tid, ctx, i, d)
    by_oracle, append = ({}, {}), out.tails.append
    for delta, acc, blocks in rows:
        for gamma, images in zip(gammas, chain.from_iterable(ctx.line_rows(acc, blocks)), strict=True):
            pp = permutes(images, order)
            v = predict(tid, ctx, delta, gamma, i, d, _bound=bound)
            t = by_oracle[pp].get(id(v))
            if t is None:
                t = by_oracle[pp][id(v)] = (v.predicted, v.matched_case, pp, v.predicted == pp, v.notes)
                made.append(v)
            append(t)
        out.deltas.extend(repeat(delta, len(gammas)))
        out.gammas.extend(gammas)
    out.heads.extend(repeat(head, len(out) - start))


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
) -> SweepRecords:
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
    records = SweepRecords()
    for iv in i_values:
        _records(records, ctx, tid, iv, d, range(ctx.order), gammas)
    return records


def disagreements(records) -> list[SweepRecord]:
    """Records where prediction and oracle differ, hypothesis violations excluded."""
    exempt = criteria.HYPOTHESIS_VIOLATED
    return [r for r in records if not r.agree and not (r.note or "").startswith(exempt)]


def summarize(records) -> dict:
    """Counts over records, read off their tails: one record is made per
    distinct tail object, and counts for every record that holds that tail."""
    cols = SweepRecords.of(records)
    held = Counter(map(id, cols.tails))  # streamed: a list of the ids would be 40 B a record
    last = dict(zip(map(id, cols.tails), count()))  # each tail's last record
    one = {t: cols[k] for t, k in last.items()}
    flagged = set(map(id, disagreements(one.values())))
    return {
        "records": len(cols),
        "disagreements": sum(held[t] for t, r in one.items() if id(r) in flagged),
        "predicted_true": sum(held[t] for t, r in one.items() if r.predicted),
        "oracle_true": sum(held[t] for t, r in one.items() if r.oracle),
    }


_FIELDS = list(SweepRecord._fields)
_HEAD, _VERDICT = _FIELDS[:6], _FIELDS[8:]  # the fields before delta and after gamma


def _csv_cells(values) -> str:
    """One CSV row of values as the csv module writes it, without the line end."""
    buf = io.StringIO()
    csv.writer(buf).writerow(values)
    return buf.getvalue()[:-2]


def _serialized(column, serialize) -> map:
    """serialize(x) for each x of column, computed once per distinct object."""
    distinct = dict(zip(map(id, column), column))
    text = {k: serialize(x) for k, x in distinct.items()}
    return map(text.__getitem__, map(id, column))


def write_records(records, out, fmt: str = "jsonl"):
    """Write records as JSONL or CSV to a path or open stream.

    A line is the record's head (tid, p, m, u, i, d), its ints delta and
    gamma, and its verdict tail (predicted, matched_case, oracle, agree,
    note).  The records are read as SweepRecords' columns, and each head and
    tail object is serialized once, by json.dumps or the csv writer, with the
    ints spliced in between: every line has the bytes of serializing the
    whole record.
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
    cols = SweepRecords.of(records)
    rows = zip(_serialized(cols.heads, head), cols.deltas, cols.gammas, _serialized(cols.tails, verdict))
    lines = (f"{hs}{delta}{mid}{gamma}{ts}" for hs, delta, gamma, ts in rows)
    with contextlib.nullcontext(out) if hasattr(out, "write") else open(out, "w") as stream:
        write = stream.write
        write(header)
        while chunk := "".join(islice(lines, 4096)):  # one write per 4,096 lines
            write(chunk)


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
    records = SweepRecords()
    _records(records, ctx, tid, i, d, (delta,), (gamma,))
    return records[0]
