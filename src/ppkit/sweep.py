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
from collections.abc import Sequence
from itertools import chain, islice, repeat
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
    """Records as three equal-length columns, deltas, gammas and codes, and
    the kinds that the codes index.

    A kind is a (head, tail) pair that records share: the head (tid, p, m, u,
    i, d) and the verdict tail (predicted, matched_case, oracle, agree,
    note).  A sweep makes one kind per i, verdict and oracle bit, and keeps
    delta, gamma and code as unsigned 32-bit ints.  It reads as the list of
    its records: an index or iteration makes each SweepRecord as it is read,
    a slice is a SweepRecords with the same kinds, `+ list` is a list, and it
    equals a list of equal records.
    """

    __slots__ = ("deltas", "gammas", "codes", "kinds")

    def __init__(self, deltas=None, gammas=None, codes=None, kinds=None):
        if deltas is None:
            deltas, gammas, codes, kinds = array("I"), array("I"), array("I"), []
        self.deltas, self.gammas, self.codes, self.kinds = deltas, gammas, codes, kinds

    @classmethod
    def of(cls, records) -> SweepRecords:
        """records, any iterable of SweepRecord or of tuples of its 13 fields,
        as columns, with one kind per distinct (head, tail); a SweepRecords is
        returned as it is."""
        if isinstance(records, cls):
            return records
        rows, kinds = list(records), {}
        codes = array("I", [kinds.setdefault((r[:6], r[8:]), len(kinds)) for r in rows])
        return cls([r[6] for r in rows], [r[7] for r in rows], codes, list(kinds))

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return SweepRecords(self.deltas[k], self.gammas[k], self.codes[k], self.kinds)
        head, tail = self.kinds[self.codes[k]]
        return SweepRecord._make((*head, self.deltas[k], self.gammas[k], *tail))

    def __iter__(self):
        make, kinds = SweepRecord._make, self.kinds
        for delta, gamma, code in zip(self.deltas, self.gammas, self.codes):
            head, tail = kinds[code]
            yield make((*head, delta, gamma, *tail))

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

    gamma * lin does not depend on delta: the blocks are formed once per lin
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
    A kind is built once per verdict value and oracle bit, and found again by
    the verdict, a named tuple of three fields.
    """
    head, rows = _head_rows(ctx, tid, i, d, deltas, gammas)
    order, kinds = ctx.order, out.kinds
    predict, permutes, bound = criteria.predict, images_permute, criteria._bind(tid, ctx, i, d)
    by_oracle, append = ({}, {}), out.codes.append
    for delta, acc, blocks in rows:
        for gamma, images in zip(gammas, chain.from_iterable(ctx.line_rows(acc, blocks)), strict=True):
            pp = permutes(images, order)
            v = predict(tid, ctx, delta, gamma, i, d, _bound=bound)
            code = by_oracle[pp].get(v)
            if code is None:
                code = by_oracle[pp][v] = len(kinds)
                kinds.append((head, (v.predicted, v.matched_case, pp, v.predicted == pp, v.notes)))
            append(code)
        out.deltas.extend(repeat(delta, len(gammas)))
        out.gammas.extend(gammas)


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
    """Counts over records, read off their kinds: each code is counted once,
    and the one record built per kind counts for every record of that kind."""
    cols = SweepRecords.of(records)
    held = np.bincount(np.asarray(cols.codes), minlength=len(cols.kinds)).tolist()
    one = [SweepRecord._make((*head, 0, 0, *tail)) for head, tail in cols.kinds]  # delta, gamma unread
    flagged = set(disagreements(one))
    return {
        "records": len(cols),
        "disagreements": sum(n for n, r in zip(held, one) if r in flagged),
        "predicted_true": sum(n for n, r in zip(held, one) if r.predicted),
        "oracle_true": sum(n for n, r in zip(held, one) if r.oracle),
    }


_FIELDS = list(SweepRecord._fields)
_HEAD, _VERDICT = _FIELDS[:6], _FIELDS[8:]  # the fields before delta and after gamma
# Lines joined per write.  The lines and their join are write_records'
# largest temporaries (152 KB for 3.6's 15,000 JSONL lines over F_25), so
# this bounds its memory whatever the sweep's size; 256 lines a write run as
# fast as 4,096, and 64 run slower.
_WRITE_LINES = 256


def _csv_cells(values) -> str:
    """One CSV row of values as the csv module writes it, without the line end."""
    buf = io.StringIO()
    csv.writer(buf).writerow(values)
    return buf.getvalue()[:-2]


def write_records(records, out, fmt: str = "jsonl"):
    """Write records as JSONL or CSV to a path or open stream.

    A line is the record's head (tid, p, m, u, i, d), its ints delta and
    gamma, and its verdict tail (predicted, matched_case, oracle, agree,
    note).  The records are read as SweepRecords' columns: each kind is
    serialized once, by json.dumps or the csv writer, into a prefix and a
    suffix indexed by code, with the ints spliced in between, so every line
    has the bytes of serializing the whole record.  The lines are joined and
    written _WRITE_LINES at a time.  A path is opened with newline="", so the
    bytes are the same on every platform.
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
    prefix, suffix, codes = [head(h) for h, _ in cols.kinds], [verdict(t) for _, t in cols.kinds], cols.codes
    rows = zip(map(prefix.__getitem__, codes), cols.deltas, cols.gammas, map(suffix.__getitem__, codes))
    lines = (f"{hs}{delta}{mid}{gamma}{ts}" for hs, delta, gamma, ts in rows)
    with contextlib.nullcontext(out) if hasattr(out, "write") else open(out, "w", newline="") as stream:
        write = stream.write
        write(header)
        while chunk := "".join(islice(lines, _WRITE_LINES)):
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
