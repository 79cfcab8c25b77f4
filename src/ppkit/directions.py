"""Direction sets of maps on a finite field and their complement under
linear perturbation.

For f: F -> F the direction set D(f) collects every difference quotient
(f(x) - f(y)) / (x - y) over distinct x, y.  P(f) collects the slopes gamma
for which f(x) + gamma*x still permutes F.  The two are complementary up to
sign: m is a direction of f exactly when -m is not in P(f), so
|D(f)| + |P(f)| = |F|.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from typing import Callable

import numpy as np

from . import gf
from .errors import DomainTooLarge, KindContextMismatch
from .oracle import images_permute
from .tower import TowerCtx

MAX_DIRECTION_FIELD = 2**12

# direction_set's pair -> difference dict, for an f of more than 128 values,
# is cleared past this many pairs; an injective f would otherwise keep
# |F|^2 / 2 of them.  A family takes at most q values on F_{q^2}, so at most
# q^2 <= |F| pairs, which a dense table holds
_DIFF_MEMO = 2**16


def direction_order(ctx) -> int:
    """|F|; the O(|F|^2) direction set caps it at MAX_DIRECTION_FIELD."""
    if ctx.order > MAX_DIRECTION_FIELD:
        raise DomainTooLarge(f"|F| = {ctx.order} exceeds {MAX_DIRECTION_FIELD}")
    return ctx.order


def direction_set(
    f: Callable[[int], int], ctx, restrict_to_base: bool = False
) -> set[int]:
    """All difference quotients of f; O(|F|^2) so the field size is capped.

    With restrict_to_base (tower contexts only) the denominators x - y are
    limited to the base field, giving the direction set of f along F_q lines.

    Only the scalar add, sub, mul and inv are used, so D(f) stays independent
    of the vector arithmetic that permuting_translate_set reads.  The scalar
    add and sub act digit by digit on p-adic encodings; the O(|F|^2) part is
    integer index arrays, one block of h at a time:
    - h and -h give the same quotients, since f(x - h) - f(x) is
      -(f(y + h) - f(y)) at y = x - h.  The digits of -h are those of h
      negated, so exactly one of the two has a top digit up to p // 2, and
      the walk visits those h: [p^t, (p // 2 + 1) p^t) for each p^t below
      the end;
    - the translation x -> x + p^j is made with |F| scalar adds per digit j,
      and every other translation is composed of those.  The rows
      x -> f(x + a) for every a below span, the largest p^s whose rows fit
      in one _LINE_BLOCK, are made once, and give the h below span.  The
      other h come span at a time: at h = b + a, with b a multiple of span,
      they are those rows read at x + b, where x -> x + b is the map of
      b - p^j composed with x -> x + p^j, for p^j the lowest nonzero digit
      of b; so one index array is kept per digit;
    - each distinct pair (f(x + h), f(x)) is subtracted once per call, and
      each distinct nonzero difference of a row is divided by its h once,
      both found by array operations; a zero difference adds the quotient 0
      with no division.
    """
    size, p, add, sub, mul, inv = direction_order(ctx), ctx.p, ctx.add, ctx.sub, ctx.mul, ctx.inv
    stop = size
    if restrict_to_base:
        if not isinstance(ctx, TowerCtx):
            raise KindContextMismatch("restrict_to_base needs a tower context")
        stop = ctx.q  # the base field embeds as the encodings below q
    images = [f(x) for x in range(size)]
    values = sorted(set(images))
    differences = _pair_differences(values, sub)
    ids = np.searchsorted(values, images)  # f(x) as its index in values
    xs = np.arange(size)
    tops = [p**t for t in range(size.bit_length()) if p**t < stop]
    span = 1
    while span * p <= stop and span * p * size <= gf._LINE_BLOCK:
        span *= p
    units: list[np.ndarray] = []  # units[j]: x -> x + p^j
    last: list[np.ndarray] = []  # last[j]: x -> x + b, the last b with no digit below p^j
    out: set[int] = set()

    def unit(place: int) -> np.ndarray:
        units.append(np.array([add(x, place) for x in range(size)]))
        last.append(xs)
        return units[-1]

    def quotients(rows: np.ndarray, hs: list[int]) -> None:
        """Add the quotients of the rows x -> index of f(x + h), one row per h of hs."""
        seen = np.zeros(len(hs) * size, dtype=bool)  # (row, difference)
        seen[differences(rows * len(values) + ids) + np.arange(0, seen.size, size)[:, None]] = True
        row, diff = np.divmod(np.flatnonzero(seen), size)
        if not diff.all():  # f(x + h) = f(x) for some x: the quotient 0 needs no division
            out.add(0)
        invs = [inv(h) for h in hs]
        nonzero = diff != 0
        out.update(map(mul, diff[nonzero].tolist(), map(invs.__getitem__, row[nonzero].tolist())))

    shift = xs[None, :]  # shift[a]: x -> x + a, for every a below place
    place = 1
    while place < span:
        steps = [xs, unit(place)]  # steps[c]: x -> x + c * place
        while len(steps) < p:
            steps.append(steps[-1][steps[1]])
        shift = np.array(steps)[:, shift].reshape(-1, size)
        place *= p
    shifted = ids[shift]  # shifted[a]: x -> index of f(x + a)
    low = [h for top in tops if top < span for h in range(top, (p // 2 + 1) * top)]
    if low:
        quotients(shifted[low], low)
    for b in chain.from_iterable(range(top, (p // 2 + 1) * top, span) for top in tops if top >= span):
        j, place = 0, 1
        while b % (place * p) == 0:
            j, place = j + 1, place * p
        if j == len(units):  # b = p^j, the first b with a digit there
            unit(place)
        at = last[j][units[j]]  # (x + p^j) + (b - p^j)
        last[: j + 1] = [at] * (j + 1)
        quotients(shifted[:, at], list(range(b, b + span)))
    return out


def _pair_differences(values: list[int], sub) -> Callable[[np.ndarray], np.ndarray]:
    """The map from codes a * n + b, n = len(values), to values[a] - values[b],
    for arrays of codes, with one scalar sub per distinct code: a dense table
    where n^2 codes fit in one _LINE_BLOCK (always for a family, which takes
    at most q values on F_{q^2}), else a dict of the codes met, cleared past
    _DIFF_MEMO of them."""
    n = len(values)

    def difference(code: int) -> int:
        return sub(values[code // n], values[code % n])

    if n * n <= gf._LINE_BLOCK:
        table = np.full(n * n, -1)

        def dense(codes: np.ndarray) -> np.ndarray:
            seen = np.zeros(n * n, dtype=bool)
            seen[codes] = True
            new = np.flatnonzero(seen & (table < 0)).tolist()
            if new:
                table[new] = list(map(difference, new))
            return table[codes]

        return dense
    memo: dict[int, int] = {}

    def sparse(codes: np.ndarray) -> np.ndarray:
        distinct, where = np.unique(codes, return_inverse=True)
        distinct = distinct.tolist()
        got = list(map(memo.get, distinct))
        if None in got:  # a pair not subtracted yet
            if len(memo) > _DIFF_MEMO:
                memo.clear()
            memo.update({c: difference(c) for c in distinct if c not in memo})
            got = list(map(memo.__getitem__, distinct))
        return np.array(got)[where.reshape(codes.shape)]

    return sparse


def permuting_translate_set(f: Callable[[int], int], ctx) -> set[int]:
    """All gamma for which x -> f(x) + gamma*x permutes the field, decided by
    the sweep's oracle on the vector arithmetic (direction_set stays scalar),
    one call per block of slopes."""
    size = direction_order(ctx)
    acc = np.array([f(x) for x in range(size)], dtype=np.int64)
    blocks = ctx.line_rows(acc, ctx.line_products(np.arange(size), range(size)))
    verdicts = chain.from_iterable(images_permute(block, size) for block in blocks)
    return set(compress(range(size), verdicts))


@dataclass(frozen=True)
class DirectionReport:
    directions: frozenset[int]
    permuting: frozenset[int]
    complementary: bool  # m in D(f) <=> -m not in P(f)
    sizes_sum_to_field: bool


def check_complementarity(f: Callable[[int], int], ctx) -> DirectionReport:
    """Verify the direction/permuting-slope duality for f on the whole field,
    evaluating f once per element for both sides."""
    size = direction_order(ctx)
    at = [f(x) for x in range(size)].__getitem__
    D = direction_set(at, ctx)
    P = permuting_translate_set(at, ctx)
    # m in D <=> -m not in P for every m: D and -P split the field in two
    sizes = len(D) + len(P) == size
    comp = sizes and D.isdisjoint(map(ctx.neg, P))
    return DirectionReport(frozenset(D), frozenset(P), comp, sizes)
