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
from itertools import chain, repeat
from typing import Callable

import numpy as np

from .errors import DomainTooLarge, KindContextMismatch
from .oracle import images_permute
from .tower import TowerCtx

MAX_DIRECTION_FIELD = 2**12

# direction_set's pair -> difference memo is cleared past this many pairs.  A
# family takes at most q values on F_{q^2}, so at most q^2 <= |F| pairs; an
# injective f would otherwise keep |F|^2 / 2 of them
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
    add and sub act digit by digit on p-adic encodings, and the O(|F|^2) part
    is list and set work:
    - h and -h give the same quotients, since f(x - h) - f(x) is
      -(f(y + h) - f(y)) at y = x - h.  The digits of -h are those of h
      negated, so exactly one of the two has a top digit up to p // 2, and
      the walk visits those h in increasing order: [p^t, (p // 2 + 1) p^t)
      for each p^t below the end;
    - the row x -> f(x + h) is the row of h - p^j, for p^j the lowest
      nonzero digit of h, composed with the translation x -> x + p^j.
      h - p^j is 0 or the last h walked with no digit below p^j, so the walk
      keeps one row per digit and makes |F| scalar adds per digit;
    - each distinct pair (f(x + h), f(x)) is subtracted once per call, and
      each distinct nonzero difference is divided by h once.
    """
    size, p, add, sub, mul, inv = direction_order(ctx), ctx.p, ctx.add, ctx.sub, ctx.mul, ctx.inv
    stop = size
    if restrict_to_base:
        if not isinstance(ctx, TowerCtx):
            raise KindContextMismatch("restrict_to_base needs a tower context")
        stop = ctx.q  # the base field embeds as the encodings below q
    images = [f(x) for x in range(size)]
    tops = [p**t for t in range(size.bit_length()) if p**t < stop]
    units: list[list[int]] = []  # units[j]: x -> x + p^j
    last: list[list[int]] = []  # last[j]: x -> f(x + h), the last h with no digit below p^j
    diffs: dict[tuple[int, int], int] = {}  # (a, b) -> a - b
    out: set[int] = set()
    for h in chain.from_iterable(range(top, (p // 2 + 1) * top) for top in tops):
        j, place = 0, 1
        while h % (place * p) == 0:
            j, place = j + 1, place * p
        if j == len(units):  # h = p^j, the first h with a digit there
            units.append([add(x, place) for x in range(size)])
            last.append(images)
        row = list(map(last[j].__getitem__, units[j]))  # f((x + p^j) + (h - p^j))
        last[: j + 1] = [row] * (j + 1)
        pairs = set(zip(row, images))
        got = set(map(diffs.get, pairs))
        if None in got:  # a pair not subtracted yet
            if len(diffs) > _DIFF_MEMO:
                diffs.clear()
            diffs.update({ab: sub(*ab) for ab in pairs if ab not in diffs})
            got = set(map(diffs.__getitem__, pairs))
        if 0 in got:  # f(x + h) = f(x) for some x: the quotient 0 needs no division
            got.discard(0)
            out.add(0)
        out.update(map(mul, got, repeat(inv(h))))
    return out


def permuting_translate_set(f: Callable[[int], int], ctx) -> set[int]:
    """All gamma for which x -> f(x) + gamma*x permutes the field, decided by
    the sweep's oracle on the vector arithmetic (direction_set stays scalar)."""
    size = direction_order(ctx)
    acc = np.array([f(x) for x in range(size)], dtype=np.int64)
    rows = ctx.line_rows(acc, ctx.line_products(np.arange(size), range(size)))
    return {g for g, images in enumerate(rows) if images_permute(images, size)}


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
