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
from .errors import DomainTooLarge, ImageOutOfDomain, KindContextMismatch
from .oracle import images_permute
from .tower import TowerCtx

MAX_DIRECTION_FIELD = 2**12


def direction_order(ctx) -> int:
    """|F|; the O(|F|^2) direction set caps it at MAX_DIRECTION_FIELD."""
    if ctx.order > MAX_DIRECTION_FIELD:
        raise DomainTooLarge(f"|F| = {ctx.order} exceeds {MAX_DIRECTION_FIELD}")
    return ctx.order


def _images(f: Callable[[int], int], size: int) -> np.ndarray:
    """f at each encoding of [0, size) as an int64 vector; ImageOutOfDomain,
    as the oracle raises it, where an image is not an encoding in [0, size)."""
    images = [f(x) for x in range(size)]
    if not (0 <= min(images) and max(images) < size):  # on the list, cheaper than on the array at small |F|
        x = next(x for x, y in enumerate(images) if not 0 <= y < size)
        raise ImageOutOfDomain(f"f({x}) = {images[x]} outside [0, {size})")
    return np.array(images, dtype=np.int64)


def direction_set(
    f: Callable[[int], int], ctx, restrict_to_base: bool = False
) -> set[int]:
    """All difference quotients of f; O(|F|^2) so the field size is capped.

    With restrict_to_base (tower contexts only) the denominators x - y are
    limited to the base field, giving the direction set of f along F_q lines.

    Only the scalar add, sub, mul and inv are used, on int64 arrays, so D(f)
    stays independent of the vector arithmetic that permuting_translate_set
    reads: add and sub act digit by digit on p-adic encodings, and a tower's
    mul and inv act on base-field coordinates through the base field's exp
    and log.  The O(|F|^2) part is one block of h at a time:
    - h and -h give the same quotients, since f(x - h) - f(x) is
      -(f(y + h) - f(y)) at y = x - h.  The digits of -h are those of h
      negated, so exactly one of the two has a top digit up to p // 2, and
      the walk visits those h: [p^t, (p // 2 + 1) p^t) for each p^t below
      the end.  The walk and the inverses of its h are kept in the
      context's store, once per end (_walk);
    - a block holds the differences f(x + h) - f(x) at every x for as many h
      as fit in one _LINE_BLOCK (one h where |F| alone is more); each
      distinct nonzero difference of a row is divided by its h once, and a
      zero difference adds the quotient 0 with no division;
    - the digits below P, the largest power of p with P^2 <= |F|, and those
      above add apart, as no digit carries: x + h is a row of |F| / P
      translated high parts plus a row of P translated low parts, so a row
      costs the digit arithmetic on about 2 sqrt|F| encodings, not |F|;
    - where f takes at most sqrt|F| values, as a family on F_{q^2} does, the
      difference of every pair of values is subtracted once, and a block
      reads it by the indices of the two values.
    """
    size = direction_order(ctx)
    stop = size
    if restrict_to_base:
        if not isinstance(ctx, TowerCtx):
            raise KindContextMismatch("restrict_to_base needs a tower context")
        stop = ctx.q  # the base field embeds as the encodings below q
    images = _images(f, size)
    present = np.zeros(size, dtype=bool)
    present[images] = True
    values = np.flatnonzero(present)
    n = len(values)
    dense = n * n <= size
    if dense:
        pairs = ctx.sub(values[:, None], values).ravel()  # values[a] - values[b] at a * n + b
        ids = np.searchsorted(values, images)  # f(x) as its index in values
    P, lows, highs, hs, invs = _walk(ctx, stop)
    found = np.zeros(size, dtype=bool)  # the quotients met
    step = max(1, gf._LINE_BLOCK // size)
    for lo in range(0, len(hs), step):
        h = hs[lo:lo + step, None]
        at = (ctx.add(highs, h - h % P)[:, :, None] + ctx.add(lows, h % P)[:, None, :]).reshape(len(h), size)
        # row r: f(x + h_r) - f(x)
        diffs = pairs[ids[at] * n + ids] if dense else ctx.sub(images[at], images)
        seen = np.zeros(len(h) * size, dtype=bool)  # (row, difference)
        seen[diffs + np.arange(0, seen.size, size)[:, None]] = True
        row, diff = np.divmod(np.flatnonzero(seen), size)
        nonzero = diff != 0
        if not nonzero.all():  # f(x + h) = f(x) for some x: the quotient 0 needs no division
            found[0] = True
        found[ctx.mul(diff[nonzero], invs[lo + row[nonzero]])] = True
    return set(np.flatnonzero(found).tolist())


def _walk(ctx, stop: int):
    """(P, lows, highs, hs, invs) of direction_set: P, the low digits and high
    parts of an encoding, the walked h below stop and their inverses.  They
    depend on the context and stop alone, so they are built once per stop,
    in the context's store of read-only arrays (ArithCtx.kept)."""

    def build():
        size, p = ctx.order, ctx.p
        P = 1
        while P * p * P * p <= size:
            P *= p
        tops = [p**t for t in range(size.bit_length()) if p**t < stop]
        hs = np.concatenate([np.arange(top, (p // 2 + 1) * top) for top in tops])
        return P, np.arange(P), np.arange(0, size, P), hs, ctx.inv(hs)

    return ctx.kept(("walk", stop), build)


def permuting_translate_set(f: Callable[[int], int], ctx) -> set[int]:
    """All gamma for which x -> f(x) + gamma*x permutes the field, decided by
    the sweep's oracle on the vector arithmetic (direction_set stays on the
    scalar ops), one call per block of slopes."""
    size = direction_order(ctx)
    acc = _images(f, size)
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
