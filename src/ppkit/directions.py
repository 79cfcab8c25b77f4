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
from typing import Callable

import numpy as np

from .errors import DomainTooLarge, KindContextMismatch
from .oracle import images_permute
from .tower import TowerCtx

MAX_DIRECTION_FIELD = 2**12


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
    """
    size, add, neg, mul, inv = direction_order(ctx), ctx.add, ctx.neg, ctx.mul, ctx.inv
    diffs = range(1, size)
    if restrict_to_base:
        if not isinstance(ctx, TowerCtx):
            raise KindContextMismatch("restrict_to_base needs a tower context")
        diffs = [ctx.embed(h) for h in range(1, ctx.q)]
    images = [f(x) for x in range(size)]
    negs = [neg(v) for v in images]
    out: set[int] = set()
    for h in diffs:  # each distinct f(x + h) - f(x) is divided by h once
        hinv = inv(h)
        out.update(mul(d, hinv) for d in {add(images[add(x, h)], negs[x]) for x in range(size)})
    return out


def permuting_translate_set(f: Callable[[int], int], ctx) -> set[int]:
    """All gamma for which x -> f(x) + gamma*x permutes the field, decided by
    the sweep's oracle on the vector arithmetic (direction_set stays scalar)."""
    size = direction_order(ctx)
    acc = np.array([f(x) for x in range(size)], dtype=np.int64)
    rows = ctx.line_rows(acc, np.arange(size), range(size))
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
    comp = all((m in D) != (ctx.neg(m) in P) for m in range(size))
    return DirectionReport(
        frozenset(D), frozenset(P), comp, len(D) + len(P) == size
    )
