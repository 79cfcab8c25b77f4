"""Ground-truth permutation checks by exhaustive enumeration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainTooLarge, ImageOutOfDomain

MAX_TUPLE_BITS = 32


@dataclass(frozen=True)
class OracleReport:
    is_permutation: bool
    witness: Optional[tuple[int, int]]  # colliding pair of encodings, if any
    domain_size: int


def is_bijection(eval_fn: Callable[[int], int], size: int) -> OracleReport:
    """Occupancy-bitmap bijection test over the encoded domain [0, size)."""
    seen = [-1] * size
    for x in range(size):
        y = eval_fn(x)
        if not 0 <= y < size:
            raise ImageOutOfDomain(f"f({x}) = {y} outside [0, {size})")
        if seen[y] >= 0:
            return OracleReport(False, (seen[y], x), size)
        seen[y] = x
    return OracleReport(True, None, size)


def images_permute(images: np.ndarray, size: int) -> bool | list[bool]:
    """Fast-path bijection test on a precomputed image vector, or on each row
    of a 2-D block of them, with one verdict (a list of bools) per row."""
    if images.ndim == 2:
        return _rows_permute(images, size)
    if len(images) != size:  # a short vector would pass bincount's minlength
        raise ImageOutOfDomain(f"{len(images)} images for a domain of {size}")
    try:
        counts = np.bincount(images, minlength=size)
    except ValueError:  # bincount rejects negative images
        counts = ()
    if len(counts) != size:
        raise ImageOutOfDomain("image vector leaves the codomain")
    return bool(np.count_nonzero(counts) == size)  # size images hit every value: none twice


def _rows_permute(block: np.ndarray, size: int) -> list[bool]:
    """images_permute per row of block, from one bincount: row r's images are
    counted at r * size + image, after a range check, since an image outside
    [0, size) would otherwise be counted in a neighbouring row."""
    rows, width = block.shape
    if width != size:
        raise ImageOutOfDomain(f"{width} images a row for a domain of {size}")
    if block.size and not (block.min() >= 0 and block.max() < size):
        raise ImageOutOfDomain("image block leaves the codomain")
    counts = np.bincount((block + np.arange(0, rows * size, size)[:, None]).ravel(), minlength=rows * size)
    return counts.reshape(rows, size).all(axis=1).tolist()  # size images a row hit every value: none twice


def multivar_bijection(G: Callable, q: int, n: int) -> OracleReport:
    """Bijection test for G: F_q^n -> F_q^n under base-q little-endian encoding."""
    size = q**n
    if size.bit_length() > MAX_TUPLE_BITS:
        raise DomainTooLarge(f"q^n = {size} exceeds 2^{MAX_TUPLE_BITS}")

    def decode(e: int) -> tuple[int, ...]:
        out = []
        for _ in range(n):
            out.append(e % q)
            e //= q
        return tuple(out)

    def encode(t) -> int:
        e = 0
        for v in reversed(t):
            e = e * q + v
        return e

    def eval_enc(e: int) -> int:
        img = G(decode(e))
        if len(img) != n or any(not 0 <= v < q for v in img):
            raise ImageOutOfDomain(f"G{decode(e)} = {img} outside F_{q}^{n}")
        return encode(img)

    return is_bijection(eval_enc, size)
