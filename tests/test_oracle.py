import numpy as np
import pytest

from ppkit.errors import DomainTooLarge, ImageOutOfDomain
from ppkit.oracle import images_permute, is_bijection, multivar_bijection


def test_is_bijection_accepts_permutation():
    perm = [3, 0, 2, 1]
    rep = is_bijection(lambda x: perm[x], 4)
    assert rep.is_permutation and rep.witness is None and rep.domain_size == 4


def test_is_bijection_reports_witness():
    rep = is_bijection(lambda x: x // 2, 4)
    assert not rep.is_permutation
    a, b = rep.witness
    assert a != b and a // 2 == b // 2


def test_is_bijection_rejects_out_of_domain():
    with pytest.raises(ImageOutOfDomain):
        is_bijection(lambda x: x + 1, 4)


def test_images_permute():
    block = np.array([[2, 0, 1], [0, 0, 1]])  # a sweep passes the rows of a block
    for images, want in (([2, 0, 1], True), ([0, 0, 1], False), (block[0], True), (block[1], False)):
        assert images_permute(np.asarray(images), 3) is want  # a Python bool, not np.bool_
    for images in ([0, 1, 3], [-1, 0, 1], [0, 3], [-1, 0], [0, 1], [0, 1, 2, 2]):  # short or long vectors too
        with pytest.raises(ImageOutOfDomain):
            images_permute(np.array(images), 3)


@pytest.mark.parametrize("size", [25, 49, 64])
def test_images_permute_on_a_block_is_row_by_row(size):
    rng = np.random.default_rng(size)
    block = np.array([rng.permutation(size) for _ in range(5)] + [rng.integers(0, size, size) for _ in range(5)])
    block[7] = block[6]  # two equal non-permutation rows, and one that misses a single value
    block[8] = np.arange(size)
    block[8][3] = 4
    block = block[rng.permutation(len(block))]
    got = images_permute(block, size)
    assert got == [images_permute(row, size) for row in block] and got.count(True) == 5
    assert all(v is True or v is False for v in got)
    assert images_permute(block[:1], size) == [images_permute(block[0], size)]


@pytest.mark.parametrize("size", [25, 49, 64])
def test_images_permute_on_a_block_keeps_images_in_their_row(size):
    # offset by its row, an image of size in row 0 would be counted as the 0
    # that row 1 misses, and an image of -1 in row 1 as the size - 1 that
    # row 0 misses: each block would read as one permutation row
    up = np.array([np.arange(size)] * 2)
    up[0][0], up[1][0] = size, 1
    down = np.array([np.arange(size)] * 2)
    down[0][-1], down[1][0] = 0, -1
    for block in (up, down):
        with pytest.raises(ImageOutOfDomain):
            images_permute(block, size)
    for width in (size - 1, size + 1):
        with pytest.raises(ImageOutOfDomain):
            images_permute(np.zeros((2, width), dtype=np.int64), size)


def test_multivar_bijection():
    G = lambda t: (t[1], t[0])
    assert multivar_bijection(G, 3, 2).is_permutation
    H = lambda t: (t[0], t[0])
    assert not multivar_bijection(H, 3, 2).is_permutation
    with pytest.raises(DomainTooLarge):
        multivar_bijection(G, 2**17, 2)
