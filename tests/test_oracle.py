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
    for images in ([0, 3], [-1, 0], [0, 1], [0, 1, 2, 2]):  # short or long vectors too
        with pytest.raises(ImageOutOfDomain):
            images_permute(np.array(images), 3)


def test_multivar_bijection():
    G = lambda t: (t[1], t[0])
    assert multivar_bijection(G, 3, 2).is_permutation
    H = lambda t: (t[0], t[0])
    assert not multivar_bijection(H, 3, 2).is_permutation
    with pytest.raises(DomainTooLarge):
        multivar_bijection(G, 2**17, 2)
