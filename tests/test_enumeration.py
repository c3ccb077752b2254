"""The reference generator of all small labeled matroids."""

import hashlib

import pytest

import matdeg as md
from matdeg import all_matroids
from matdeg.core import check_circuit_axioms

from oracles import all_matroids_by_antichains


def test_counts_match_independent_enumeration():
    # filter every circuit antichain through the elimination axiom and
    # compare with the structured generator, ground sets up to 5
    for d in (1, 2, 3, 4, 5):
        brute = all_matroids_by_antichains(d)
        mine = list(all_matroids(d, max_rank=d))
        assert len(mine) == len(set(mine))
        assert set(mine) == set(brute), d


def test_known_labeled_counts():
    # total labeled matroid counts on small ground sets
    assert len(list(all_matroids(2, 2))) == 5
    assert len(list(all_matroids(3, 3))) == 16
    assert len(list(all_matroids(4, 4))) == 68
    assert len(list(all_matroids(5, 5))) == 406


def test_all_outputs_are_matroids():
    for m in all_matroids(4, 4):
        assert check_circuit_axioms(m)
        assert m.n <= 4


def test_rank_cap():
    assert all(m.n <= 2 for m in all_matroids(5, 2))


def test_dual_closure_on_six():
    # ranks above 3 on [6] arrive through duality and are genuine matroids
    count = 0
    for m in all_matroids(6, 6):
        if m.n >= 4:
            count += 1
            assert md.dual(m).n == 6 - m.n
    assert count > 0


@pytest.mark.parametrize(
    "max_d, full_rank, digest",
    [
        (7, False, "6056ba0fbd152dc495a0dd4c7df7c0f540b1298d0be593273598f37210230a75"),
        (6, True, "ae00e00b3533e094cf3a7ee745c833d59ad741f38c5f6656625d1f766846a10a"),
    ],
    ids=["rank-at-most-3", "every-rank"],
)
def test_stream_pinned(max_d, full_rank, digest):
    # the queries workload picks its matroids by position in this stream,
    # so every matroid and its place in it are pinned byte for byte
    h = hashlib.sha256()
    for d in range(max_d + 1):
        for m in all_matroids(d, d if full_rank else 3):
            h.update(repr((m.d, m.n, m.circuit_masks)).encode())
    assert h.hexdigest() == digest
