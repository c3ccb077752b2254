"""Canonical forms, isomorphism and automorphism groups."""

import random
from itertools import permutations

import pytest

import matdeg as md
from matdeg import (
    are_isomorphic,
    automorphisms,
    canonical_form,
    designate_loop,
    group_by_symmetry,
    relabel,
    uniform_matroid,
)
from matdeg.core import _GroundSetTooLarge

from oracles import brute_automorphisms, brute_isomorphic


def test_canonical_invariance(fano, qs, vamos, k33dual):
    random.seed(101)
    for m in (fano, qs, vamos, k33dual, uniform_matroid(2, 6)):
        reference = canonical_form(m)
        for _ in range(100):
            perm = list(range(1, m.d + 1))
            random.shuffle(perm)
            assert canonical_form(relabel(m, tuple(perm))) == reference


# canonical hashes key user hint files and appear as component ids in CLI
# output, so a change to the canonical form must show here
PINNED = {
    "fano": ("9f76713d495f7526027527610d64b1447a190fa9e1f390a9cc9a2bd229d40741", 168, 4),
    "qs": ("bd9d18275ae887729f44e02c49397b57e7d5e55da9776e6469acf608816bd4e9", 24, 3),
    "threelines": ("a284ff9c368573c05cdf550fa700089faaea2a9707fdd8a7f155e631dd43402b", 48, 5),
    "vamos": ("17068fde97570bbe7623acc6b6a73c01b75e76714441009e0390473cd64439be", 64, 6),
    "k33dual": ("1a6a469a93c26a30cda766da7765a527b8d835ecf4eb69617247534927bf58ab", 72, 4),
    "steiner348": ("18ff3bc21927d46b5059f23ec5e89d76f85452fbe4782b8a96eef364152bda30", 1344, 5),
    "grid33": ("5536e90ffc1adcc0da48f4d7674d8998f6c9c1e5c53744ca15c4f5426eb9f96a", 72, 4),
    "fanodual": ("27b64da2693463007c9bbddb384abc815de10fb46a6d3f2a86452722bc4c4c25", 168, 5),
    "threepairs": ("ed88257cde791bd33feee8938260ddafa2f6217d8eeb808045d0c5b9716c0f6d", 48, 5),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_canonical_hash_and_group_pinned(name):
    digest, order, generators = PINNED[name]
    m = md.catalog(name)
    assert canonical_form(m).hash == digest
    group = automorphisms(m)
    assert (group.order, len(group.generators)) == (order, generators)


# the exact generator lists, which the greedy pick from the sorted group
# elements fixes
PINNED_GENERATORS = {
    "fano": (
        (1, 2, 5, 4, 3, 7, 6),
        (1, 2, 6, 4, 7, 3, 5),
        (1, 3, 2, 7, 5, 6, 4),
        (2, 1, 3, 4, 7, 6, 5),
    ),
    "k33dual": (
        (1, 2, 3, 7, 8, 9, 4, 5, 6),
        (1, 3, 2, 4, 6, 5, 7, 9, 8),
        (1, 4, 7, 2, 5, 8, 3, 6, 9),
        (2, 1, 3, 5, 4, 6, 8, 7, 9),
    ),
    "steiner348": (
        (1, 2, 3, 5, 4, 6, 8, 7),
        (1, 2, 3, 7, 8, 6, 4, 5),
        (1, 2, 4, 3, 5, 8, 7, 6),
        (1, 3, 2, 4, 8, 6, 7, 5),
        (2, 1, 3, 4, 7, 6, 5, 8),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_GENERATORS))
def test_automorphism_generators_pinned(name):
    assert automorphisms(md.catalog(name)).generators == PINNED_GENERATORS[name]


def test_canonical_separates(small_matroids):
    # canonical forms agree exactly on isomorphic pairs: spot-check against
    # a full orbit partition of the d = 4 universe
    ms = small_matroids[4]
    forms = {}
    for m in ms:
        forms.setdefault(canonical_form(m).hash, []).append(m)
    # each class closed under relabeling: regenerate orbits by brute force
    for bucket in forms.values():
        rep = bucket[0]
        orbit = {relabel(rep, perm) for perm in permutations(range(1, 5))}
        assert set(bucket) == {m for m in ms if m in orbit}


def test_are_isomorphic_basic(fano):
    assert are_isomorphic(md.projective_plane(2), fano)
    assert not are_isomorphic(fano, uniform_matroid(3, 7))
    assert are_isomorphic(uniform_matroid(2, 5), uniform_matroid(2, 5))


def test_are_isomorphic_equivalence(small_matroids):
    random.seed(3)
    ms = random.sample(small_matroids[5], 25)
    for a in ms:
        assert are_isomorphic(a, a)
    for _ in range(200):
        a, b, c = (random.choice(ms) for _ in range(3))
        if are_isomorphic(a, b) and are_isomorphic(b, c):
            assert are_isomorphic(a, c)


def test_aut_fano_order(fano):
    group = automorphisms(fano)
    assert group.order == 168
    # independent recount: filter all 5040 permutations directly
    circuits = set(fano.circuit_masks)
    count = 0
    for perm in permutations(range(1, 8)):
        mapped = {
            md.bitsets.mask_of(perm[p - 1] for p in pts)
            for pts in fano.circuits
        }
        if mapped == circuits:
            count += 1
    assert count == 168


def test_aut_uniform():
    assert automorphisms(uniform_matroid(2, 5)).order == 120
    assert automorphisms(uniform_matroid(3, 7)).order == 5040
    g = automorphisms(uniform_matroid(1, 4))
    assert g.order == 24


def test_aut_orders_of_catalog(vamos, k33dual, steiner348):
    assert automorphisms(vamos).order == 64
    assert automorphisms(k33dual).order == 72
    assert automorphisms(steiner348).order == 1344


def _generated(generators, d):
    identity = tuple(range(1, d + 1))
    have = {identity}
    queue = [identity]
    while queue:
        x = queue.pop()
        for gen in generators:
            z = tuple(gen[x[p - 1] - 1] for p in range(1, d + 1))
            if z not in have:
                have.add(z)
                queue.append(z)
    return have


def test_generators_generate(fano):
    group = automorphisms(fano)
    assert len(_generated(group.generators, 7)) == group.order


def test_orbit_sizes_divide_group_order(fano):
    group = automorphisms(fano)
    report = md.min_above_general(fano)
    for rep, members in group_by_symmetry(report.maximal, fano):
        assert group.order % len(members) == 0


def test_group_by_symmetry_fano(fano):
    report = md.min_above_general(fano)
    classes = group_by_symmetry(report.maximal, fano)
    assert sorted(len(mem) for _, mem in classes) == [1, 7, 7, 7]


def test_group_by_symmetry_k33dual(k33dual):
    report = md.min_above_rank4(k33dual)
    classes = group_by_symmetry(report.maximal, k33dual)
    assert sorted(len(mem) for _, mem in classes) == [1, 6, 9, 9, 9]


def test_group_by_symmetry_singleton(fano):
    assert len(group_by_symmetry([fano], fano)) == 1


@pytest.fixture(scope="module")
def six_point_sample():
    rng = random.Random(606)
    return rng.sample(list(md.all_matroids(6, 6)), 40)


def test_automorphisms_match_brute_force(six_point_sample):
    for m in six_point_sample:
        group = automorphisms(m)
        expected = brute_automorphisms(m)
        assert group.order == len(expected)
        assert _generated(group.generators, m.d) == expected


def test_are_isomorphic_matches_bijection_search(six_point_sample):
    # pair each matroid with itself and with another of the same rank and
    # circuit count, each relabeled; canonical forms must decide both
    rng = random.Random(607)
    peers = {}
    for m in md.all_matroids(6, 6):
        peers.setdefault((m.n, len(m.circuit_masks)), []).append(m)
    outcomes = []
    for a in six_point_sample:
        for b in (a, rng.choice(peers[a.n, len(a.circuit_masks)])):
            perm = list(range(1, 7))
            rng.shuffle(perm)
            b = relabel(b, tuple(perm))
            expected = brute_isomorphic(a, b)
            assert are_isomorphic(a, b) == expected
            assert (canonical_form(a) == canonical_form(b)) == expected
            outcomes.append(expected)
    assert outcomes.count(False) >= 20 and outcomes.count(True) >= 40


def test_refuses_more_ties_than_the_limit():
    # U(2,9) plus a loop has 9! automorphisms, more than the search stores
    m = designate_loop(uniform_matroid(2, 10), 10)
    with pytest.raises(_GroundSetTooLarge):
        automorphisms(m)
