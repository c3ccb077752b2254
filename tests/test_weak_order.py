"""Weak-order comparison against the dependency-inclusion oracle."""

import pickle
import random
from itertools import product

import pytest

import matdeg as md
from matdeg import formats
from matdeg import GroundSetMismatch, brute_force_leq, compare, maximal_elements, uniform_matroid

from oracles import brute_leq, depmask


def test_reflexive(fano, qs, vamos):
    for m in (fano, qs, vamos, uniform_matroid(2, 5)):
        assert compare(m, m)


def test_ground_set_mismatch(fano, qs):
    with pytest.raises(GroundSetMismatch):
        compare(fano, qs)


def test_published_incomparable_pair():
    # the line-collapse and the point-sum degenerations of the Fano plane
    # are incomparable: in each direction some cyclic flat of the larger
    # side has a larger rank in the smaller one
    a1 = md.relabel(
        md.QuotientMap(7, (1, 2, 3, 3, 3, 3, 3)).lift(
            md.matroid_from_circuits(3, None, [(1, 2, 3)])
        ),
        (1, 2, 4, 3, 5, 6, 7),
    )
    b1 = md.QuotientMap(7, (1, 2, 3, 2, 4, 4, 3)).lift(
        md.matroid_from_circuits(4, None, [(2, 3, 4)])
    )
    assert not compare(a1, b1)
    assert not compare(b1, a1)


def test_uniform_below_fano(fano):
    assert compare(uniform_matroid(2, 7), fano)
    assert not compare(fano, uniform_matroid(2, 7))
    assert brute_force_leq(uniform_matroid(2, 7), fano)


def test_uniform_chain():
    assert brute_force_leq(uniform_matroid(2, 6), uniform_matroid(3, 6))
    assert compare(uniform_matroid(2, 6), uniform_matroid(3, 6))


def test_compare_matches_oracle_exhaustive(small_matroids):
    for d in (2, 3, 4):
        ms = small_matroids[d]
        masks = [depmask(m) for m in ms]
        for i, a in enumerate(ms):
            for j, b in enumerate(ms):
                assert compare(a, b) == brute_leq(masks[i], masks[j]), (
                    a.circuits,
                    b.circuits,
                )


def test_compare_matches_oracle_sampled(small_matroids):
    random.seed(41)
    ms = small_matroids[5]
    masks = {m: depmask(m) for m in ms}
    pairs = [(random.choice(ms), random.choice(ms)) for _ in range(4000)]
    for a, b in pairs:
        assert compare(a, b) == brute_leq(masks[a], masks[b])


def test_compare_matches_oracle_all_ranks():
    # every labeled matroid on [6], ranks 0-6: pairs of unequal rank and
    # pairs with a rank >= 4 side, which the rank <= 3 families never reach
    ms = list(md.all_matroids(6, 6))
    high = [m for m in ms if m.n >= 4]
    rng = random.Random(29)
    pairs = [(rng.choice(ms), rng.choice(ms)) for _ in range(1500)]
    pairs += [(rng.choice(high), rng.choice(ms)) for _ in range(750)]
    pairs += [(rng.choice(ms), rng.choice(high)) for _ in range(750)]
    # a degeneration of each high-rank matroid lies below it
    pairs += [(md.designate_loop(m, 1 + i % 6), m) for i, m in enumerate(high[:300])]
    outcomes = set()
    for a, b in pairs:
        expected = brute_force_leq(a, b)
        assert compare(a, b) == expected, (a.circuits, b.circuits)
        outcomes.add((expected, a.n == b.n, max(a.n, b.n) >= 4))
    # (leq, equal rank, a rank >= 4 side): every combination occurs
    assert outcomes == set(product((True, False), repeat=3))


def test_transitivity_sampled(small_matroids):
    random.seed(13)
    ms = small_matroids[4]
    for _ in range(3000):
        a, b, c = (random.choice(ms) for _ in range(3))
        if compare(a, b) and compare(b, c):
            assert compare(a, c)
        if compare(a, b) and compare(b, a):
            assert a == b  # antisymmetry up to equality


def test_maximal_elements(fano):
    u27 = uniform_matroid(2, 7)
    assert maximal_elements([u27, fano]) == [fano]
    assert maximal_elements([fano, fano]) == [fano]
    # an antichain goes through untouched
    a = md.designate_loop(fano, 1)
    b = md.designate_loop(fano, 2)
    assert maximal_elements([a, b]) == sorted([a, b], key=lambda m: m.sort_key())


def test_maximal_elements_is_antichain(small_matroids):
    random.seed(17)
    sample = random.sample(small_matroids[5], 60)
    out = maximal_elements(sample)
    for i, a in enumerate(out):
        for b in out[i + 1 :]:
            assert not compare(a, b) and not compare(b, a)
    # every input lies below some survivor
    for m in sample:
        assert any(compare(m, k) for k in out)


def _leaves(m):
    """The degenerations of m: its search leaves and its designated loops."""
    return list(md.min_above(m).maximal)


def _parsed(m):
    """m read back from its JSON form: a fresh instance, no caches."""
    return formats.matroid_from_obj(formats.matroid_to_obj(m))


def _constructed_pool(fano):
    """Matroids on [6] and [7] from every constructor: catalog entries,
    search leaves, their relabelings and designated loops, and lifts of
    search leaves and of uniform matroids; and parsed sources."""
    rng = random.Random(53)
    sources = [_parsed(m) for m in md.all_matroids(6, 6) if m.n >= 2]
    pool = [md.uniform_matroid(n, d) for d in (6, 7) for n in range(d + 1)]
    pool += [md.catalog(name) for name in ("fano", "fanodual", "threelines", "qs", "threepairs")]
    for m in rng.sample(sources, 12) + [fano]:
        pool += _leaves(m)
    for m in list(pool):
        pool.append(md.relabel(m, rng.sample(range(1, m.d + 1), m.d)))
        pool.append(md.designate_loop(m, rng.randint(1, m.d)))
    for target in ((1, 1, 2, 2, 3, 0), (1, 2, 1, 3, 0, 4), (1, 1, 1, 2, 3, 4)):
        qmap = md.QuotientMap(6, target)
        small = [md.uniform_matroid(n, qmap.q) for n in range(qmap.q + 1)]
        for m in rng.sample([m for m in md.all_matroids(qmap.q, 4) if m.n >= 2], 4):
            small += _leaves(m)
        pool += [qmap.lift(x) for x in small]
    return pool, sources


def test_constructed_matroids_match_oracle(fano):
    pool, sources = _constructed_pool(fano)
    # compare stops at the first circuit larger than the rank: it needs
    # every circuit list sorted by size
    for m in pool + sources:
        sizes = [c.bit_count() for c in m.circuit_masks]
        assert sizes == sorted(sizes), m.circuits
    rng = random.Random(59)
    by_d = {d: [m for m in pool if m.d == d] for d in (6, 7)}
    pairs = []
    for ms in by_d.values():
        pairs += [(rng.choice(ms), rng.choice(ms)) for _ in range(1500)]
    # constructed matroids against parsed ones, either way round
    pairs += [(rng.choice(sources), rng.choice(by_d[6])) for _ in range(1000)]
    pairs += [(rng.choice(by_d[6]), rng.choice(sources)) for _ in range(500)]
    outcomes = set()
    for a, b in pairs:
        expected = brute_force_leq(a, b)
        assert compare(a, b) == expected, (a.circuits, b.circuits)
        outcomes.add((expected, a.n > b.n))
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_compare_is_false_above_the_rank(fano):
    # N <= M forces rank(N) <= rank(M), on either side of a search leaf
    leaves = _leaves(fano)
    assert {m.n for m in leaves} == {2, 3}
    for m in leaves:
        for n in range(m.n + 1, 8):
            assert not compare(md.uniform_matroid(n, 7), m)
        for n in range(m.n):
            assert not compare(m, md.uniform_matroid(n, 7))


def test_pickle_round_trip(fano):
    for m in md.min_above(fano).maximal + (fano, _parsed(fano)):
        back = pickle.loads(pickle.dumps(m))
        assert back == m
        assert (back.d, back.n, back.circuit_masks) == (m.d, m.n, m.circuit_masks)


def test_compare_computes_no_cyclic_flats(fano):
    # compare reads circuits only, on fresh instances either way round
    vamos = md.catalog("vamos")
    for a, b in ((fano, md.catalog("fanodual")), (vamos, md.designate_loop(vamos, 3))):
        a, b = _parsed(a), _parsed(b)
        assert [compare(a, b), compare(b, a)] == [brute_force_leq(a, b), brute_force_leq(b, a)]
        assert a._cyclic_flats is None and b._cyclic_flats is None
