"""Matroid construction, rank machinery and structural predicates."""

import random
import tracemalloc
from itertools import combinations
from math import comb

import pytest

import matdeg as md
from matdeg import (
    AxiomViolation,
    RankMismatch,
    closure,
    cyclic_flats,
    deletion,
    dependent_hyperplanes,
    designate_loop,
    dual,
    is_inductively_connected,
    is_nilpotent,
    is_paving,
    matroid_from_circuits,
    rank_of,
    restriction,
    simplify,
    truncation,
    uniform_matroid,
)
from matdeg.bitsets import MAX_GROUND, canon_key, mask_of, points_of
from matdeg.core import (
    _CYCLIC_FLAT_SUBSETS_MAX,
    _GroundSetTooLarge,
    _degrees,
    _subspace_data,
    check_circuit_axioms,
)

from oracles import (
    brute_closure,
    brute_cyclic_flats,
    brute_elimination_ok,
    brute_lift,
    brute_rank,
)


def test_canon_key_order():
    # the int key orders subsets by (size, point tuple): on every subset of
    # [10], and on seeded masks of [64] that use the top bit
    def reference(mask):
        return (mask.bit_count(), points_of(mask))

    masks = list(range(1 << 10))
    assert sorted(masks, key=canon_key) == sorted(masks, key=reference)
    rng = random.Random(5)
    top = 1 << (MAX_GROUND - 1)
    masks = [rng.getrandbits(MAX_GROUND) & rng.getrandbits(MAX_GROUND) for _ in range(2000)]
    masks += [m | top for m in masks] + [top, top | 1, (top << 1) - 1]
    assert sorted(masks, key=canon_key) == sorted(masks, key=reference)


def test_ground_set_limit():
    # 64 points is the most the int subset key orders; the search runs there
    with pytest.raises(ValueError):
        uniform_matroid(1, MAX_GROUND + 1)
    line = uniform_matroid(1, MAX_GROUND)
    loops = {designate_loop(line, p) for p in range(1, MAX_GROUND + 1)}
    assert set(md.min_above(line).maximal) == loops
    # C(64, 11) circuits are refused before any is built; U(2, 64), the
    # largest a low-rank search leaf needs, is built
    with pytest.raises(ValueError, match="circuits"):
        uniform_matroid(10, MAX_GROUND)
    assert len(uniform_matroid(2, MAX_GROUND).circuit_masks) == comb(MAX_GROUND, 3)


def test_uniform_construction():
    m = matroid_from_circuits(6, 2, combinations(range(1, 7), 3), validate=True)
    assert m == uniform_matroid(2, 6)
    assert m.n == 2


def test_fano_accepted(fano):
    # lines plus every 4-subset not containing one; redundant supersets are
    # dropped by normalization, so feeding lines + all 4-subsets is enough
    lines = [(1, 2, 4), (1, 3, 7), (1, 5, 6), (2, 3, 5), (4, 5, 7), (2, 6, 7), (3, 4, 6)]
    m = matroid_from_circuits(
        7, 3, lines + list(combinations(range(1, 8), 4)), validate=True
    )
    assert m == fano


def test_elimination_axiom_violation():
    with pytest.raises(AxiomViolation):
        matroid_from_circuits(4, 2, [(1, 2, 3), (1, 2, 4)], validate=True)


def test_elimination_check_matches_scan():
    # random circuit families, most of them no matroid: the one-lookup
    # check must agree with a scan of the whole family for each elimination
    rng = random.Random(505)
    outcomes = set()
    for _ in range(3000):
        d = rng.randint(3, 6)
        family = {rng.randrange(1, 1 << d) for _ in range(rng.randint(1, 7))}
        m = matroid_from_circuits(d, None, family)
        expected = brute_elimination_ok(m.circuit_masks)
        try:
            check_circuit_axioms(m)
            ok = True
        except AxiomViolation:
            ok = False
        assert ok == expected, m.circuits
        outcomes.add(ok)
    assert outcomes == {True, False}


def test_points_checked_before_shifting():
    # shifted first, a point of 10**9 would build a 125 MB mask and one of
    # 10**20 would overflow
    tracemalloc.start()
    try:
        for raw in ((1, 10**9), (10**20,), (0, 1), (-1,), -1):  # -1: an int mask
            with pytest.raises(ValueError, match="not a subset"):
                matroid_from_circuits(3, None, [raw])
            with pytest.raises(ValueError, match="not a subset"):
                md.induce([(raw, 1)], 3, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_out_of_range_subsets_refused(fano):
    # every query that takes a subset, as points or as a mask, checks it
    # against [d]; deletion must not drop a point it does not hold
    hg = md.delta_of_matroid(fano)
    calls = (
        lambda: rank_of(fano, (8,)),
        lambda: rank_of(fano, (0,)),
        lambda: rank_of(fano, 1 << 7),
        lambda: closure(fano, (9,)),
        lambda: restriction(fano, (1, 2, 9)),
        lambda: deletion(fano, (9,)),
        lambda: md.valuation(hg, (12,)),
        lambda: md.valuation(hg, 1 << 11),
        lambda: md.valuation(hg, -1),
    )
    for call in calls:
        with pytest.raises(ValueError, match="not a subset"):
            call()
    assert rank_of(fano, (1, 2, 7)) == 3 and rank_of(fano, 0b1111111) == 3


def test_constructors_refuse_garbage(fano):
    with pytest.raises(ValueError):
        uniform_matroid(-1, 5)
    for perm in ((1,) * 7, (1, 2, 3), (2, 1, 3, 4, 5, 6, 7, 8), (0, 1, 2, 3, 4, 5, 6)):
        with pytest.raises(ValueError, match="permutation"):
            md.relabel(fano, perm)
    assert md.relabel(fano, tuple(range(1, 8))) == fano


def test_rank_mismatch():
    # a single parallel pair on [4] has rank 3, not 2
    with pytest.raises(RankMismatch):
        matroid_from_circuits(4, 2, [(1, 2)], validate=False)


def test_rank_examples(fano, qs):
    assert rank_of(uniform_matroid(2, 7), (1, 2, 3)) == 2
    assert rank_of(fano, (1, 2, 4)) == 2
    assert rank_of(qs, (1, 2, 3, 4)) == 3


def test_rank_against_brute_force(small_matroids):
    random.seed(7)
    for m in random.sample(small_matroids[5], 40):
        for _ in range(5):
            sub = tuple(p for p in range(1, 6) if random.random() < 0.5)
            assert rank_of(m, sub) == brute_rank(m, sub)


def test_closure_examples(fano, qs):
    assert closure(uniform_matroid(3, 8), (1, 2)) == frozenset({1, 2})
    assert closure(fano, (1, 2)) == frozenset({1, 2, 4})
    assert closure(qs, (1, 2)) == frozenset({1, 2, 3})


def test_closure_properties(small_matroids):
    random.seed(11)
    for m in random.sample(small_matroids[5], 25):
        sub = tuple(p for p in range(1, 6) if random.random() < 0.5)
        cl = closure(m, sub)
        assert set(sub) <= cl
        assert closure(m, cl) == cl
        assert cl == brute_closure(m, sub)


def test_submodularity(small_matroids, fano, vamos):
    random.seed(3)
    pool = random.sample(small_matroids[5], 20) + [fano, vamos]
    for m in pool:
        for _ in range(10):
            a = tuple(p for p in range(1, m.d + 1) if random.random() < 0.4)
            b = tuple(p for p in range(1, m.d + 1) if random.random() < 0.4)
            ra, rb = rank_of(m, a), rank_of(m, b)
            ru = rank_of(m, set(a) | set(b))
            ri = rank_of(m, set(a) & set(b))
            assert ra + rb >= ru + ri
            assert ra <= len(a)


def test_cyclic_flats(fano):
    # uniform rank 2: the full ground set is the only cyclic flat
    assert cyclic_flats(uniform_matroid(2, 6)) == (((1, 2, 3, 4, 5, 6), 2),)
    got = cyclic_flats(fano)
    assert len(got) == 8  # 7 lines at rank 2, the ground set at rank 3
    assert all(r == 2 for _, r in got[:7])
    # free matroid: no circuits, no cyclic flats
    assert cyclic_flats(uniform_matroid(4, 4)) == ()


def test_cyclic_flats_subset_limit():
    # every catalog entry fits; PG(2,4) is the widest, at 1,562 subsets
    for name in md.catalog_names():
        if "<" not in name:
            m = md.catalog(name)
            assert sum(comb(m.d, k) for k in range(m.n + 1)) <= _CYCLIC_FLAT_SUBSETS_MAX
    assert len(md.catalog("pg4").cyclic_flats_masks()) == 22  # 21 lines, the plane
    # three points and d - 3 loops: rank 3 on 23 points closes exactly
    # 2,048 subsets, on 24 points 2,325
    for d in (23, 24):
        m = md.matroid_from_circuits(d, 3, [(p,) for p in range(4, d + 1)])
        if d == 23:
            assert m.cyclic_flats_masks() == ((m.loops_mask, 0),)
        else:
            with pytest.raises(md.MatdegError):
                m.cyclic_flats_masks()


def test_flats_of_rank_subset_limit():
    # twelve free points and twelve loops: the dual needs the flats of rank
    # 11, i.e. closing all 2,496,144 11-subsets of [24]; it is refused
    # before a single subset is tested
    m = md.matroid_from_circuits(24, 12, [(p,) for p in range(13, 25)])
    tested = len(m._rank_cache)
    with pytest.raises(_GroundSetTooLarge, match="2496144 subsets"):
        dual(m)
    with pytest.raises(_GroundSetTooLarge):
        dependent_hyperplanes(m)
    assert len(m._rank_cache) == tested
    # a rank that fits is still enumerated: the 12 free points are the
    # rank-1 flats, each with the loops
    assert len(m.flats_of_rank(1)) == 12


def test_cyclic_flats_against_brute(small_matroids):
    random.seed(23)
    for m in random.sample(small_matroids[5], 30):
        assert list(cyclic_flats(m)) == brute_cyclic_flats(m)


def test_loops_convention():
    m = matroid_from_circuits(4, None, [(1,), (2, 3, 4)])
    flats = cyclic_flats(m)
    assert flats[0] == ((1,), 0)  # the loop set is the rank-0 cyclic flat


def test_restriction_deletion(fano, k33dual):
    sub, mapping = restriction(fano, (1, 2, 4))
    assert sub.n == 2 and sub.d == 3
    assert sub.circuits == ((1, 2, 3),)
    assert mapping == {1: 1, 2: 2, 4: 3}
    same, _ = deletion(fano, ())
    assert same == fano
    # deleting point 5 from the k33 dual keeps the 3-circuits avoiding 5
    sub, mapping = restriction(k33dual, tuple(p for p in range(1, 10) if p != 5))
    lines = [c for c in sub.circuits if len(c) == 3]
    expect = [(1, 2, 3), (7, 8, 9), (1, 4, 7), (3, 6, 9)]
    relabeled = sorted(tuple(mapping[p] for p in c) for c in expect)
    assert sorted(lines) == relabeled


def test_dual(fano, fanodual):
    assert dual(uniform_matroid(2, 6)) == uniform_matroid(4, 6)
    for m in (fano, uniform_matroid(3, 5)):
        assert dual(dual(m)) == m
    # the catalog dual uses the published labeling, a relabeled Fano
    assert sorted(dual(fano).circuits) == sorted(
        tuple(sorted(set(range(1, 8)) - set(l)))
        for l in [(1, 2, 4), (1, 3, 7), (1, 5, 6), (2, 3, 5), (4, 5, 7), (2, 6, 7), (3, 4, 6)]
    )
    assert md.are_isomorphic(dual(fano), fanodual)


def test_k33_graphic_dual(k33dual):
    # build the graphic matroid of K(3,3) from its cycles; edge (ui, vj)
    # gets label 3*(i-1)+j, so vertex stars are the rows and columns
    edges = {}
    for i in range(3):
        for j in range(3):
            edges[("u%d" % i, "v%d" % j)] = 3 * i + j + 1
    cycles = []
    for i1, i2 in combinations(range(3), 2):
        for j1, j2 in combinations(range(3), 2):
            cycles.append(
                (3 * i1 + j1 + 1, 3 * i1 + j2 + 1, 3 * i2 + j1 + 1, 3 * i2 + j2 + 1)
            )
    import itertools

    # 6-cycles visit the left vertices in order against a column permutation
    for perm in itertools.permutations(range(3)):
        cyc = []
        for i in range(3):
            cyc.append(3 * i + perm[i] + 1)
            cyc.append(3 * ((i + 1) % 3) + perm[i] + 1)
        cycles.append(tuple(sorted(set(cyc))))
    graphic = matroid_from_circuits(9, 5, set(cycles), validate=True)
    assert dual(graphic) == k33dual


def test_truncation(k33dual):
    assert truncation(k33dual) == md.catalog("grid33")
    assert truncation(uniform_matroid(3, 6)) == uniform_matroid(2, 6)


def test_designate_loop(fano):
    m = designate_loop(fano, 6)
    assert (6,) in m.circuits
    assert rank_of(m, (6,)) == 0
    # circuits through 6 disappear, the others stay
    assert all(6 not in c or c == (6,) for c in m.circuits)
    assert (1, 2, 4) in m.circuits


def test_simplify_identity(fano):
    simple, qmap = simplify(fano)
    assert simple is fano  # its caches carry over
    assert qmap.is_identity()
    assert qmap == md.QuotientMap.identity(7)


def test_identity_lift_returns_its_argument(fano):
    m = md.matroid_from_hypergraph(md.delta_of_matroid(fano))
    assert md.QuotientMap.identity(7).lift(m) is m
    with pytest.raises(ValueError):
        md.QuotientMap.identity(6).lift(m)


def test_simplify_collapse():
    # a three-point line whose points each split in two, i.e. the simple
    # quotient has 4 classes (B'-style fixture)
    base = matroid_from_circuits(4, None, [(1, 2, 3)])
    qmap = md.QuotientMap(7, (1, 2, 2, 3, 3, 4, 4))
    lifted = qmap.lift(base)
    simple, back = simplify(lifted)
    assert simple.d == 4
    assert simple == base
    assert back.lift(simple) == lifted
    assert back.classes == ((1,), (2, 3), (4, 5), (6, 7))


def test_simplify_all_parallel():
    m = md.QuotientMap(3, (1, 1, 1)).lift(uniform_matroid(1, 1))
    simple, qmap = simplify(m)
    assert simple.d == 1 and simple.n == 1
    assert qmap.classes == ((1, 2, 3),)


def test_simplify_against_brute_force_classes():
    # every matroid on [6]: the quotient restores the input, the quotient
    # matroid is simple, and the loops and classes are the brute-force ones
    count = 0
    for m in md.all_matroids(6, 6):
        simple, qmap = simplify(m)
        assert qmap.lift(simple) == m, m.circuits
        assert simple.is_simple()
        loops = {p for p in range(1, 7) if brute_rank(m, (p,)) == 0}
        rest = [p for p in range(1, 7) if p not in loops]
        classes = []
        for p in rest:
            if not any(p in c for c in classes):
                parallel = [q for q in rest if q > p and brute_rank(m, (p, q)) == 1]
                classes.append(tuple([p] + parallel))
        assert qmap.removed_loops == loops, m.circuits
        assert qmap.classes == tuple(classes), m.circuits
        count += 1
    assert count == 3807


def _random_quotient(rng, q):
    """A quotient map onto [q] with up to three extra fiber points and up
    to two loops, labels in random positions."""
    labels = list(range(1, q + 1)) + [rng.randint(1, q) for _ in range(rng.randint(0, 3))]
    labels += [0] * rng.randint(0, 2)
    rng.shuffle(labels)
    return md.QuotientMap(len(labels), labels)


def test_lift_against_brute_force():
    # every matroid on [5] and a sample on [6], lifted through seeded
    # random maps
    rng = random.Random(12)
    inputs = list(md.all_matroids(5)) + rng.sample(list(md.all_matroids(6, 6)), 300)
    for m in inputs:
        qmap = _random_quotient(rng, m.d)
        lifted = qmap.lift(m)
        assert (lifted.d, lifted.n) == (qmap.d_source, m.n)
        assert lifted.circuit_masks == brute_lift(qmap.target, m), (m.circuits, qmap.target)


def test_subspace_table(qs):
    data = _subspace_data(qs)
    assert len(data) == 4
    assert _degrees(data) == {mask_of([p]): 2 for p in range(1, 7)}
    three = _subspace_data(md.catalog("threelines"))
    assert len(three) == 3
    assert _degrees(three)[mask_of([7])] == 3
    assert _subspace_data(uniform_matroid(3, 8)) == []


def test_paving(vamos, fano):
    assert is_paving(vamos)
    assert len(dependent_hyperplanes(vamos)) == 5
    assert is_paving(fano)
    assert len(dependent_hyperplanes(fano)) == 7
    # a matroid with a 2-circuit is not paving once the rank exceeds 2
    b1 = md.QuotientMap(7, (1, 2, 2, 3, 3, 4, 4)).lift(
        matroid_from_circuits(4, None, [(1, 2, 3)])
    )
    assert not is_paving(b1)


def test_nilpotent(qs):
    assert is_nilpotent(md.catalog("threelines"))
    assert not is_nilpotent(qs)
    assert is_nilpotent(uniform_matroid(4, 4))  # no circuits at all


def test_inductively_connected(qs, fano, small_matroids):
    ok, witness = is_inductively_connected(qs)
    assert ok and len(witness) == 6
    assert not is_inductively_connected(fano)[0]
    # nilpotent implies inductively connected, checked over an enumeration
    random.seed(5)
    for m in random.sample(small_matroids[5], 40):
        if is_nilpotent(m):
            assert is_inductively_connected(m)[0]


def test_inductively_connected_witness_from_published_example():
    # rank-4 paving matroid on [8] whose witness order interleaves the
    # planes; the search must find it
    planes = [(1, 2, 3, 4), (3, 4, 5, 6), (5, 6, 7, 8), (1, 2, 7, 8)]
    from matdeg.catalog import paving_from_hyperplanes

    m = paving_from_hyperplanes(8, 4, planes)
    ok, witness = is_inductively_connected(m)
    assert ok
    # verify the witness: prefix independent, later points of degree <= 2
    prefix = mask_of(witness[:4])
    assert rank_of(m, witness[:4]) == 4
    state = prefix
    for p in witness[4:]:
        state |= mask_of([p])
        degs = [pts for pts, _ in _subspace_data(m, state) if pts & mask_of([p])]
        assert len(degs) <= 2


def test_dual_roundtrip_on_enumeration(small_matroids):
    random.seed(19)
    for m in random.sample(small_matroids[4], 30):
        assert dual(dual(m)) == m
