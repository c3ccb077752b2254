"""Matroid construction, rank machinery and structural predicates."""

import random
from itertools import combinations

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
    subspace_table,
    truncation,
    uniform_matroid,
)
from matdeg.bitsets import mask_of
from matdeg.core import check_circuit_axioms

from oracles import brute_closure, brute_cyclic_flats, brute_elimination_ok, brute_rank


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
    assert simple == fano
    assert qmap.is_identity()


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


def test_subspace_table(qs):
    table = subspace_table(qs)
    assert len(table.subspaces) == 4
    assert all(table.degree(p) == 2 for p in range(1, 7))
    three = md.catalog("threelines")
    t2 = subspace_table(three)
    assert len(t2.subspaces) == 3
    assert t2.degree(7) == 3
    assert subspace_table(uniform_matroid(3, 8)).subspaces == ()


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
    from matdeg.core import _subspace_data

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
