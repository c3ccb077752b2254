"""Labeled hypergraphs: normalization, the matroid encoding, valuations."""

import random

import pytest

import matdeg as md
from matdeg import (
    ConditionsFailed,
    check_matroid_conditions,
    delta_of_matroid,
    induce,
    leq_hyper,
    matroid_from_hypergraph,
    uniform_matroid,
    valuation,
)
from matdeg.bitsets import mask_of
from matdeg.catalog import FANO_LINES
from matdeg.hypergraph import _normalize_edges, reduce as reduce_hypergraph, with_edge
from matdeg.search import _scan_rank4

from oracles import depmask, brute_leq


def edge_sets(hg):
    return set(hg.edge_points())


def test_induce_already_normalized():
    hg = induce([((1, 2, 4), 2), ((1, 3, 5), 2)], 5, 3)
    assert edge_sets(hg) == {((1, 2, 4), 2), ((1, 3, 5), 2)}


def test_induce_nesting_rule():
    hg = induce([((1, 2, 3), 2), ((1, 2, 3, 4), 2)], 4, 3)
    assert edge_sets(hg) == {((1, 2, 3, 4), 2)}


def test_induce_size_rule():
    assert induce([((1, 2), 2)], 4, 3).edges == ()


def test_induce_refuses_bad_input():
    with pytest.raises(ValueError):
        induce([((1, 5), 1)], 4, 3)  # point 5 lies outside [4]
    with pytest.raises(ValueError):
        induce([((), 1)], 4, 3)
    with pytest.raises(ValueError):
        induce([], 65, 3)
    with pytest.raises(ValueError):
        induce([], 4, -1)


def test_with_edge_matches_normalization():
    # one-edge insertion equals normalizing the edges plus the new one, on
    # seeded random normalized hypergraphs and chains of insertions
    rng = random.Random(13)
    for _ in range(400):
        d = rng.randint(1, 9)
        n = rng.randint(0, 4)
        full = (1 << d) - 1
        hg = induce([(rng.randint(1, full), rng.randint(0, n)) for _ in range(8)], d, n)
        for _ in range(6):
            if hg.edges and rng.random() < 0.4:
                mask = rng.choice(hg.edges)[0]  # an edge already there
            else:
                mask = rng.randint(1, full)
            bound = rng.randint(0, n)
            expected = _normalize_edges(hg.edges + ((mask, bound),), n)
            hg = with_edge(hg, mask, bound)
            assert hg.edges == expected
    # the mask is there with a larger bound and lies in a same-bound edge:
    # the old entry goes, and the new edge is not inserted
    hg = induce([((1, 2, 3, 4, 5), 2), ((1, 2, 3, 4), 3)], 5, 4)
    assert edge_sets(with_edge(hg, mask_of((1, 2, 3, 4)), 2)) == {((1, 2, 3, 4, 5), 2)}


def test_delta_of_matroid(fano):
    delta = delta_of_matroid(fano)
    assert edge_sets(delta) == {(l, 2) for l in FANO_LINES}
    # a cyclic flat of full rank bounds nothing and stays out
    assert delta_of_matroid(uniform_matroid(3, 8)).edges == ()
    assert delta_of_matroid(uniform_matroid(4, 4)).edges == ()


def test_leq_hyper_examples(fano):
    delta = delta_of_matroid(fano)
    assert leq_hyper(fano, delta)
    assert not leq_hyper(uniform_matroid(3, 7), delta)
    assert leq_hyper(uniform_matroid(2, 7), delta)


def test_leq_hyper_delta_example():
    # the double-point hypergraph below which the Fano degenerations live
    hg = induce([((3, 7), 1)] + [(l, 2) for l in FANO_LINES], 7, 3)
    a1 = md.QuotientMap(7, (1, 2, 3, 3, 3, 3, 3)).lift(
        md.matroid_from_circuits(3, None, [(1, 2, 3)])
    )
    # relabel so the intact line is {1,2,4} and the class is {3,5,6,7}
    a1 = md.relabel(a1, (1, 2, 4, 3, 5, 6, 7))
    b1 = md.QuotientMap(7, (1, 2, 3, 2, 4, 4, 3)).lift(
        md.matroid_from_circuits(4, None, [(2, 3, 4)])
    )
    assert leq_hyper(a1, hg)
    assert leq_hyper(b1, hg)


def test_reduce_published_example():
    raw = [((3, 7), 1)] + [(l, 2) for l in FANO_LINES]
    red, qmap = reduce_hypergraph(induce(raw, 7, 3))
    assert red.d == 6
    assert qmap.classes == ((1,), (2,), (3, 7), (4,), (5,), (6,))
    assert edge_sets(red) == {
        ((1, 2, 4), 2),
        ((1, 5, 6), 2),
        ((2, 3, 5), 2),
        ((3, 4, 5), 2),
        ((3, 4, 6), 2),
        ((2, 3, 6), 2),
    }


def test_reduce_identity_and_chain():
    hg = induce([((1, 2, 3), 2)], 4, 3)
    red, qmap = reduce_hypergraph(hg)
    assert qmap.is_identity() and red == hg
    chained, qmap = reduce_hypergraph(induce([((1, 2), 1), ((2, 3), 1)], 4, 3))
    assert qmap.classes == ((1, 2, 3), (4,))
    red_with_loop = induce([((1,), 0)], 3, 2)
    with pytest.raises(ValueError):
        reduce_hypergraph(red_with_loop)


def test_valuation():
    empty = induce([], 6, 3)
    assert valuation(empty, (1, 2, 3, 4)) == 3
    assert valuation(empty, (1, 2)) == 2
    whole = induce([((1, 2, 3, 4, 5, 6, 7), 2)], 7, 3)
    assert valuation(whole, (1, 2, 3, 4)) == 2
    mixed = induce([(l, 2) for l in FANO_LINES] + [((3, 7), 1)], 7, 3)
    assert valuation(mixed, (1, 3, 7)) == 2
    # a mask in [d] is taken as it is; one outside [d] is refused
    assert valuation(mixed, 0b1000101) == 2
    with pytest.raises(ValueError, match="not a subset"):
        valuation(mixed, 1 << 7)


def test_check_matroid_conditions(fano):
    single = induce([((1, 2, 3, 4), 2)], 6, 3)
    assert check_matroid_conditions(single)
    assert check_matroid_conditions(delta_of_matroid(fano))
    bad = induce([((1, 2, 3, 4), 2), ((3, 4, 5, 6), 2)], 6, 4)
    assert _scan_rank4(bad, 4) is not None
    assert not check_matroid_conditions(bad)


def test_matroid_from_hypergraph(fano):
    assert matroid_from_hypergraph(induce([], 5, 3)) == uniform_matroid(3, 5)
    assert matroid_from_hypergraph(delta_of_matroid(fano)) == fano
    whole = induce([((1, 2, 3, 4, 5, 6), 2)], 6, 3)
    assert matroid_from_hypergraph(whole) == uniform_matroid(2, 6)
    with pytest.raises(ConditionsFailed):
        matroid_from_hypergraph(
            induce([((1, 2, 3, 4), 2), ((3, 4, 5, 6), 2)], 6, 4)
        )


def test_non_transitive_pairs_are_refused():
    # the pairs 1~3, 1~5, 2~3 are not closed under transitivity: their
    # edge-induced family breaks circuit elimination, so it is no matroid
    hg = induce([((1, 3), 1), ((1, 5), 1), ((2, 3), 1)], 5, 3)
    assert not check_matroid_conditions(hg)
    with pytest.raises(ConditionsFailed):
        matroid_from_hypergraph(hg)


def test_leq_hyper_bounds_rank(small_matroids):
    # below a hypergraph, ranks never exceed the valuation
    random.seed(2)
    hg = induce([((1, 2, 3), 2), ((3, 4, 5), 2), ((1, 4), 1)], 5, 3)
    for m in small_matroids[5]:
        if leq_hyper(m, hg):
            for _ in range(4):
                sub = tuple(p for p in range(1, 6) if random.random() < 0.5)
                assert md.rank_of(m, sub) <= valuation(hg, sub)


def test_matroid_from_hypergraph_is_unique_max(small_matroids):
    hg = induce([((1, 2, 3), 2), ((3, 4, 5), 2)], 5, 3)
    top = matroid_from_hypergraph(hg)
    assert leq_hyper(top, hg)
    dm_top = depmask(top)
    for m in small_matroids[5]:
        if leq_hyper(m, hg):
            assert brute_leq(depmask(m), dm_top)


def test_delta_reproduces_weak_order(small_matroids):
    # N <= M in dependency terms iff N lies below the cyclic-flat hypergraph
    ms = small_matroids[4]
    masks = [(depmask(m), m) for m in ms]
    for dm_m, m in masks[:60]:
        delta = delta_of_matroid(m)
        for dm_n, n in masks:
            if n.n <= m.n:
                assert leq_hyper(n, delta) == brute_leq(dm_n, dm_m)


def test_reduce_preserves_degenerations(small_matroids):
    # matroids below the reduced hypergraph lift to loopless matroids below
    # the original, bijectively
    hg = induce([((1, 2), 1), ((1, 3, 4), 2)], 4, 3)
    red, qmap = reduce_hypergraph(hg)
    below_red = [
        m
        for m in small_matroids[3]
        if m.n <= 3 and m.loops_mask == 0 and leq_hyper(m, red)
    ]
    lifted = {qmap.lift(m) for m in below_red}
    loopless_below = {
        m
        for m in small_matroids[4]
        if m.n <= 3 and m.loops_mask == 0 and leq_hyper(m, hg)
    }
    assert lifted == loopless_below
