"""Degeneration searches against the published families and brute force."""

import random
from functools import partial
from itertools import combinations

import pytest

import matdeg as md
from matdeg import (
    compare,
    delta_of_matroid,
    designate_loop,
    induce,
    min_above_general,
    min_above_hyp,
    min_above_hyp_rank4,
    min_above_rank4,
    stratum_min,
    uniform_matroid,
)
from matdeg import search
from matdeg.cli import main
from matdeg.bitsets import mask_of, masks_of_size, submasks_of_size
from matdeg.core import _normalize_circuit_masks
from matdeg.catalog import (
    FANO_LINES,
    FANO_DUAL_PLANES,
    STEINER348_BLOCKS,
    k33dual_degeneration_reps,
)
from matdeg.enumeration import set_partitions
from matdeg.experiments import block_collapse, point_sum
from matdeg.isomorphism import automorphisms, orbit_of
from matdeg.search import _low_rank_matroid, _sig_leq
from matdeg.weak_order import brute_force_leq

from oracles import brute_max_below, depmask, dual_depmask


def fano_expected():
    out = [uniform_matroid(2, 7)]
    fano = md.catalog("fano")
    out += [designate_loop(fano, i) for i in range(1, 8)]
    out += [block_collapse(7, 3, line) for line in FANO_LINES]
    out += [point_sum(7, 3, FANO_LINES, i) for i in range(1, 8)]
    return set(out)


def test_min_above_fano_exact(fano):
    report = min_above_general(fano)
    assert report.complete
    assert set(report.maximal) == fano_expected()
    assert len(report.maximal) == 22


def test_min_above_u12():
    report = min_above_general(uniform_matroid(1, 2))
    assert {m.circuits for m in report.maximal} == {((1,),), ((2,),)}


def test_min_above_small_vs_bruteforce(small_matroids):
    # exact agreement with the enumeration oracle on every matroid on [4]
    universe = [(depmask(m), m) for m in small_matroids[4]]
    for m in small_matroids[4]:
        report = min_above_general(m)
        expect = brute_max_below(m, universe)
        assert list(report.maximal) == expect, m.circuits


def test_min_above_qs_contains_uniform(qs):
    report = min_above_general(qs)
    assert uniform_matroid(2, 6) in set(report.maximal)
    for n in report.maximal:
        assert compare(n, qs) and n != qs


def test_report_is_antichain(fano):
    report = min_above_general(fano)
    for i, a in enumerate(report.maximal):
        for b in report.maximal[i + 1 :]:
            assert not compare(a, b) and not compare(b, a)


def test_min_above_hyp_trivial(fano):
    # the cyclic-flat hypergraph of a matroid has that matroid as its
    # unique maximal degeneration
    assert min_above_hyp(delta_of_matroid(fano)) == [fano]
    hg = induce([((1, 2, 3, 4, 5), 2)], 5, 3)
    assert min_above_hyp(hg) == [uniform_matroid(2, 5)]


def test_leaf_order_against_bruteforce():
    # every quotient map on [5]: a loop set and a partition of the rest
    leaves = []
    for k in range(6):
        for loops in combinations(range(1, 6), k):
            rest = [p for p in range(1, 6) if p not in loops]
            for part in set_partitions(rest):
                leaves.append(md.QuotientMap.collapsing(5, mask_of(loops), map(mask_of, part)))
    assert len(set(leaves)) == 203
    identity = md.QuotientMap.identity(5)
    matroids = [_low_rank_matroid(identity, leaf) for leaf in leaves]
    for a, ma in zip(leaves, matroids):
        for b, mb in zip(leaves, matroids):
            assert _sig_leq(a, b) == brute_force_leq(ma, mb), (a.target, b.target)


def test_leaf_circuits_against_raw_subsets(small_matroids, monkeypatch):
    # every stable leaf the searches on the small matroids reach has as
    # circuits the minimal members of all (b+1)-subsets of its edges and
    # all (n+1)-subsets of [d]
    build = search._matroid_from_hypergraph_unchecked
    leaves = {}

    def recording(hg):
        leaves[hg] = build(hg)
        return leaves[hg]

    monkeypatch.setattr(search, "_matroid_from_hypergraph_unchecked", recording)
    for ms in small_matroids.values():
        for m in ms:
            min_above_general(m)
    assert len(leaves) > 100
    for hg, leaf in leaves.items():
        raw = [s for e, b in hg.edges for s in submasks_of_size(e, b + 1)]
        raw += masks_of_size(hg.d, hg.n + 1)
        assert leaf.circuit_masks == _normalize_circuit_masks(raw)


def test_min_above_hyp_published_example(small_matroids, fano):
    # Fano lines plus one double point: six labeled maximal matroids in
    # four isomorphism classes (two loop placements and two line collapses
    # merge under relabeling)
    hg = induce([((3, 7), 1)] + [(l, 2) for l in FANO_LINES], 7, 3)
    got = min_above_hyp(hg)
    expected = {
        designate_loop(fano, 3),
        designate_loop(fano, 7),
        block_collapse(7, 3, (1, 2, 4)),
        block_collapse(7, 3, (1, 5, 6)),
        point_sum(7, 3, FANO_LINES, 1),
        md.QuotientMap(7, (1, 2, 3, 4, 5, 6, 3)).lift(uniform_matroid(2, 6)),
    }
    assert set(got) == expected
    classes = []
    for m in got:
        for cls in classes:
            if md.are_isomorphic(m, cls[0]):
                cls.append(m)
                break
        else:
            classes.append([m])
    assert sorted(len(c) for c in classes) == [1, 1, 2, 2]
    assert len(classes) == 4


def test_min_above_hyp_rank4_published_example():
    lam = induce([((1, 3, 4), 2), ((1, 2, 5, 6), 3), ((3, 4, 5, 6), 3)], 6, 4)
    got = min_above_hyp_rank4(lam)
    m1 = md.matroid_from_hypergraph(
        induce([((1, 3, 4), 2), ((1, 2, 3, 4, 5, 6), 3)], 6, 4)
    )
    m2 = md.matroid_from_hypergraph(
        induce([((1, 3, 4), 2), ((1, 5, 6), 2), ((1, 3, 4, 5, 6), 3)], 6, 4)
    )
    m3 = md.QuotientMap(6, (1, 2, 3, 3, 4, 5)).lift(
        md.matroid_from_circuits(5, None, [(1, 2, 4, 5)])
    )
    assert set(got) == {m1, m2, m3}


def test_threepairs_ten(small_matroids):
    m = md.catalog("threepairs")
    report = min_above_rank4(m)
    expected = {uniform_matroid(3, 6)}
    pairs = {1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5}
    for c in range(1, 7):
        p = pairs[c]
        others = [x for x in (1, 3, 5) if x not in (c, p)]
        rest = tuple(sorted(set(range(1, 7)) - {c}))
        edges = [((p,) + (o, pairs[o]), 2) for o in others]
        edges.append((rest, 3))
        expected.add(md.matroid_from_hypergraph(induce(edges, 6, 4)))
    for a, b in ((1, 2), (3, 4), (5, 6)):
        target = []
        nxt = 1
        for p in range(1, 7):
            if p == b:
                target.append(target[a - 1])
            else:
                target.append(nxt)
                nxt += 1
        quad = tuple(sorted(set(range(1, 7)) - {a, b}))
        core = md.matroid_from_circuits(
            5, None, [tuple(target[p - 1] for p in quad)]
        )
        expected.add(md.QuotientMap(6, tuple(target)).lift(core))
    assert set(report.maximal) == expected
    assert len(report.maximal) == 10


def expand_orbit(m, group):
    return orbit_of(m, group)


def test_k33dual_exact(k33dual):
    report = min_above_rank4(k33dual)
    group = automorphisms(k33dual)
    reps = k33dual_degeneration_reps()
    expected = {md.catalog("grid33")}
    for key in ("fused_square", "fused_columns", "fused_two_pairs"):
        expected |= expand_orbit(reps[key], group)
    expected |= {designate_loop(k33dual, i) for i in range(1, 10)}
    assert set(report.maximal) == expected
    assert len(report.maximal) == 34


def test_steiner348_exact(steiner348):
    report = min_above_rank4(steiner348)
    expected = {uniform_matroid(3, 8)}
    expected |= {block_collapse(8, 4, b) for b in STEINER348_BLOCKS}
    expected |= {point_sum(8, 4, STEINER348_BLOCKS, i) for i in range(1, 9)}
    expected |= {designate_loop(steiner348, i) for i in range(1, 9)}
    assert set(report.maximal) == expected
    assert len(report.maximal) == 31


def test_fanodual_exact(fanodual):
    report = min_above_rank4(fanodual)
    expected = {uniform_matroid(3, 7)}
    expected |= {block_collapse(7, 4, h) for h in FANO_DUAL_PLANES}
    expected |= {point_sum(7, 4, FANO_DUAL_PLANES, i) for i in range(1, 8)}
    expected |= {designate_loop(fanodual, i) for i in range(1, 8)}
    assert set(report.maximal) == expected
    assert len(report.maximal) == 22


def test_stratum_v4_single_outputs(vamos):
    # in the top stratum the search stack never branches
    out = stratum_min(vamos, 4)
    for m in out:
        assert all(len(c) >= 4 for c in m.circuits)


def test_strata_are_disjoint(vamos):
    seen = {}
    for v in (2, 3, 4):
        for m in stratum_min(vamos, v):
            assert m not in seen
            seen[m] = v


def test_vamos_low_strata_below_published_families(vamos):
    from matdeg.catalog import paving_from_hyperplanes

    b1 = paving_from_hyperplanes(
        8, 4, [(1, 2, 3, 4, 5, 6), (5, 6, 7, 8), (1, 2, 7, 8), (3, 4, 7, 8)]
    )
    b2 = paving_from_hyperplanes(
        8, 4, [(1, 2, 5, 6, 7, 8), (1, 2, 3, 4), (3, 4, 5, 6), (3, 4, 7, 8)]
    )
    c1 = paving_from_hyperplanes(
        8, 4, [(3, 4, 5, 6, 7, 8), (1, 2, 3, 4), (1, 2, 7, 8)]
    )
    c2 = paving_from_hyperplanes(
        8, 4, [(1, 2, 3, 4, 7, 8), (3, 4, 5, 6), (5, 6, 7, 8)]
    )
    def identify(a, b):
        target = []
        nxt = 1
        for p in range(1, 9):
            if p == b:
                target.append(target[a - 1])
                continue
            target.append(nxt)
            nxt += 1
        qmap = md.QuotientMap(8, tuple(target))
        sub, mapping = md.restriction(vamos, tuple(p for p in range(1, 9) if p != b))
        return qmap.lift(sub)

    d1, d2 = identify(3, 4), identify(7, 8)
    e1, e2 = identify(1, 2), identify(5, 6)
    group = automorphisms(vamos)
    # the eight apex matroids (one point collinear with three couples) fall
    # into two automorphism orbits: for apexes off the middle couples the
    # fourth-circuit triple swaps (3,4,7,8) for (1,2,5,6)
    f_family = expand_orbit(
        md.matroid_from_circuits(
            8,
            None,
            [(1, 3, 4), (1, 5, 6), (1, 7, 8), (5, 6, 7, 8), (3, 4, 5, 6), (3, 4, 7, 8)]
            + [c for c in combinations(range(1, 9), 5)],
        ),
        group,
    ) | expand_orbit(
        md.matroid_from_circuits(
            8,
            None,
            [(1, 2, 3), (3, 5, 6), (3, 7, 8), (1, 2, 5, 6), (1, 2, 7, 8), (5, 6, 7, 8)]
            + [c for c in combinations(range(1, 9), 5)],
        ),
        group,
    )
    assert len(f_family) == 8
    family = {b1, b2, c1, c2, d1, d2, e1, e2} | f_family
    low = [designate_loop(vamos, i) for i in range(1, 9)]
    low += stratum_min(vamos, 2) + stratum_min(vamos, 3)
    for m in md.maximal_elements(low):
        assert any(compare(m, f) for f in family), m.circuits[:6]


def test_rank4_requires_simple_rank4(fano, qs):
    with pytest.raises(md.NotRankFour):
        min_above_rank4(fano)
    loopy = designate_loop(md.catalog("vamos"), 1)
    with pytest.raises(md.NotSimple):
        min_above_rank4(loopy)


def test_rank4_agrees_with_general(k33dual, fanodual, vamos):
    for m in (md.catalog("threepairs"), fanodual, vamos, k33dual):
        assert set(min_above_rank4(m).maximal) == set(min_above_general(m).maximal)


def test_budget_flag(fano):
    report = min_above_general(fano, max_nodes=2)
    assert not report.complete
    # 0 is a budget, not "no limit"
    assert not min_above_general(fano, max_nodes=0).complete


def test_input_picks_the_path(fano, k33dual, vamos):
    # a simple rank-4 matroid takes the rank-4 path, counters included
    auto, rank4 = md.min_above(k33dual), min_above_rank4(k33dual)
    assert list(auto.maximal) == list(rank4.maximal)
    assert _counters(auto) == _counters(rank4)
    # anything else, rank 4 but not simple included, takes the general path
    for m in (fano, designate_loop(vamos, 1)):
        auto, general = md.min_above(m), min_above_general(m)
        assert list(auto.maximal) == list(general.maximal)
        assert _counters(auto) == _counters(general)


def test_deterministic_across_threads(fano):
    serial = min_above_general(fano, threads=1)
    parallel = min_above_general(fano, threads=4)
    assert list(serial.maximal) == list(parallel.maximal)


def _recording_pool(monkeypatch, cpus):
    """Replace the search's process pool by one that records the worker
    count it is asked for and maps in this process, starting no worker;
    ``os.cpu_count`` reports ``cpus``."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(search, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
    return sizes


def test_pool_workers_bounded_by_cpus_and_jobs(monkeypatch, capsys, fano):
    serial = min_above_general(fano)
    jobs = len(search._general_roots(fano))
    for cpus, sizes in ((4, [4]), (10**6, [jobs]), (1, []), (None, [])):
        made = _recording_pool(monkeypatch, cpus)
        report = min_above_general(fano, threads=100_000)
        assert made == sizes, cpus
        assert list(report.maximal) == list(serial.maximal)
        assert _counters(report) == _counters(serial)
    # the command line passes its count through the same bound
    made = _recording_pool(monkeypatch, 2)
    monkeypatch.setenv("MATDEG_THREADS", "100000")
    assert main(["min-above", "catalog:fano", "--json"]) == 0
    from_env = capsys.readouterr().out
    monkeypatch.delenv("MATDEG_THREADS")
    assert main(["min-above", "catalog:fano", "--json", "--threads", "100000"]) == 0
    assert capsys.readouterr().out == from_env
    assert made == [2, 2]


def _counters(report):
    out = report.stats.as_dict()
    del out["wall_time"]
    return out


@pytest.mark.parametrize(
    "name, counters",
    [
        ("fano", (137, 25, 552)),
        ("k33dual", (1552, 841, 13910)),
        ("vamos", (653, 401, 19804)),
        ("ag3", (1287, 99, 4800)),
    ],
)
def test_min_above_counters_pinned(name, counters):
    # the work of a serial search, fixed for every hash seed: a change that
    # claims to do the same work must leave nodes / emitted / comparisons
    stats = md.min_above(md.catalog(name)).stats
    assert (stats.nodes, stats.emitted, stats.comparisons) == counters
    if name == "ag3":
        pooled = md.min_above(md.catalog(name), threads=2).stats
        assert (pooled.nodes, pooled.emitted, pooled.comparisons) == counters


def test_serial_and_pooled_search_agree(fano):
    threepairs = md.catalog("threepairs")
    for search, m in ((min_above_rank4, threepairs), (min_above_general, fano)):
        serial = search(m, threads=1)
        pooled = search(m, threads=2)
        assert list(pooled.maximal) == list(serial.maximal)
        assert _counters(pooled) == _counters(serial)


def test_leaf_memo_lives_for_one_call(monkeypatch, vamos, fanodual):
    # one call builds each stable hypergraph once, across roots and strata
    builds = []
    build = md.search._matroid_from_hypergraph_unchecked

    def counted(hg):
        builds.append(hg)
        return build(hg)

    monkeypatch.setattr(md.search, "_matroid_from_hypergraph_unchecked", counted)
    serial = min_above_rank4(fanodual)
    assert len(builds) == len(set(builds)) == 188
    assert serial.stats.emitted == 511
    # pooled jobs start from empty memos and agree with the serial run
    pooled = min_above_rank4(fanodual, threads=2)
    assert list(pooled.maximal) == list(serial.maximal)
    assert _counters(pooled) == _counters(serial)
    # nothing is kept between calls
    first, second = md.min_above(vamos), md.min_above(vamos)
    assert list(first.maximal) == list(second.maximal)
    assert _counters(first) == _counters(second)
    assert not any(a is b for a in first.maximal for b in second.maximal)


def test_pooled_budgets_match_serial(fano, vamos):
    serial = min_above_general(fano, max_nodes=2)
    pooled = min_above_general(fano, max_nodes=2, threads=2)
    assert not pooled.complete and not serial.complete
    assert list(pooled.maximal) == list(serial.maximal)
    assert _counters(pooled) == _counters(serial)
    for threads in (1, 2):
        with pytest.raises(md.BudgetExceeded):
            stratum_min(vamos, 2, max_nodes=1, threads=threads)


def test_search_comparisons_match_cyclic_flats(monkeypatch, fano, fanodual, k33dual, vamos, qs):
    # every comparison the searches make agrees with the cyclic-flat form
    # (Bonin and de Mier, 2008): a <= b iff rank(a) <= rank(b) and no
    # cyclic flat of b has a larger rank in a
    calls = []
    original = md.weak_order.compare

    def checked(a, b):
        got = original(a, b)
        assert got == (
            a.n <= b.n
            and all(a._rank_mask(f) <= r for f, r in b.cyclic_flats_masks() if r < a.n)
        )
        calls.append(got)
        return got

    monkeypatch.setattr(md.weak_order, "compare", checked)
    monkeypatch.setattr(md.search, "compare", checked)
    inputs = [fano, fanodual, k33dual, vamos, qs]
    inputs += [md.catalog(name) for name in ("threepairs", "threelines", "pg2", "ag3")]
    inputs += random.Random(61).sample(list(md.all_matroids(6, 6)), 300)
    for m in inputs:
        md.min_above(m)
    assert True in calls and False in calls


def test_min_above_seven_points_vs_bruteforce():
    # a seeded sample of the rank >= 4 matroids on [7], the duals of the
    # rank <= 3 ones; the universe pairs every matroid with its dependency
    # mask, and a dual is built only when the oracle keeps it
    lows = list(md.all_matroids(7, 3))
    universe = [(depmask(x), x) for x in lows]
    universe += [(dual_depmask(x, 7, low.n), partial(md.dual, low)) for x, low in universe]
    sample = [md.dual(low) for low in random.Random(7).sample(lows, 40)]
    assert sum(m.n == 4 and m.is_simple() for m in sample) == 20
    for m in sample:
        assert list(md.min_above(m).maximal) == brute_max_below(m, universe), m.circuits


def test_min_above_high_rank_vs_bruteforce():
    # exact agreement with the enumeration oracle on every matroid of rank
    # >= 4 on [6], on both paths the automatic choice takes
    ms = list(md.all_matroids(6, 6))
    universe = [(depmask(m), m) for m in ms]
    high = [m for m in ms if m.n >= 4]
    assert len(high) == 877
    for m in high:
        assert list(md.min_above(m).maximal) == brute_max_below(m, universe), m.circuits
