"""Acceptance suite: one test per criterion, each printing a PASS line.

Expected values come from the published example families (block collapses,
point sums, loop designations, uniform drops) or from independent brute
force over enumerated matroid universes; timings assert the stated budgets.
"""

import io
import sys
import time

import pytest

import matdeg as md
from matdeg import (
    compare,
    decompose,
    designate_loop,
    induce,
    min_above_general,
    min_above_hyp,
    min_above_hyp_rank4,
    min_above_rank4,
    paper_hints,
    uniform_matroid,
)
from matdeg.catalog import (
    FANO_DUAL_PLANES,
    FANO_LINES,
    STEINER348_BLOCKS,
    k33dual_degeneration_reps,
)
from matdeg.cli import main as cli_main
from matdeg.experiments import block_collapse, point_sum, steiner_experiment
from matdeg.isomorphism import automorphisms, group_by_symmetry, orbit_of

from oracles import brute_max_below, depmask


def announce(num, detail):
    print("ACCEPTANCE %d: PASS - %s" % (num, detail))


@pytest.fixture(scope="module")
def fano_report(fano):
    return min_above_general(fano)


def test_criterion_1_fano_degenerations(fano, fano_report):
    t0 = time.monotonic()
    report = min_above_general(fano)
    elapsed = time.monotonic() - t0
    expected = {uniform_matroid(2, 7)}
    expected |= {designate_loop(fano, i) for i in range(1, 8)}
    expected |= {block_collapse(7, 3, line) for line in FANO_LINES}
    expected |= {point_sum(7, 3, FANO_LINES, i) for i in range(1, 8)}
    assert set(report.maximal) == expected
    assert len(report.maximal) == 22
    classes = group_by_symmetry(report.maximal, fano)
    assert sorted(len(mem) for _, mem in classes) == [1, 7, 7, 7]
    assert elapsed < 10.0
    announce(1, "fano: 22 degenerations, classes {1,7,7,7}, %.2fs" % elapsed)


def test_criterion_2_k33dual(k33dual):
    t0 = time.monotonic()
    report = min_above_rank4(k33dual)
    elapsed = time.monotonic() - t0
    group = automorphisms(k33dual)
    reps = k33dual_degeneration_reps()
    expected = {md.catalog("grid33")}
    for key in ("fused_square", "fused_columns", "fused_two_pairs"):
        expected |= orbit_of(reps[key], group)
    expected |= {designate_loop(k33dual, i) for i in range(1, 10)}
    assert set(report.maximal) == expected
    assert len(report.maximal) == 34
    classes = group_by_symmetry(report.maximal, k33dual)
    assert sorted(len(mem) for _, mem in classes) == [1, 6, 9, 9, 9]
    assert elapsed < 300.0
    announce(2, "k33 dual: 34 degenerations, classes {1,9,6,9,9}, %.1fs" % elapsed)


def test_criterion_3_steiner348(steiner348):
    t0 = time.monotonic()
    report = min_above_rank4(steiner348)
    elapsed = time.monotonic() - t0
    expected = {uniform_matroid(3, 8)}
    expected |= {block_collapse(8, 4, b) for b in STEINER348_BLOCKS}
    expected |= {point_sum(8, 4, STEINER348_BLOCKS, i) for i in range(1, 9)}
    expected |= {designate_loop(steiner348, i) for i in range(1, 9)}
    assert set(report.maximal) == expected
    assert len(report.maximal) == 31
    assert elapsed < 300.0
    announce(3, "S(3,4,8): 31 degenerations (14+8+1+8), %.1fs" % elapsed)


def test_criterion_4_fano_dual(fanodual):
    t0 = time.monotonic()
    report = min_above_rank4(fanodual)
    elapsed = time.monotonic() - t0
    expected = {uniform_matroid(3, 7)}
    expected |= {block_collapse(7, 4, h) for h in FANO_DUAL_PLANES}
    expected |= {point_sum(7, 4, FANO_DUAL_PLANES, i) for i in range(1, 8)}
    expected |= {designate_loop(fanodual, i) for i in range(1, 8)}
    assert set(report.maximal) == expected
    assert len(report.maximal) == 22
    classes = group_by_symmetry(report.maximal, fanodual)
    assert sorted(len(mem) for _, mem in classes) == [1, 7, 7, 7]
    announce(4, "fano dual: 22 degenerations, classes {7,7,7,1}, %.1fs" % elapsed)


def test_criterion_5_six_element_example():
    m = md.catalog("threepairs")
    t0 = time.monotonic()
    report = min_above_rank4(m)
    elapsed = time.monotonic() - t0
    assert len(report.maximal) == 10
    # one uniform drop, six coloop variants, three double points
    profile = {"uniform": 0, "coloop": 0, "pair": 0}
    for n in report.maximal:
        if n == uniform_matroid(3, 6):
            profile["uniform"] += 1
        elif any(len(c) == 2 for c in n.circuits):
            profile["pair"] += 1
        else:
            covered = 0
            for c in n.circuit_masks:
                covered |= c
            assert covered.bit_count() == 5  # one point in no circuit
            profile["coloop"] += 1
    assert profile == {"uniform": 1, "coloop": 6, "pair": 3}
    assert elapsed < 1.0
    announce(5, "three-pairs example: 10 degenerations (1+6+3), %.2fs" % elapsed)


def test_criterion_6_hypergraph_fixtures(fano):
    hg = induce([((3, 7), 1)] + [(l, 2) for l in FANO_LINES], 7, 3)
    got = min_above_hyp(hg)
    # the published figure shows the four shapes: up to isomorphism there
    # are exactly 4 (two loop placements and two line collapses coincide);
    # as labeled matroids the maximal set has 6 members, frozen here from
    # the exhaustive oracle over all 37582 rank <= 3 matroids on [7]
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
    assert len(classes) == 4

    lam = induce([((1, 3, 4), 2), ((1, 2, 5, 6), 3), ((3, 4, 5, 6), 3)], 6, 4)
    got4 = min_above_hyp_rank4(lam)
    m1 = md.matroid_from_hypergraph(
        induce([((1, 3, 4), 2), ((1, 2, 3, 4, 5, 6), 3)], 6, 4)
    )
    m2 = md.matroid_from_hypergraph(
        induce([((1, 3, 4), 2), ((1, 5, 6), 2), ((1, 3, 4, 5, 6), 3)], 6, 4)
    )
    m3 = md.QuotientMap(6, (1, 2, 3, 3, 4, 5)).lift(
        md.matroid_from_circuits(5, None, [(1, 2, 4, 5)])
    )
    assert set(got4) == {m1, m2, m3}
    announce(6, "hypergraph fixtures: 6 labeled / 4 classes, and 3 matroids")


def test_criterion_7_decompositions(qs, fano, k33dual, fano_report):
    t0 = time.monotonic()
    res_qs = decompose(qs)
    assert {c.matroid for c in res_qs.components} == {qs, uniform_matroid(2, 6)}
    assert all(c.status == "irreducible-proven" for c in res_qs.components)

    res_fano = decompose(fano, hints=paper_hints())
    assert {c.matroid for c in res_fano.components} == set(fano_report.maximal)
    assert len(res_fano.components) == 22

    res_k = decompose(k33dual, hints=paper_hints())
    grid = md.catalog("grid33")
    assert {c.matroid for c in res_k.components} == {k33dual, grid}

    res_k_raw = decompose(k33dual)
    mats = {c.matroid: c for c in res_k_raw.components}
    assert k33dual in mats and grid in mats
    extras = [c for c in res_k_raw.components if c.matroid not in (k33dual, grid)]
    assert all(c.possible_redundancy for c in extras)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    announce(
        7,
        "decompositions: qs={QS,U26}, fano=22, k33=2 hinted "
        "(+%d annotated extras unhinted), %.1fs" % (len(extras), elapsed),
    )


def test_criterion_8_oracle_equivalence():
    t0 = time.monotonic()
    total_checked = 0
    for d in range(1, 7):
        universe = list(md.all_matroids(d, 3))
        masks = [depmask(m) for m in universe]
        with_masks = list(zip(masks, universe))
        for i, m in enumerate(universe):
            dm = masks[i]
            oracle_row = [(x & dm) == dm for x in masks]
            got_row = [compare(n, m) for n in universe]
            assert got_row == oracle_row, (d, m.circuits)
            report = min_above_general(m)
            assert list(report.maximal) == brute_max_below(m, with_masks), m.circuits
            total_checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 1800.0
    announce(
        8,
        "oracle equivalence on %d matroids (d <= 6, rank <= 3), %.1fs"
        % (total_checked, elapsed),
    )


def test_criterion_9_steiner_experiments():
    t0 = time.monotonic()
    results = []
    for q, kind, expect in (
        (2, "projective", 22),
        (3, "projective", 40),
        (3, "affine", 31),
        (4, "affine", 53),
    ):
        r = steiner_experiment(q, kind)
        assert r.passed, (q, kind, r.computed_count, len(r.missing), len(r.extra))
        assert r.expected_count == expect == r.computed_count
        results.append("%s(2,%d)=%d" % (kind[0], q, r.computed_count))
    elapsed = time.monotonic() - t0
    assert elapsed < 7200.0
    announce(9, "steiner experiments %s, %.1fs" % (" ".join(results), elapsed))


def run_cli_bytes(*argv):
    old = sys.stdout
    sys.stdout = io.StringIO()
    try:
        code = cli_main(list(argv))
        out = sys.stdout.getvalue()
    finally:
        sys.stdout = old
    assert code == 0, argv
    return out.encode()


def test_criterion_10_determinism(fano):
    commands = [
        ("min-above", "catalog:fano", "--json", "--group-by-symmetry"),
        ("min-above", "catalog:k33dual", "--json", "--group-by-symmetry"),
        ("min-above", "catalog:steiner348", "--json"),
        ("min-above", "catalog:fanodual", "--json"),
        ("min-above", "catalog:threepairs", "--json"),
        ("decompose", "catalog:threelines", "--json"),
    ]
    for cmd in commands:
        baseline = run_cli_bytes(*cmd)
        for _ in range(2):
            assert run_cli_bytes(*cmd) == baseline
        assert run_cli_bytes(*cmd, "--threads", "4") == baseline
    # the hypergraph fixtures of criterion 6, serialized
    from matdeg import formats

    hg = induce([((3, 7), 1)] + [(l, 2) for l in FANO_LINES], 7, 3)
    blob = formats.dumps_matroids(min_above_hyp(hg)).encode()
    for _ in range(2):
        assert formats.dumps_matroids(min_above_hyp(hg)).encode() == blob
    announce(10, "byte-identical across 3 runs and thread counts {1,4}")
