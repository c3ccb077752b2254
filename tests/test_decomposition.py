"""The recursive circuit-variety decomposition driver."""

import hashlib
import json
import random

import pytest

import matdeg as md
from matdeg import (
    DecompositionComponent,
    Hints,
    decompose,
    default_hints,
    isomorphism,
    paper_hints,
    proper_submatroids_all_nilpotent,
    redundancy_prune,
    uniform_matroid,
)
from matdeg import decomposition, formats
from matdeg.catalog import paving_from_hyperplanes
from matdeg.core import _nilpotent_within
from matdeg.decomposition import _NAMED_HINTS, load_hints
from matdeg.weak_order import brute_force_leq

from oracles import brute_proper_submatroids_all_nilpotent


def test_decompose_qs(qs):
    result = decompose(qs)
    assert result.complete
    assert {c.matroid for c in result.components} == {qs, uniform_matroid(2, 6)}
    assert all(c.status == "irreducible-proven" for c in result.components)


def test_decompose_case1_singleton():
    # one three-point line plus a free point: nilpotent paving, degrees <= 1
    m = md.matroid_from_circuits(4, None, [(1, 2, 3)])
    result = decompose(m)
    assert [c.matroid for c in result.components] == [m]
    assert result.components[0].exact


def test_decompose_fano_published(fano):
    result = decompose(fano, hints=paper_hints())
    assert result.complete
    assert len(result.components) == 22
    assert {c.matroid for c in result.components} == set(
        md.min_above_general(fano).maximal
    )
    assert all(c.status == "irreducible-proven" for c in result.components)


def test_decompose_stats_keep_search_wall_time(fano):
    stats = decompose(fano, hints=paper_hints()).stats
    assert stats.nodes > 0
    assert stats.wall_time > 0


def test_decompose_k33dual_hinted(k33dual):
    result = decompose(k33dual, hints=paper_hints())
    assert result.complete
    assert {c.matroid for c in result.components} == {
        k33dual,
        md.catalog("grid33"),
    }


def test_proper_submatroids_nilpotent(qs, fano, vamos):
    assert proper_submatroids_all_nilpotent(qs)
    assert brute_proper_submatroids_all_nilpotent(qs)
    assert not proper_submatroids_all_nilpotent(fano)
    # the C-type degeneration of the Vamos matroid: deleting a point of the
    # big hyperplane leaves a three-plane wheel whose chain gets stuck, so
    # the predicate is false under the printed definitions (the published
    # account treats these as base cases regardless)
    c1 = paving_from_hyperplanes(
        8, 4, [(3, 4, 5, 6, 7, 8), (1, 2, 3, 4), (1, 2, 7, 8)]
    )
    assert not proper_submatroids_all_nilpotent(c1)
    sub, _ = md.restriction(c1, (1, 2, 3, 4, 6, 7, 8))
    assert not md.is_nilpotent(sub)
    # the grid, by contrast, genuinely satisfies the condition
    assert proper_submatroids_all_nilpotent(md.catalog("grid33"))


def test_quick_mode_matches_exhaustive(small_matroids):
    random.seed(29)
    for m in random.sample(small_matroids[5], 25):
        assert proper_submatroids_all_nilpotent(m) == brute_proper_submatroids_all_nilpotent(m)


def test_nilpotent_within_matches_restriction():
    # nilpotence of a restriction, computed on the masks of m itself, equals
    # nilpotence of the restriction matroid, at every subset; the sample
    # takes every non-nilpotent matroid so that both answers occur
    ms = list(md.all_matroids(6, 6))
    sample = random.Random(21).sample(ms, 400)
    sample += [m for m in ms if not md.is_nilpotent(m)]
    answers = set()
    for m in sample:
        for sub in range(1 << m.d):
            within = _nilpotent_within(m, sub)
            assert within == md.is_nilpotent(md.restriction(m, sub)[0]), (m, sub)
            answers.add(within)
    assert answers == {True, False}


def make_component(m, exact=False):
    return DecompositionComponent(matroid=m, exact=exact)


def test_redundancy_prune_removes_below_exact(vamos):
    # a coloop-over-uniform degeneration sits below the uniform matroid
    u38 = uniform_matroid(3, 8)
    below = md.matroid_from_hypergraph(
        md.induce([((1, 2, 3, 4, 5, 6, 7), 2)], 8, 3)
    )  # rank-3 with a coloop: below U(3,8)
    kept = redundancy_prune([make_component(u38, exact=True), make_component(below)])
    assert [c.matroid for c in kept] == [u38]


def test_redundancy_prune_keeps_annotates(qs):
    u26 = uniform_matroid(2, 6)
    kept = redundancy_prune([make_component(qs), make_component(u26, exact=True)])
    # U(2,6) < QS but QS is not exact, so both stay
    assert {c.matroid for c in kept} == {qs, u26}
    # decompose annotates the pair: the uniform names the position of QS
    comps = decompose(qs).components
    pos = {c.matroid: i for i, c in enumerate(comps, 1)}
    ann = {c.matroid: c.possible_redundancy for c in comps}
    assert ann[u26] == (pos[qs],)  # dominated by qs, possibly redundant
    assert not ann[qs]


def test_fanodual_annotations_against_bruteforce(fanodual):
    # each component lists the position of every other component above it
    comps = decompose(fanodual, hints=paper_hints()).components
    for i, c in enumerate(comps, 1):
        above = [
            j
            for j, o in enumerate(comps, 1)
            if j != i and brute_force_leq(c.matroid, o.matroid)
        ]
        assert list(c.possible_redundancy) == above, i
    assert sum(bool(c.possible_redundancy) for c in comps) > len(comps) / 2


def test_redundancy_prune_antichain_unchanged(fano):
    comps = [make_component(md.designate_loop(fano, i)) for i in (1, 2, 3)]
    assert [c.matroid for c in redundancy_prune(comps)] == [
        c.matroid for c in comps
    ]


def test_redundancy_prune_dedupes(fano):
    comps = [make_component(fano), make_component(fano, exact=True)]
    kept = redundancy_prune(comps)
    assert len(kept) == 1 and kept[0].exact


def test_components_below_input(qs):
    result = decompose(qs)
    for c in result.components:
        assert md.compare(c.matroid, qs)


def test_budget_flags_incomplete(fano):
    result = decompose(fano, budget=2)
    assert not result.complete


def test_depth_flags_incomplete(fano):
    result = decompose(fano, max_depth=0)
    assert not result.complete


def test_load_hints_roundtrip(fano):
    hints = load_hints({"non_realizable": ["fano"], "exact": ["grid33"]})
    from matdeg.decomposition import _key

    assert hints.realizable[_key(fano)] is False
    assert _key(md.catalog("grid33")) in hints.exact
    assert Hints().realizable == {}
    # every table starts from the default realizability facts, and
    # non_realizable overrides realizable
    default = default_hints().realizable
    both = load_hints({"realizable": ["fano", "vamos"], "non_realizable": ["fano"]})
    assert both.realizable == {**default, _key(md.catalog("vamos")): True}
    assert both.realizable[_key(fano)] is False
    paper = paper_hints()
    assert paper.realizable == default and paper.exact == {_key(md.catalog("grid33"))}
    assert len(paper.covered) == 4


def test_memoized_recursion_consistent(fano):
    # decomposing twice gives identical output (memo is per-call)
    r1 = decompose(fano, hints=paper_hints())
    r2 = decompose(fano, hints=paper_hints())
    assert [c.matroid for c in r1.components] == [c.matroid for c in r2.components]


def test_covered_table_that_matches_nothing_changes_nothing(fano, qs):
    # a nonempty covered table makes the driver canonicalize every
    # degeneration; one that matches nothing must leave every component as
    # the default hints give it
    unmatched = default_hints()
    unmatched.covered.add("0" * 64)
    for m in (qs, fano, md.catalog("threelines")):
        plain = decompose(m)
        checked = decompose(m, hints=unmatched)
        assert checked.complete == plain.complete
        assert checked.components == plain.components


def test_default_hints_are_fresh_per_call():
    first = default_hints()
    assert default_hints() is not first
    first.realizable.clear()
    first.covered.add("0" * 64)
    second = default_hints()
    assert second.realizable and not second.covered


def test_canonical_searches_feed_answers(qs, monkeypatch):
    # every canonical search is counted where it runs; the counts are exact,
    # so they pin that decompose searches only where an answer reads it
    default_hints()  # the hint table is built once per process
    calls = []
    search = isomorphism._min_relabeling
    monkeypatch.setattr(
        isomorphism, "_min_relabeling", lambda m: calls.append(m) or search(m)
    )
    decompose(md.catalog("threelines"))
    assert len(calls) == 109
    del calls[:]
    decompose(qs)
    assert len(calls) <= 1


@pytest.mark.parametrize(
    "name, hints", [("threelines", None), ("fanodual", "paper")]
)
def test_duplicates_reaching_prune_agree(monkeypatch, name, hints):
    # realizable and status are read off the matroid, so the duplicate
    # merge may keep the first copy's values
    seen = []
    prune = decomposition.redundancy_prune

    def record(components):
        seen.append(list(components))
        return prune(components)

    monkeypatch.setattr(decomposition, "redundancy_prune", record)
    decompose(md.catalog(name), hints=_NAMED_HINTS[hints or "default"]())
    pairs = 0
    for components in seen:
        first = {}
        for c in components:
            prev = first.setdefault(c.matroid, c)
            if prev is not c:
                pairs += 1
                assert (prev.realizable, prev.status) == (c.realizable, c.status)
    assert pairs > 100


@pytest.mark.parametrize(
    "name, hints, kwargs, digest",
    [
        (
            "fano",
            None,
            {"budget": 2},
            "0ed47265c04986db56ede638e3335d71ead2269a4bcbe81b69510fee4874eab9",
        ),
        (
            "fanodual",
            "paper",
            {"max_depth": 1},
            "9ff5cdd185ab6cb1f666b4481cc12cb38df4fc7ab8b8613fc3eb35867fded504",
        ),
    ],
)
def test_incomplete_decompositions_pinned(name, hints, kwargs, digest):
    # stopped runs exit 3 on the CLI, so the CLI digest pins cannot hold them
    result = decompose(md.catalog(name), _NAMED_HINTS[hints or "default"](), **kwargs)
    assert not result.complete and len(result) == 22
    objs = [formats.component_to_obj(c) for c in result.components]
    assert hashlib.sha256(json.dumps(objs, sort_keys=True).encode()).hexdigest() == digest
