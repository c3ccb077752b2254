"""Degeneration census for matroids of finite projective and affine planes.

For a Steiner-system matroid the observed maximal degenerations fall into
four families: collapse everything outside one block, turn one point into a
coloop over the derived system, turn one point into a loop, or drop the
whole ground set one rank.  The experiment recomputes the census from
scratch and checks it against this prediction.
"""

from dataclasses import dataclass, field

from .core import designate_loop, uniform_matroid
from .catalog import (
    _UnsupportedPlane,
    affine_plane_blocks,
    projective_plane_blocks,
    steiner_matroid,
)
from .hypergraph import induce, matroid_from_hypergraph
from .search import SearchStats, min_above_general


def block_collapse(d, n, block):
    """All points outside the block become one: circuits of size <= n are
    the n-subsets of the block plus all pairs outside it."""
    block = tuple(sorted(block))
    rest = tuple(p for p in range(1, d + 1) if p not in block)
    hg = induce([(block, n - 1), (rest, 1)], d, n)
    return matroid_from_hypergraph(hg)


def point_sum(d, n, blocks, i):
    """Point i becomes a coloop over the derived system at i: the blocks
    through i lose i and bound the rest at rank n-2, while everything off i
    drops to rank n-1."""
    rest = tuple(p for p in range(1, d + 1) if p != i)
    edges = [(tuple(p for p in b if p != i), n - 2) for b in blocks if i in b]
    edges.append((rest, n - 1))
    return matroid_from_hypergraph(induce(edges, d, n))


def steiner_family(d, n, blocks):
    """The predicted maximal degenerations of a Steiner-system matroid."""
    out = []
    for b in blocks:
        out.append(block_collapse(d, n, b))
    for i in range(1, d + 1):
        out.append(point_sum(d, n, blocks, i))
    m = steiner_matroid(d, blocks, n - 1, validate=False)
    for i in range(1, d + 1):
        out.append(designate_loop(m, i))
    out.append(uniform_matroid(n - 1, d))
    return out


def plane_blocks(q, kind):
    """(d, blocks) of PG(2, q) or AG(2, q); the catalog generators refuse a
    q they cannot build before any block is built.  Every refusal is a
    ``MatdegError`` (and a ``ValueError``)."""
    if kind == "projective":
        return projective_plane_blocks(q)
    if kind == "affine":
        return affine_plane_blocks(q)
    raise _UnsupportedPlane("kind must be 'projective' or 'affine'")


@dataclass
class ExperimentReport:
    q: int
    kind: str
    d: int
    block_count: int
    expected_count: int
    computed_count: int
    passed: bool
    missing: tuple = ()
    extra: tuple = ()
    complete: bool = True
    stats: SearchStats = field(default_factory=SearchStats)


def steiner_experiment(q, kind, max_nodes=None, threads=1):
    """Compute the plane matroid's maximal degenerations (general path) and
    compare them, as a set, with the four predicted families."""
    d, blocks = plane_blocks(q, kind)
    n = 3
    m = steiner_matroid(d, blocks, 2, validate=False)
    expected = {x: None for x in steiner_family(d, n, blocks)}
    report = min_above_general(m, max_nodes, threads)
    computed = set(report.maximal)
    missing = tuple(x for x in expected if x not in computed)
    extra = tuple(sorted((x for x in computed if x not in expected), key=lambda t: t.sort_key()))
    passed = report.complete and not missing and not extra
    return ExperimentReport(
        q=q,
        kind=kind,
        d=d,
        block_count=len(blocks),
        expected_count=len(expected),
        computed_count=len(computed),
        passed=passed,
        missing=missing,
        extra=extra,
        complete=report.complete,
        stats=report.stats,
    )
