"""Exhaustive generation of all labeled matroids on small ground sets.

Every matroid of rank at most 3 decomposes uniquely into loops, a partition
of the remaining points into parallel classes, and a simple matroid on the
classes; simple matroids of rank 3 are exactly the point-line
configurations (line families pairwise meeting in at most one point).
Ranks above 3 are reached through duality, which covers every rank when
d <= 7.  This is the reference generator used by the oracle tests.
"""

from functools import lru_cache
from itertools import combinations

from .bitsets import bit, mask_of, masks_of_size
from .core import QuotientMap, dual, uniform_matroid
from .catalog import paving_from_hyperplanes


def set_partitions(items):
    """All partitions of a list, each a list of tuple classes
    (deterministic)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [(first,)] + part
        for i in range(len(part)):
            yield part[:i] + [(first,) + part[i]] + part[i + 1 :]


@lru_cache(maxsize=None)
def _line_families(q):
    """All families of proper >=3-point lines on [q], pairwise meeting in
    at most one point.  Each family is a tuple of point-set masks."""
    candidates = [c for size in range(3, q) for c in masks_of_size(q, size)]
    out = []

    def grow(start, chosen):
        out.append(tuple(chosen))
        for i in range(start, len(candidates)):
            c = candidates[i]
            if all((c & o).bit_count() <= 1 for o in chosen):
                chosen.append(c)
                grow(i + 1, chosen)
                chosen.pop()

    grow(0, [])
    return tuple(out)


@lru_cache(maxsize=None)
def _simple(q, rank):
    """The simple matroids of rank ``rank`` <= 3 on [q]: U(0,0), U(1,1),
    U(2,q) for q >= 2, and the point-line configurations of rank 3."""
    if q < rank or (rank < 2 and q > rank):
        return ()
    if rank < 3:
        return (uniform_matroid(rank, q),)
    return tuple(
        paving_from_hyperplanes(q, 3, family, validate=False) for family in _line_families(q)
    )


def all_matroids(d, max_rank=3):
    """Yield every labeled matroid on [d] of rank at most max_rank.

    Ranks above 3 come from dualizing low-rank matroids and need
    d - rank <= 3.
    """
    if max_rank is None:
        max_rank = d
    max_rank = min(max_rank, d)
    for rank in range(0, min(3, max_rank) + 1):
        yield from _matroids_of_rank(d, rank)
    for rank in range(4, max_rank + 1):
        if d - rank > 3:
            raise ValueError("rank %d on [%d] is out of reach for the generator" % (rank, d))
        for m in _matroids_of_rank(d, d - rank):
            yield dual(m)


def _matroids_of_rank(d, rank):
    points = list(range(1, d + 1))
    for loop_count in range(0, d - rank + 1):
        for loops in combinations(points, loop_count):
            loop_mask = mask_of(loops)
            rest = [p for p in points if not bit(p) & loop_mask]
            for part in set_partitions(rest):
                simples = _simple(len(part), rank)
                if simples:
                    qmap = QuotientMap.collapsing(d, loop_mask, map(mask_of, part))
                    for simple in simples:
                        yield qmap.lift(simple)
