"""Maximal matroid degenerations.

One depth-first engine expands a stack of labeled hypergraphs until no
rank-bound conflict remains; each stable hypergraph yields the unique maximal
matroid below it.  A hypergraph bounded at rank <= 2 is a leaf given by a
quotient map (its bound-0 edges removed as loops, its bound-1 edges joined):
its matroid is a uniform matroid on the classes lifted through the map.
Branching is justified by submodularity: when two edges overvalue their
union and intersection, any matroid below the hypergraph satisfies the
tightened bound on at least one of the two.

A stable leaf is built once per hypergraph per top-level call: one leaf
memo, keyed by the stable hypergraph, is shared by every root and stratum
of a ``min_above_general`` or ``min_above_rank4`` call (each pooled job gets
an empty one) and dropped when the call returns.  Each hit is lifted through
its own quotient map as before, so outputs and counters do not depend on it.

Two branching rules feed the engine.  The general rule starts one search per
independent set (declared newly dependent).  The rank-4 rule stratifies by
the size of the first new circuit, prunes branches that cannot stay inside
the stratum and, in the double-point stratum, identifies points.  One root
driver runs the independent search roots, serially or over worker processes.
"""

import os
import time
from contextlib import nullcontext
from functools import partial

from .bitsets import full_mask, points_of
from .core import (
    Matroid,
    QuotientMap,
    designate_loop,
    independent_masks,
    uniform_matroid,
)
from .errors import BudgetExceeded, NotRankFour, NotSimple
from .hypergraph import (
    _matroid_from_hypergraph_unchecked,
    _valuation,
    delta_of_matroid,
    reduce as reduce_hypergraph,
    with_edge,
)
from .weak_order import _insert_maximal, compare, maximal_elements


class SearchStats:
    """Counters for one degeneration computation.

    ``nodes`` counts expanded search states and ``comparisons`` weak-order
    tests.  ``emitted`` counts candidates before the final antichain, and
    what it includes depends on the path: on the general path the
    designated loops and the distinct stable leaves of each root, but not
    the pooled rank <= 2 leaves; on the rank-4 path the distinct stable and
    rank <= 2 leaves of each root, but not the designated loops.
    """

    __slots__ = ("nodes", "emitted", "comparisons", "wall_time")

    def __init__(self):
        self.nodes = 0
        self.emitted = 0
        self.comparisons = 0
        self.wall_time = 0.0

    def merge(self, other):
        self.nodes += other.nodes
        self.emitted += other.emitted
        self.comparisons += other.comparisons
        self.wall_time += other.wall_time

    def as_dict(self):
        return {
            "nodes": self.nodes,
            "emitted": self.emitted,
            "comparisons": self.comparisons,
            "wall_time": round(self.wall_time, 3),
        }


class DegenerationReport:
    """Result of a min-above computation.

    ``maximal`` is a weak-order antichain of matroids strictly below the
    source, canonically ordered.  ``complete`` is False when a node budget
    cut the search short.
    """

    __slots__ = ("source", "maximal", "stats", "complete")

    def __init__(self, source, maximal, stats, complete=True):
        self.source = source
        self.maximal = tuple(maximal)
        self.stats = stats
        self.complete = complete

    def __len__(self):
        return len(self.maximal)


# -- branching rules ----------------------------------------------------------
#
# A rule maps a hypergraph to None when no rank-bound conflict is left, or
# else to the (mask, bound) edges whose addition splits the first conflict.


def _scan_general(hg):
    """First conflicting edge pair, in canonical pair order.

    A nested edge forces one lower bound; two edges that overvalue their
    union and intersection split on the submodularity bound for each (either
    bound may be infeasible, i.e. negative).
    """
    edges = hg.edges
    vals = {}

    def val(mask):
        v = vals.get(mask)
        if v is None:
            v = vals[mask] = _valuation(hg, mask)
        return v

    for a in range(len(edges)):
        ea, ba = edges[a]
        for b in range(a + 1, len(edges)):
            eb, bb = edges[b]
            if ea & ~eb == 0:  # ea properly inside eb (edges are distinct)
                if ba > bb:
                    return [(ea, bb)]
                if bb > ba + (eb & ~ea).bit_count():
                    return [(eb, ba + (eb & ~ea).bit_count())]
            elif eb & ~ea == 0:
                if bb > ba:
                    return [(eb, ba)]
                if ba > bb + (ea & ~eb).bit_count():
                    return [(ea, bb + (ea & ~eb).bit_count())]
            inter = ea & eb
            union = ea | eb
            vi = val(inter)
            vu = val(union)
            s = vi + vu - ba - bb
            if s > 0:
                half = -(-s // 2)  # ceil
                return [(union, vu - half), (inter, vi - half)]
    return None


_IDENTIFY = "identify"  # bound marker: add (mask, 1) and identify its points


def _scan_rank4(hg, v):
    """First conflicting edge pair of a reduced rank-4 hypergraph (bounds 2
    and 3 only), as the (mask, bound) edges that split it, or None.

    The four conditions, in pair order:
      (i)   two bound-3 edges meeting in >= 3 points: the intersection must
            lie inside a bound-2 edge;
      (ii)  a bound-3 and a bound-2 edge meeting in >= 2 points: the bound-2
            edge must be contained in the bound-3 edge;
      (iii) two bound-2 edges meet in at most 1 point;
      (iv)  two bound-2 edges meeting in 1 point: their union must lie
            inside a bound-3 edge.
    The branches depend on the search stratum v; the identify branch only
    exists for v = 2.
    """
    edges = hg.edges
    twos = [e for e, b in edges if b == 2]
    threes = [e for e, b in edges if b == 3]
    for a in range(len(edges)):
        ea, ba = edges[a]
        for b in range(a + 1, len(edges)):
            eb, bb = edges[b]
            inter = ea & eb
            k = inter.bit_count()
            if ba == 3 and bb == 3:
                if k >= 3 and not any(inter & ~z == 0 for z in twos):
                    branches = [(ea | eb, 3)]
                    if v <= 3:
                        branches.append((inter, 2))
                    return branches
            elif ba != bb:  # one bound-2, one bound-3 edge
                e3, e2 = (ea, eb) if ba == 3 else (eb, ea)
                if k >= 2 and e2 & ~e3:
                    branches = [(e3 | e2, 3)]
                    if v == 2:
                        branches.append((inter, _IDENTIFY))
                    return branches
            else:  # both bound 2
                if k >= 2:
                    branches = [(ea | eb, 2)]
                    if v == 2:
                        branches.append((inter, _IDENTIFY))
                    return branches
                if k == 1 and not any((ea | eb) & ~z == 0 for z in threes):
                    return [(ea | eb, 3)]
    return None


# -- rank <= 2 leaves ---------------------------------------------------------


def _low_rank_leaf(hg):
    """When the whole ground set is bounded at rank <= 2, the unique maximal
    matroid below the hypergraph is a uniform matroid of rank min(2, q) on
    q classes, lifted through the quotient map that removes the bound-0
    edges as loops and joins the bound-1 edges.  Returns that map, or None
    when the bound exceeds 2.
    """
    if _valuation(hg, full_mask(hg.d)) > 2:
        return None
    loops = 0
    for e in hg.by_bound(0):
        loops |= e
    return QuotientMap.collapsing(hg.d, loops, hg.by_bound(1))


def _sig_leq(a, b):
    """Does the leaf of quotient map a lie below that of b?  True iff every
    loop of b is a loop of a and every class of b, less the loops of a,
    lies inside one class of a."""
    a_of_b = {}
    for ta, tb in zip(a.target, b.target):
        if ta and (not tb or a_of_b.setdefault(tb, ta) != ta):
            return False
    return True


def _low_rank_matroid(qmap, leaf):
    """The matroid of a rank <= 2 leaf on the quotient ground set of
    ``qmap``, lifted to the source."""
    return qmap.compose(leaf).lift(uniform_matroid(min(2, leaf.q), leaf.q))


class _RootPrune:
    """Cross-root dominance pruning for the per-dependency searches.

    Search roots are ordered by their declared dependency (size, then
    lexicographic).  A state that forces a loop at a point that is not a
    loop of the source, or a new parallel pair belonging to an earlier
    root, only produces matroids already dominated by that earlier root's
    results (any matroid with an extra loop at i lies below the designated
    loop matroid M(i); any matroid with a new pair lies below the pair's
    own root).  Every degeneration survives in the root of its earliest
    new dependency, so pruning such states keeps the merged output exact.
    """

    __slots__ = ("source_loops", "source_pairs", "root_points")

    def __init__(self, source, root_mask):
        self.source_loops = source.loops_mask
        self.source_pairs = frozenset(
            c for c in source.circuit_masks if c.bit_count() == 2
        )
        self.root_points = points_of(root_mask)

    def _min_new_pair(self, e):
        """Lex-least pair inside the edge that is not already parallel in
        the source (enumeration order is pair-lexicographic)."""
        pts = points_of(e & ~self.source_loops)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                mask = (1 << (pts[i] - 1)) | (1 << (pts[j] - 1))
                if mask not in self.source_pairs:
                    return (pts[i], pts[j])
        return None

    def covered_elsewhere(self, hg):
        root_size = len(self.root_points)
        for e, b in hg.edges:
            if b >= 2:
                break
            if b == 0:
                if e & ~self.source_loops:
                    return True
                continue
            pair = self._min_new_pair(e)
            if pair is not None and (root_size > 2 or pair < self.root_points):
                return True
        return False


# -- the engine ---------------------------------------------------------------


def _expand(root, qmap, scan, max_nodes, prune, stats, memo):
    """Depth-first expansion of one root hypergraph on the quotient ground
    set of ``qmap``, branching by the rule ``scan``.

    Returns (found, low): the stable-leaf matroids lifted to the source,
    keyed by their identity, and per quotient map a running antichain of
    rank <= 2 leaves, each a quotient map of its own (materialized by the
    caller, which may first reduce them across roots).  A stable leaf is
    built on the quotient ground set only when the leaf memo ``memo``, a
    dict from stable hypergraph to matroid, does not hold it yet.  A single
    live branch is applied in place.  ``prune`` drops split branches whose
    matroids another root covers.
    Raises BudgetExceeded after ``max_nodes`` expansions (None for no
    budget).
    """
    stack = [(root, qmap)]
    visited = {(root, qmap)}
    found = {}
    low = {}
    nodes = 0
    try:
        while stack:
            hg, qmap = stack.pop()
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                raise BudgetExceeded("node budget exhausted")
            while True:
                leaf = _low_rank_leaf(hg)
                if leaf is not None:
                    _insert_maximal(low.setdefault(qmap, []), leaf, _sig_leq)
                    break
                branches = scan(hg)
                if branches is None:
                    base = memo.get(hg)
                    if base is None:
                        base = memo[hg] = _matroid_from_hypergraph_unchecked(hg)
                    m = qmap.lift(base)
                    if m._key not in found:
                        found[m._key] = m
                        stats.emitted += 1
                    break
                live = []
                for mask, bound in branches:
                    if bound is _IDENTIFY:
                        red, step = reduce_hypergraph(with_edge(hg, mask, 1))
                        live.append((red, qmap.compose(step)))
                    elif bound >= 0:  # a negative bound is infeasible
                        nxt = with_edge(hg, mask, bound)
                        # forced steps are not worth a pruning test
                        split = len(branches) > 1
                        if split and prune is not None and prune.covered_elsewhere(nxt):
                            continue
                        live.append((nxt, qmap))
                if len(live) == 1:
                    hg, qmap = live[0]
                    continue
                for state in live:
                    if state not in visited:
                        visited.add(state)
                        stack.append(state)
                break
    finally:
        stats.nodes += nodes
    return found, low


def _maximal_below(root, qmap, scan, max_nodes, stats, memo):
    """Maximal matroids of one root expansion, low-rank leaves included."""
    found, low = _expand(root, qmap, scan, max_nodes, None, stats, memo)
    for leaf_map, leaves in low.items():
        for leaf in leaves:
            m = _low_rank_matroid(leaf_map, leaf)
            if m._key not in found:
                found[m._key] = m
                stats.emitted += 1
    return maximal_elements(found.values(), stats)


def _solve(job, memo=None):
    """Run one root job ``(fn, args)`` on its own counters and the leaf memo
    ``memo`` (a new one when None); the result is None when the root's node
    budget ran out."""
    fn, args = job
    stats = SearchStats()
    try:
        return fn(*args, stats, {} if memo is None else memo), stats
    except BudgetExceeded:
        return None, stats


def _run_roots(jobs, threads, stats, memo):
    """Yield each root job's result in job order, merging its counters into
    ``stats``.  Serial jobs share the leaf memo ``memo``.  The pool starts
    at most ``threads`` workers, and no more than there are jobs or CPUs;
    with more than one, the jobs run in worker processes, each on an empty
    memo.  Results
    stream back in order, so the output is identical to a serial run, and
    node budgets apply per root, so partial results are reproducible too."""
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    parallel = workers > 1
    if parallel:
        # imported here: it pulls multiprocessing and logging into every
        # ``import matdeg``, and only a pool of workers needs them
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:
        if parallel:
            results = pool.map(_solve, jobs, chunksize=4)
        else:
            results = map(partial(_solve, memo=memo), jobs)
        for out, root_stats in results:
            stats.merge(root_stats)
            yield out


# -- general rank -------------------------------------------------------------


def min_above_hyp(root):
    """Maximal matroids (of rank at most the ambient n) below a hypergraph."""
    qmap = QuotientMap.identity(root.d)
    return _maximal_below(root, qmap, _scan_general, None, SearchStats(), {})


def _general_roots(m):
    """One hypergraph per independent set of size >= 2, the set declared
    dependent.  Size-1 roots have the designated loop matroid as their
    unique maximal element and are handled in closed form."""
    base = delta_of_matroid(m)
    return [
        (with_edge(base, e, size - 1), _RootPrune(m, e))
        for size in range(2, m.n + 1)
        for e in independent_masks(m, size)
    ]


def min_above_general(m, max_nodes=None, threads=1):
    """Maximal matroid degenerations of a matroid, any rank.

    Search roots are independent and run through the root driver, serially
    or over ``threads`` worker processes with identical output.  The
    rank <= 2 leaves are pooled across roots and reduced to an antichain of
    their quotient maps before the final comparison stage.
    """
    stats = SearchStats()
    t0 = time.monotonic()
    candidates = {}
    for i in range(1, m.d + 1):
        if not m._is_dependent_mask(1 << (i - 1)):
            loopy = designate_loop(m, i)
            candidates[loopy._key] = loopy
            stats.emitted += 1
    qmap = QuotientMap.identity(m.d)
    jobs = [
        (_expand, (root, qmap, _scan_general, max_nodes, prune))
        for root, prune in _general_roots(m)
    ]
    leaves = set()
    complete = True
    for out in _run_roots(jobs, threads, stats, {}):
        if out is None:
            complete = False
            continue
        found, low = out
        candidates.update(found)
        for kept in low.values():
            leaves.update(kept)
    # maximal elements among the pooled leaf maps, by cheap label tests
    kept = []
    for leaf in sorted(leaves, key=lambda leaf: (leaf.target.count(0), leaf.q)):
        _insert_maximal(kept, leaf, _sig_leq)
    for leaf in kept:
        mm = _low_rank_matroid(qmap, leaf)
        candidates.setdefault(mm._key, mm)
    maximal = maximal_elements(candidates.values(), stats)
    stats.wall_time = time.monotonic() - t0
    return DegenerationReport(m, maximal, stats, complete)


# -- rank 4 -------------------------------------------------------------------


def _circuit_profile(m, size):
    return tuple(c for c in m.circuit_masks if c.bit_count() == size)


def _in_stratum(candidate, source, v):
    for j in range(1, v):
        if _circuit_profile(candidate, j) != _circuit_profile(source, j):
            return False
    cv, sv = set(_circuit_profile(candidate, v)), set(_circuit_profile(source, v))
    return cv > sv


def _require_simple_rank4(m):
    if m.n != 4:
        raise NotRankFour("rank-4 path needs a rank-4 matroid, got rank %d" % m.n)
    if not m.is_simple():
        raise NotSimple("rank-4 path needs a simple matroid")


def _stratum_roots(m, v):
    base = delta_of_matroid(m)
    roots = []
    for x in independent_masks(m, v):
        hg = with_edge(base, x, v - 1)
        if v == 2:
            red, qmap = reduce_hypergraph(hg)
            roots.append((red, qmap))
        else:
            roots.append((hg, QuotientMap.identity(m.d)))
    return roots


def stratum_min(m, v, max_nodes=None, stats=None, threads=1, memo=None):
    """Maximal degenerations whose first new circuit appears in size v.

    The candidate set runs over independent v-subsets; for v = 2 the forced
    double point is identified up front and results are lifted back.
    ``memo`` is the leaf memo of the calling search (a new one when None).
    """
    _require_simple_rank4(m)
    if v not in (2, 3, 4):
        raise ValueError("stratum index must be 2, 3 or 4")
    if stats is None:
        stats = SearchStats()
    scan = partial(_scan_rank4, v=v)
    jobs = [
        (_maximal_below, (root, qmap, scan, max_nodes))
        for root, qmap in _stratum_roots(m, v)
    ]
    candidates = {}
    for out in _run_roots(jobs, threads, stats, {} if memo is None else memo):
        if out is None:
            raise BudgetExceeded("node budget exhausted")
        for mm in out:
            candidates[mm._key] = mm
    kept = [mm for mm in candidates.values() if _in_stratum(mm, m, v)]
    return maximal_elements(kept, stats)


def min_above_rank4(m, max_nodes=None, threads=1):
    """Rank-4 optimized degenerations: per-stratum searches, then a
    cross-stratum filter (each stratum is screened against the higher ones
    only, since lower strata can never dominate higher ones)."""
    _require_simple_rank4(m)
    stats = SearchStats()
    t0 = time.monotonic()
    complete = True
    s1 = sorted((designate_loop(m, i) for i in range(1, m.d + 1)), key=Matroid.sort_key)
    strata = {1: s1}
    memo = {}
    for v in (2, 3, 4):
        try:
            strata[v] = stratum_min(m, v, max_nodes, stats, threads, memo)
        except BudgetExceeded:
            strata[v] = []
            complete = False

    def leq(a, b):
        stats.comparisons += 1
        return compare(a, b)

    kept = []
    for v in (4, 3, 2, 1):
        kept += [x for x in strata[v] if not any(leq(x, y) for y in kept)]
    maximal = sorted(kept, key=Matroid.sort_key)
    stats.wall_time = time.monotonic() - t0
    return DegenerationReport(m, maximal, stats, complete)


def min_above_hyp_rank4(root):
    """Maximal matroids below a reduced rank-4 hypergraph: the stratified
    searches are run for every v and their union is filtered."""
    stats = SearchStats()
    qmap = QuotientMap.identity(root.d)
    candidates = {}
    memo = {}
    for v in (2, 3, 4):
        scan = partial(_scan_rank4, v=v)
        for mm in _maximal_below(root, qmap, scan, None, stats, memo):
            candidates[mm._key] = mm
    return maximal_elements(candidates.values(), stats)


def min_above(m, max_nodes=None, threads=1):
    """Maximal matroid degenerations.  The input picks the path: the rank-4
    path for a simple rank-4 matroid, the general path otherwise; both give
    the same answer."""
    if m.n == 4 and m.is_simple():
        return min_above_rank4(m, max_nodes, threads)
    return min_above_general(m, max_nodes, threads)
