"""Labeled hypergraphs: compact rank-bound constraints on subsets.

An edge (e, i) asserts "rank(e) <= i" for every matroid lying below the
hypergraph.  Edges live on an ambient ground set [d]; operations that drop
vertices keep the original labels and shrink the active vertex mask, while
``reduce`` (which identifies points connected by bound-1 edges) relabels to
a fresh contiguous ground set and returns the quotient map.
"""

from itertools import combinations

from .bitsets import bit, canon_key, full_mask, mask_of, points_of
from .core import (
    Matroid,
    QuotientMap,
    _find,
    _greedy_rank,
    _normalize_circuit_masks,
    _union,
    check_circuit_axioms,
)
from .errors import ConditionsFailed


class LabeledHypergraph:
    """Edges (mask, bound) with 0 <= bound <= n-1, canonically sorted."""

    __slots__ = ("d", "n", "vertices", "edges", "_hash")

    def __init__(self, d, n, vertices, edges):
        self.d = d
        self.n = n
        self.vertices = vertices
        self.edges = edges
        self._hash = hash((d, n, vertices, edges))

    def __eq__(self, other):
        return (
            isinstance(other, LabeledHypergraph)
            and self.d == other.d
            and self.n == other.n
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "LabeledHypergraph(d=%d, n=%d, %d edges)" % (
            self.d,
            self.n,
            len(self.edges),
        )

    @property
    def num_vertices(self):
        return self.vertices.bit_count()

    def by_bound(self, i):
        return tuple(e for e, b in self.edges if b == i)

    def edge_points(self):
        return tuple((points_of(e), b) for e, b in self.edges)


def _normalize_edges(raw, n):
    """Minimal bound per mask, size filter, same-bound nesting filter."""
    best = {}
    for mask, b in raw:
        if b >= n:
            continue  # vacuous for matroids of rank <= n
        cur = best.get(mask)
        if cur is None or b < cur:
            best[mask] = b
    sized = [(m, b) for m, b in best.items() if m.bit_count() >= b + 1]
    by_b = {}
    for m, b in sized:
        by_b.setdefault(b, []).append(m)
    kept = []
    for b, masks in by_b.items():
        for m in masks:
            if not any(m != o and m & ~o == 0 for o in masks):
                kept.append((m, b))
    kept.sort(key=lambda eb: (eb[1], canon_key(eb[0])))
    return tuple(kept)


def induce(raw, d, n, vertices=None):
    """Normalize raw (subset, bound) pairs into a labeled hypergraph.

    Removes edges nested inside a larger edge of the same bound and edges
    with |e| <= bound; when several bounds are given for one subset the
    smallest wins.
    """
    if vertices is None:
        vertices = full_mask(d)
    pairs = []
    for e, b in raw:
        mask = e if isinstance(e, int) else mask_of(e)
        if mask & ~vertices:
            raise ValueError("edge %s uses removed vertices" % (points_of(mask),))
        if b < 0:
            raise ValueError("edge bounds must be nonnegative")
        pairs.append((mask, b))
    return LabeledHypergraph(d, n, vertices, _normalize_edges(pairs, n))


def with_edge(hg, mask, bound):
    """The hypergraph induced by adding one edge (bound < 0 is infeasible)."""
    return LabeledHypergraph(
        hg.d, hg.n, hg.vertices, _normalize_edges(hg.edges + ((mask, bound),), hg.n)
    )


def delta_of_matroid(m, n=None):
    """Edges of bound i = cyclic flats of rank i, for 0 <= i <= n-1.

    With the default n = rank(m) a rank-deficient ground set never shows up;
    passing a larger ambient n records it.
    """
    key = n = m.n if n is None else n
    cached = m._delta_cache.get(key)
    if cached is None:
        edges = tuple((f, r) for f, r in m.cyclic_flats_masks() if r <= n - 1)
        cached = LabeledHypergraph(m.d, n, full_mask(m.d), edges)
        m._delta_cache[key] = cached
    return cached


def leq_hyper(m, hg):
    """True iff rank_m(e) <= bound for every edge; for hg = delta of M this
    is exactly the weak-order comparison m <= M when rank(m) <= hg.n."""
    if m.d != hg.d:
        raise ValueError("ground sets differ")
    return all(m._rank_mask(e) <= b for e, b in hg.edges)


def remove_vertex(hg, k):
    """Drop vertex k; edges lose k and survive while |e| >= bound+1.

    Labels are preserved (the active vertex mask shrinks).
    """
    mask = bit(k)
    raw = [(e & ~mask, b) for e, b in hg.edges]
    return LabeledHypergraph(
        hg.d, hg.n, hg.vertices & ~mask, _normalize_edges(raw, hg.n)
    )


def reduce(hg):
    """Identify points sharing a bound-1 edge; relabel to 1..q.

    Requires no bound-0 edges and a full vertex set.  Returns the reduced
    hypergraph (no bound-0/1 edges remain) and the quotient map.
    """
    if hg.by_bound(0):
        raise ValueError("reduction requires a hypergraph without bound-0 edges")
    if hg.vertices != full_mask(hg.d):
        raise ValueError("reduction requires a full vertex set")
    parent = {}
    for e in hg.by_bound(1):
        pts = points_of(e)
        for p in pts[1:]:
            _union(parent, pts[0], p)
    reps = sorted({_find(parent, p) for p in range(1, hg.d + 1)})
    new_label = {r: i + 1 for i, r in enumerate(reps)}
    target = tuple(new_label[_find(parent, p)] for p in range(1, hg.d + 1))
    qmap = QuotientMap(hg.d, target)
    raw = []
    for e, b in hg.edges:
        if b >= 2:
            raw.append((mask_of(new_label[_find(parent, p)] for p in points_of(e)), b))
    q = len(reps)
    red = LabeledHypergraph(q, hg.n, full_mask(q), _normalize_edges(raw, hg.n))
    return red, qmap


def valuation(hg, subset):
    """Pointwise upper bound on the rank of the subset in any matroid below
    the hypergraph: min(|A|, n, |A \\ e| + bound over edges)."""
    mask = subset if isinstance(subset, int) else mask_of(subset)
    best = min(mask.bit_count(), hg.n)
    for e, b in hg.edges:  # bounds ascend, so later edges cannot win
        if b >= best:
            break
        v = (mask & ~e).bit_count() + b
        if v < best:
            best = v
    return best


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


def check_matroid_conditions(hg, rank4=False):
    """Pairwise conditions under which the edge-induced circuits of the
    hypergraph form a matroid.

    General mode: bound1 + bound2 >= v(intersection) + v(union) for every
    pair of distinct edges.  Rank-4 mode is the sharper test for reduced
    hypergraphs (bounds 2 and 3 only): no edge pair breaks one of the four
    conditions of ``_scan_rank4``.
    """
    edges = hg.edges
    if rank4:
        if any(b not in (2, 3) for _, b in edges):
            raise ValueError("rank-4 conditions apply to reduced hypergraphs only")
        return _scan_rank4(hg, 4) is None
    for i, (e1, b1) in enumerate(edges):
        for e2, b2 in edges[i + 1 :]:
            if valuation(hg, e1 & e2) + valuation(hg, e1 | e2) > b1 + b2:
                return False
    return True


def matroid_from_hypergraph(hg, validate=False, check=True):
    """The unique maximal matroid below a hypergraph meeting the pairwise
    conditions: circuits are the inclusion-minimal (bound+1)-subsets of the
    edges together with all (n+1)-subsets of the ground set."""
    if hg.vertices != full_mask(hg.d):
        raise ValueError("matroid construction requires a full vertex set")
    if check and not check_matroid_conditions(hg):
        raise ConditionsFailed("pairwise rank-bound conditions fail")
    m = _matroid_from_hypergraph_unchecked(hg)
    if validate:
        check_circuit_axioms(m)
    return m


def _matroid_from_hypergraph_unchecked(hg):
    raw = []
    for e, b in hg.edges:
        pts = points_of(e)
        for combo in combinations(pts, b + 1):
            raw.append(mask_of(combo))
    ground = points_of(full_mask(hg.d))
    if hg.d >= hg.n + 1:
        for combo in combinations(ground, hg.n + 1):
            raw.append(mask_of(combo))
    canon = _normalize_circuit_masks(raw)
    return Matroid(hg.d, _greedy_rank(hg.d, canon), canon)
