"""Labeled hypergraphs: compact rank-bound constraints on subsets.

An edge (e, i) asserts "rank(e) <= i" for every matroid lying below the
hypergraph.  A hypergraph is its ambient rank n and its edges on the ground
set [d]; no point is ever deleted.  ``reduce`` (which identifies points
connected by bound-1 edges) relabels to a fresh contiguous ground set and
returns the quotient map.

The edges are always normalized: one bound per mask, every bound below n
and below the mask's size, no edge nested in another of the same bound,
sorted by bound and then in the canonical subset order.  ``induce``,
``reduce``, ``delta_of_matroid`` and ``with_edge`` are the only functions
that make a hypergraph, and ``with_edge`` relies on its argument being
normalized to insert one edge in a single pass.
"""

from bisect import bisect

from .bitsets import MAX_GROUND, canon_key, masks_of_size, points_of, submasks_of_size
from .core import Matroid, QuotientMap, _mask_in
from .errors import ConditionsFailed


class LabeledHypergraph:
    """Edges (mask, bound) with 0 <= bound <= n-1, canonically sorted."""

    __slots__ = ("d", "n", "edges", "_hash")

    def __init__(self, d, n, edges):
        self.d = d
        self.n = n
        self.edges = edges
        self._hash = hash((d, n, edges))

    def __eq__(self, other):
        return (
            isinstance(other, LabeledHypergraph)
            and self.d == other.d
            and self.n == other.n
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

    def by_bound(self, i):
        return tuple(e for e, b in self.edges if b == i)

    def edge_points(self):
        return tuple((points_of(e), b) for e, b in self.edges)


def _edge_key(edge):
    """Canonical edge order: by bound, then in the canonical subset order."""
    return (edge[1], canon_key(edge[0]))


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
    kept.sort(key=_edge_key)
    return tuple(kept)


def induce(raw, d, n):
    """Normalize raw (subset, bound) pairs into a labeled hypergraph on [d].

    Removes edges nested inside a larger edge of the same bound and edges
    with |e| <= bound; when several bounds are given for one subset the
    smallest wins.
    """
    if not 0 <= d <= MAX_GROUND:
        raise ValueError("ground-set size must be between 0 and %d" % MAX_GROUND)
    if n < 0:
        raise ValueError("the ambient rank must be nonnegative")
    pairs = []
    for e, b in raw:
        mask = _mask_in(e, d, "edge")
        if mask == 0:
            raise ValueError("an edge cannot be empty")
        if b < 0:
            raise ValueError("edge bounds must be nonnegative")
        pairs.append((mask, b))
    return LabeledHypergraph(d, n, _normalize_edges(pairs, n))


def with_edge(hg, mask, bound):
    """The hypergraph induced by adding one edge (bound < 0 is infeasible).

    Equal to normalizing ``hg.edges`` plus the edge, in one pass: the edges
    of ``hg`` are normalized already, so only the edge's own mask and the
    same-bound edges nested with it can change.
    """
    if bound >= hg.n or mask.bit_count() <= bound:
        return hg
    kept = []
    covered = False
    for e, b in hg.edges:
        if e == mask:
            if b <= bound:
                return hg
            continue  # the new bound replaces the old one
        if b == bound:
            if e & ~mask == 0:
                continue  # nested in the new edge
            if mask & ~e == 0:
                covered = True  # the new edge is nested in this one
        kept.append((e, b))
    if not covered:
        kept.insert(bisect(kept, _edge_key((mask, bound)), key=_edge_key), (mask, bound))
    return LabeledHypergraph(hg.d, hg.n, tuple(kept))


def delta_of_matroid(m):
    """Edges of bound i = cyclic flats of rank i, for 0 <= i <= rank(m) - 1."""
    edges = tuple((f, r) for f, r in m.cyclic_flats_masks() if r < m.n)
    return LabeledHypergraph(m.d, m.n, edges)


def leq_hyper(m, hg):
    """True iff rank_m(e) <= bound for every edge; for hg = delta of M this
    is exactly the weak-order comparison m <= M when rank(m) <= hg.n."""
    if m.d != hg.d:
        raise ValueError("ground sets differ")
    return all(m._rank_mask(e) <= b for e, b in hg.edges)


def reduce(hg):
    """Identify points sharing a bound-1 edge; relabel to 1..q.

    Requires no bound-0 edges.  The quotient map joins the bound-1 edges,
    and the edges of bound >= 2 pass through it.  Returns the reduced
    hypergraph (no bound-0/1 edges remain) and the map.
    """
    if hg.by_bound(0):
        raise ValueError("reduction requires a hypergraph without bound-0 edges")
    qmap = QuotientMap.collapsing(hg.d, 0, hg.by_bound(1))
    raw = [(qmap.apply_mask(e), b) for e, b in hg.edges if b >= 2]
    red = LabeledHypergraph(qmap.q, hg.n, _normalize_edges(raw, hg.n))
    return red, qmap


def valuation(hg, subset):
    """Pointwise upper bound on the rank of the subset in any matroid below
    the hypergraph: min(|A|, n, |A \\ e| + bound over edges)."""
    return _valuation(hg, _mask_in(subset, hg.d))


def _valuation(hg, mask):
    """``valuation`` of a mask already known to lie in [d]: the search's
    form, which skips the check."""
    best = min(mask.bit_count(), hg.n)
    for e, b in hg.edges:  # bounds ascend, so later edges cannot win
        if b >= best:
            break
        v = (mask & ~e).bit_count() + b
        if v < best:
            best = v
    return best


def check_matroid_conditions(hg):
    """Pairwise conditions under which the edge-induced circuits of the
    hypergraph form a matroid: bound1 + bound2 >= v(intersection) +
    v(union) for every pair of distinct edges.  (For reduced rank-4
    hypergraphs, the search's rank-4 branching rule is the sharper test.)
    """
    edges = hg.edges
    for i, (e1, b1) in enumerate(edges):
        for e2, b2 in edges[i + 1 :]:
            if _valuation(hg, e1 & e2) + _valuation(hg, e1 | e2) > b1 + b2:
                return False
    return True


def matroid_from_hypergraph(hg):
    """The unique maximal matroid below a hypergraph meeting the pairwise
    conditions: circuits are the inclusion-minimal (bound+1)-subsets of the
    edges together with all (n+1)-subsets of the ground set."""
    if not check_matroid_conditions(hg):
        raise ConditionsFailed("pairwise rank-bound conditions fail")
    return _matroid_from_hypergraph_unchecked(hg)


def _matroid_from_hypergraph_unchecked(hg):
    """The matroid of ``hg``'s edge-induced circuits, for a caller that knows
    the conditions hold: it is the maximal matroid below the edges.  The
    search builds its stable leaves with it, and the catalog its paving and
    small-circuit matroids.

    A candidate S, a (b+1)-subset of an edge (e, b) or an (n+1)-subset of
    [d], is a circuit unless it holds a smaller candidate: a (c+1)-subset of
    some edge (e, c) with c + 1 < |S|, i.e. |S & e| > c.  No (n+1)-subset
    is smaller than a candidate, since every bound is below n.
    """
    edges = hg.edges
    cands = set(masks_of_size(hg.d, hg.n + 1))
    for e, b in edges:
        cands.update(submasks_of_size(e, b + 1))

    def is_circuit(s):
        k = s.bit_count()
        for e, c in edges:  # bounds ascend, so no later edge is smaller
            if c + 1 >= k:
                return True
            if (s & e).bit_count() > c:
                return False
        return True

    canon = tuple(sorted(filter(is_circuit, cands), key=canon_key))
    return Matroid(hg.d, None, canon)
