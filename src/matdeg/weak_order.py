"""The weak order on matroids: N <= M iff every dependent set of M is
dependent in N, i.e. rank_N(X) <= rank_M(X) for every subset X.

``compare`` reads a *presentation* of M: (mask, bound) pairs such that
N <= M exactly when N.n <= M.n and rank_N(mask) <= bound for every pair.

- The cyclic flats of M with their ranks are one.  The rank of any set X
  in M is the minimum of rank_M(F) + |X \\ F| over the cyclic flats F
  (Bonin and de Mier, "The lattice of cyclic flats of a matroid", 2008),
  so no cyclic flat of larger rank in N means rank_N <= rank_M everywhere.
- A stable leaf of the degeneration search, the result of a checked
  ``matroid_from_hypergraph``, and a catalog, paving or Steiner matroid
  are each the maximal matroid of rank <= n below a hypergraph, so its
  edges are another (the rank test carries n), and they cost nothing to
  keep.  ``uniform_matroid`` has the empty one, and ``relabel``,
  ``designate_loop`` (when its argument has one) and
  ``QuotientMap.lift`` carry theirs over.  A lifted presentation
  adds (loops, 0) and (fiber, 1) pairs.  It decides the order, but it is
  no rank formula: never read a rank off it.

Every other matroid (parsed, restricted, dualized, ...) is presented by its
cyclic flats, computed on first use.  ``brute_force_leq`` is the
independent oracle used by the tests.
"""

from itertools import combinations

from .bitsets import full_mask, mask_of, points_of
from .core import Matroid
from .errors import GroundSetMismatch


def brute_force_leq(m_prime, m):
    """Direct dependent-set inclusion, enumerating subsets up to size n+1.

    Only for small ground sets; the production path is ``compare``.
    """
    if m_prime.d != m.d:
        raise GroundSetMismatch("ground sets differ")
    if m.d > 16:
        raise ValueError("brute-force comparison is limited to d <= 16")
    ground = points_of(full_mask(m.d))
    for size in range(1, min(m.d, m.n + 1) + 1):
        for combo in combinations(ground, size):
            mask = mask_of(combo)
            if m._is_dependent_mask(mask) and not m_prime._is_dependent_mask(mask):
                return False
    return True


def compare(m_prime, m):
    """Decide m_prime <= m in the weak order.

    True iff rank(m_prime) <= rank(m) and rank_m_prime(e) <= b for every
    pair (e, b) of m's presentation: its search hypergraph when it has one,
    else its cyclic flats.  Pairs with b >= rank(m_prime) hold trivially
    and are skipped.
    """
    if m_prime.d != m.d:
        raise GroundSetMismatch("ground sets differ")
    n = m_prime.n
    return n <= m.n and all(
        m_prime._rank_mask(e) <= b for e, b in m._presentation_masks() if b < n
    )


def _insert_maximal(antichain, cand, leq):
    """One step of a running antichain under the order ``leq``: drop
    ``cand`` if it lies below a kept member, else evict the members below
    it and keep it.  The list is updated in place."""
    if not any(leq(cand, kept) for kept in antichain):
        antichain[:] = [kept for kept in antichain if not leq(kept, cand)]
        antichain.append(cand)


def maximal_elements(matroids, stats=None):
    """Weak-order-maximal elements of a list, duplicates collapsed first,
    by one pass of a running antichain."""
    uniq = sorted(set(matroids), key=Matroid.sort_key)

    def leq(a, b):
        if stats is not None:
            stats.comparisons += 1
        return compare(a, b)

    antichain = []
    for cand in uniq:
        _insert_maximal(antichain, cand, leq)
    return antichain  # kept in input order, so sorted
