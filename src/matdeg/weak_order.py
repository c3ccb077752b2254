"""The weak order on matroids: N <= M iff every dependent set of M is
dependent in N.

Dependence is closed under supersets, so N <= M exactly when every circuit
of M is dependent in N, and ``compare`` tests that on M's stored circuits.
A set larger than rank(N) is always dependent in N, so the test stops at
the first circuit of M that large.  ``brute_force_leq`` is the independent
oracle used by the tests.
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
    """Decide m_prime <= m in the weak order: every circuit of m is
    dependent in m_prime.  Circuits are sorted by size, so the first one
    larger than rank(m_prime) ends the scan; it and all later ones are
    dependent there.  The test implies rank(m_prime) <= rank(m), which is
    checked first as a shortcut."""
    if m_prime.d != m.d:
        raise GroundSetMismatch("ground sets differ")
    n = m_prime.n
    if n > m.n:
        return False
    for c in m.circuit_masks:
        k = c.bit_count()
        if k > n:
            break
        if m_prime._rank_mask(c) == k:
            return False
    return True


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
