"""The weak order on matroids: N <= M iff every dependent set of M is
dependent in N, i.e. rank_N(X) <= rank_M(X) for every subset X.

``compare`` decides the order on the cyclic flats of M alone: the rank of
any set X in M is the minimum of rank_M(F) + |X \\ F| over the cyclic flats
F of M (Bonin and de Mier, "The lattice of cyclic flats of a matroid",
2008), so N <= M exactly when no cyclic flat of M has a larger rank in N.
``brute_force_leq`` is the independent oracle used by the tests.
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

    True iff rank_m_prime(F) <= rank_m(F) for every cyclic flat F of m;
    by the cyclic-flat rank formula rank_m(X) = min over F of
    rank_m(F) + |X \\ F|, this bounds rank_m_prime by rank_m everywhere.
    Flats of rank >= rank(m_prime) hold trivially and are skipped.
    """
    if m_prime.d != m.d:
        raise GroundSetMismatch("ground sets differ")
    n = m_prime.n
    return all(m_prime._rank_mask(f) <= r for f, r in m.cyclic_flats_masks() if r < n)


def maximal_elements(matroids, stats=None):
    """Weak-order-maximal elements of a list, duplicates collapsed first.

    A single pass keeps a running antichain: each candidate is dropped if it
    lies below a kept one and evicts any kept ones below it.
    """
    uniq = sorted(set(matroids), key=Matroid.sort_key)

    def leq(a, b):
        if stats is not None:
            stats.comparisons += 1
        return compare(a, b)

    antichain = []
    for cand in uniq:
        if any(leq(cand, kept) for kept in antichain):
            continue
        antichain = [kept for kept in antichain if not leq(kept, cand)]
        antichain.append(cand)
    antichain.sort(key=Matroid.sort_key)
    return antichain
