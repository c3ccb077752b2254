"""Independent reference implementations used to cross-check the package.

Everything here works by exhaustive enumeration over subsets (or over whole
matroid families) and deliberately avoids the production code paths.
"""

from itertools import combinations, permutations

from matdeg.bitsets import mask_of, points_of
from matdeg.core import dependent_bitmap


def brute_rank(m, subset):
    """Largest independent subset size, by scanning all subsets."""
    pts = tuple(subset)
    best = 0
    for k in range(len(pts), 0, -1):
        for combo in combinations(pts, k):
            cm = mask_of(combo)
            if not any(c & ~cm == 0 for c in m.circuit_masks):
                return k
    return best


def brute_closure(m, subset):
    r = brute_rank(m, subset)
    out = set(subset)
    for x in range(1, m.d + 1):
        if x not in out and brute_rank(m, tuple(out | {x})) == r:
            out.add(x)
    return frozenset(out)


def brute_cyclic_flats(m):
    """All (flat, rank) pairs where the flat is a union of circuits,
    by scanning every subset (d <= 10)."""
    out = []
    for mask in range(1, 1 << m.d):
        pts = points_of(mask)
        r = brute_rank(m, pts)
        # flat: no outside point keeps the rank
        if any(
            brute_rank(m, pts + (x,)) == r
            for x in range(1, m.d + 1)
            if not mask >> (x - 1) & 1
        ):
            continue
        covered = 0
        for c in m.circuit_masks:
            if c & ~mask == 0:
                covered |= c
        if covered == mask:
            out.append((pts, r))
    return sorted(out, key=lambda fr: (fr[1], fr[0]))


def depmask(m):
    """All dependent subsets packed into one integer (bit s <-> mask s)."""
    dep = dependent_bitmap(m)
    out = 0
    for s in range(1 << m.d):
        if dep[s]:
            out |= 1 << s
    return out


def brute_leq(dm_small, dm_large):
    """Weak order via dependency bitmaps: N <= M iff deps(N) >= deps(M)."""
    return dm_small & dm_large == dm_large


def brute_max_below(m, universe_with_masks):
    """Maximal elements of {N < m} inside an enumerated universe.

    ``universe_with_masks`` is a list of (depmask, matroid) pairs covering
    every matroid on the same ground set with rank <= rank(m).
    """
    dm = depmask(m)
    below = [(x, nn) for x, nn in universe_with_masks if x != dm and x & dm == dm]
    below.sort(key=lambda t: bin(t[0]).count("1"))
    kept = []
    for x, nn in below:
        if not any(kx != x and x & kx == kx for kx, _ in kept):
            kept.append((x, nn))
    return sorted((nn for _, nn in kept), key=lambda t: t.sort_key())


def brute_elimination_ok(circuits):
    """Circuit elimination over every pair, by scanning the family."""
    for i, c1 in enumerate(circuits):
        for c2 in circuits[i + 1 :]:
            inter = c1 & c2
            if not inter:
                continue
            union = c1 | c2
            rem = inter
            while rem:
                low = rem & -rem
                rem ^= low
                target = union & ~low
                if not any(c3 & ~target == 0 for c3 in circuits):
                    return False
    return True


def _maps_onto(perm, dep_from, dep_to):
    """True when perm (point p -> perm[p-1]) carries the dependent sets of
    one bitmap exactly onto those of the other."""
    image = [0] * len(dep_from)
    for s in range(1, len(dep_from)):
        low = s & -s
        image[s] = image[s ^ low] | 1 << (perm[low.bit_length() - 1] - 1)
    return all(dep_to[image[s]] == dep_from[s] for s in range(len(dep_from)))


def brute_automorphisms(m):
    """Every permutation of [d] preserving the dependent sets."""
    dep = dependent_bitmap(m)
    return {p for p in permutations(range(1, m.d + 1)) if _maps_onto(p, dep, dep)}


def brute_isomorphic(a, b):
    """Isomorphism by a search over all bijections of [d]."""
    if a.d != b.d:
        return False
    dep_a, dep_b = dependent_bitmap(a), dependent_bitmap(b)
    return any(_maps_onto(p, dep_a, dep_b) for p in permutations(range(1, a.d + 1)))


def all_matroids_by_antichains(d):
    """Every labeled matroid on [d] by filtering all circuit antichains
    through the elimination axiom (practical for d <= 5)."""
    from matdeg.core import Matroid, _greedy_rank

    subsets = [mask_of(c) for k in range(1, d + 1) for c in combinations(range(1, d + 1), k)]

    found = []

    def grow(start, chosen):
        if brute_elimination_ok(chosen):
            canon = tuple(sorted(chosen, key=lambda mm: (mm.bit_count(), points_of(mm))))
            found.append(Matroid(d, _greedy_rank(d, canon), canon))
        for i in range(start, len(subsets)):
            s = subsets[i]
            if any(k & ~s == 0 or s & ~k == 0 for k in chosen):
                continue  # not an antichain
            chosen.append(s)
            grow(i + 1, chosen)
            chosen.pop()

    grow(0, [])
    return found
