"""Independent reference implementations used to cross-check the package.

Everything here works by exhaustive enumeration over subsets (or over whole
matroid families) and deliberately avoids the production code paths.
"""

from functools import lru_cache
from itertools import combinations, permutations, product

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


@lru_cache(maxsize=None)
def _packed_sets(d, n):
    """Packed bitmaps over the subsets of [d]: the n-sets, and for each
    point the sets without it."""
    sets = range(1 << d)
    n_sets = sum(1 << s for s in sets if s.bit_count() == n)
    return n_sets, tuple(sum(1 << s for s in sets if not s >> i & 1) for i in range(d))


def dual_depmask(dm, d, n):
    """Depmask of the dual of a rank-n matroid on [d], from its depmask.

    X is dependent in the dual iff [d] \\ X contains no basis.  The sets
    that contain a basis are closed upward one point at a time, as shifts
    of the packed bitmap, and X -> [d] \\ X reverses the packed bitmap.
    """
    n_sets, lacking = _packed_sets(d, n)
    spanning = n_sets & ~dm
    for i, without in enumerate(lacking):
        spanning |= (spanning & without) << (1 << i)
    size = 1 << d
    return int(format(((1 << size) - 1) ^ spanning, "0%db" % size)[::-1], 2)


def brute_max_below(m, universe_with_masks):
    """Maximal elements of {N < m} inside an enumerated universe.

    ``universe_with_masks`` is a list of (depmask, matroid) pairs covering
    every matroid on the same ground set with rank <= rank(m).  A matroid
    may also be given as a function of no arguments that builds it, called
    only when it is kept.
    """
    dm = depmask(m)
    below = [(x, nn) for x, nn in universe_with_masks if x != dm and x & dm == dm]
    below.sort(key=lambda t: t[0].bit_count())
    kept = []
    for x, nn in below:
        if not any(kx != x and x & kx == kx for kx, _ in kept):
            kept.append((x, nn))
    out = [nn() if callable(nn) else nn for _, nn in kept]
    return sorted(out, key=lambda t: t.sort_key())


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
    from matdeg.core import Matroid

    subsets = [mask_of(c) for k in range(1, d + 1) for c in combinations(range(1, d + 1), k)]

    found = []

    def grow(start, chosen):
        if brute_elimination_ok(chosen):
            canon = tuple(sorted(chosen, key=lambda mm: (mm.bit_count(), points_of(mm))))
            found.append(Matroid(d, None, canon))
        for i in range(start, len(subsets)):
            s = subsets[i]
            if any(k & ~s == 0 or s & ~k == 0 for k in chosen):
                continue  # not an antichain
            chosen.append(s)
            grow(i + 1, chosen)
            chosen.pop()

    grow(0, [])
    return found


def brute_lift(target, m):
    """Lift of m through the quotient map with the given target tuple
    (0 for a removed loop), as its circuit masks: loops, pairs inside
    each fiber and every transversal of the fibers of each circuit of m,
    canonically sorted."""
    d = len(target)
    fiber = {t: [p for p in range(1, d + 1) if target[p - 1] == t] for t in range(1, m.d + 1)}
    loops = [p for p in range(1, d + 1) if target[p - 1] == 0]
    circuits = {mask_of([p]) for p in loops}
    for pts in fiber.values():
        circuits |= {mask_of(pair) for pair in combinations(pts, 2)}
    for c in m.circuits:
        for choice in product(*(fiber[t] for t in c)):
            circuits.add(mask_of(choice))
    return tuple(sorted(circuits, key=lambda c: (c.bit_count(), points_of(c))))
