"""Canonical labeling, isomorphism testing and automorphism groups.

One backtracking search serves all three.  The canonical form is the
lexicographically minimal dependency bitstring over relabelings: positions
are filled one point at a time (classes from an invariant color refinement
fix the block structure) and every completed subset contributes one bit, so
a branch-and-bound search over color-compatible assignments finds the exact
minimum.  The search cuts only strictly greater prefixes, so it reaches
every relabeling that ties with the minimum; those ties are the canonical
relabeling composed with each automorphism, which is how the automorphism
group is read off (McKay and Piperno, "Practical graph isomorphism, II",
2014).  Uniform families are label-invariant and short-circuit the search.
"""

import hashlib
from itertools import chain, combinations
from math import comb, factorial
from operator import itemgetter

from .bitsets import bit, points_of
from .core import Matroid, dependent_bitmap, relabel, subspace_table


def _is_uniform_family(m):
    """True when the circuits are exactly all (n+1)-subsets (or none)."""
    if not m.circuit_masks:
        return True
    k = m.circuit_masks[0].bit_count()
    if any(c.bit_count() != k for c in m.circuit_masks):
        return False
    return len(m.circuit_masks) == comb(m.d, k)


def _refined_colors(m):
    """Deterministic invariant colors per point, refined to a fixpoint.

    Seed invariants: loop flag, subspace degree, multiset of subspace ranks
    through the point, circuit-size histogram through the point.  Each round
    appends the multiset of color tuples seen across circuits through the
    point.
    """
    table = subspace_table(m)
    sub_ranks = {p: [] for p in range(1, m.d + 1)}
    for pts, r in table.subspaces:
        for p in pts:
            sub_ranks[p].append(r)
    seed = {}
    for p in range(1, m.d + 1):
        sizes = sorted(c.bit_count() for c in m._by_point[p])
        seed[p] = (
            int(bool(bit(p) & m.loops_mask)),
            table.degree(p),
            tuple(sorted(sub_ranks[p])),
            tuple(sizes),
        )
    colors = _intern({p: (seed[p],) for p in range(1, m.d + 1)})
    while True:
        nxt = {}
        for p in range(1, m.d + 1):
            around = sorted(
                (c.bit_count(), tuple(sorted(colors[q] for q in points_of(c))))
                for c in m._by_point[p]
            )
            nxt[p] = (colors[p], tuple(around))
        nxt = _intern(nxt)
        if _partition(nxt) == _partition(colors):
            return nxt
        colors = nxt


def _intern(raw):
    order = sorted(set(raw.values()))
    index = {sig: i for i, sig in enumerate(order)}
    return {p: index[sig] for p, sig in raw.items()}


def _partition(colors):
    groups = {}
    for p, c in colors.items():
        groups.setdefault(c, set()).add(p)
    return sorted(map(frozenset, groups.values()), key=lambda s: sorted(s))


def _color_blocks(m):
    """Classes ordered by a label-invariant signature; positions are filled
    class by class in this order."""
    colors = _refined_colors(m)
    groups = {}
    for p, c in colors.items():
        groups.setdefault(c, []).append(p)
    # the interned color index is already label-invariant (derived from
    # sorted signatures), so ordering blocks by it is canonical
    return [sorted(groups[c]) for c in sorted(groups)]


def _min_relabeling(m):
    """Every ordering of the points (position k+1 -> source point) whose
    relabeling attains the minimal dependency bitstring.

    Position k+1 takes a point of block ``slots[k]`` and contributes one
    chunk: the dependency bits of that point joined with each subset of
    the earlier positions, subsets of size 0..max_size-1 in combinations
    order.  A prefix is cut only when it is strictly greater than the best
    one's, so every leaf that ties with the minimum is reached.  Children
    are tried smallest chunk first, which finds a good bound early and
    changes no answer, since every tie is reached in any order.
    """
    d, n = m.d, m.n
    if _is_uniform_family(m):
        return [tuple(range(1, d + 1))]
    dep = memoryview(dependent_bitmap(m))
    slots = []  # slots[k] = bits of the block feeding position k+1
    for block in _color_blocks(m):
        slots.extend([[bit(p) for p in block]] * len(block))
    max_size = min(n + 1, d)

    best_chunks = None
    ties = []

    # state: prefix[k] = bit of the source point at position k+1
    def extend(prefix, used, chunks):
        nonlocal best_chunks
        k = len(prefix)
        if k == d:
            if best_chunks is None or chunks < best_chunks:
                best_chunks = list(chunks)
                ties.clear()
            ties.append(tuple(b.bit_length() for b in prefix))
            return
        # a candidate b lies outside every subset of the prefix, so
        # sub | b == sub + b and one itemgetter call on the view dep[b:]
        # reads its whole chunk
        chunk_of = itemgetter(
            *map(sum, chain.from_iterable(combinations(prefix, s) for s in range(max_size)))
        )
        for chunk, b in sorted((chunk_of(dep[b:]), b) for b in slots[k] if not used & b):
            chunks.append(chunk)
            if best_chunks is None or chunks <= best_chunks[: k + 1]:
                extend(prefix + [b], used | b, chunks)
            chunks.pop()

    extend([], 0, [])
    return ties


class CanonicalForm:
    """Relabeling-invariant certificate: the circuit family under the
    minimal relabeling, plus a digest of it."""

    __slots__ = ("certificate", "hash")

    def __init__(self, certificate):
        self.certificate = certificate
        self.hash = hashlib.sha256(repr(certificate).encode()).hexdigest()

    def __eq__(self, other):
        return isinstance(other, CanonicalForm) and self.certificate == other.certificate

    def __hash__(self):
        return hash(self.certificate)

    def __repr__(self):
        return "CanonicalForm(%s)" % self.hash[:12]


def canonical_form(m):
    form, _ = _canonical(m)
    return form


def canonical_permutation(m):
    """The relabeling old->new realizing the canonical form."""
    _, perm = _canonical(m)
    return perm


def _canonical(m):
    if m._canon_cache is None:
        # every tie gives the same form; the least ordering keeps the
        # permutation independent of the order children are tried in
        perm = [0] * m.d
        for pos, src in enumerate(min(_min_relabeling(m)), 1):
            perm[src - 1] = pos
        perm = tuple(perm)
        canon = relabel(m, perm)
        form = CanonicalForm((m.d, m.n, canon.circuits))
        m._canon_cache = (form, perm)
    return m._canon_cache


def are_isomorphic(m1, m2):
    if m1.d != m2.d or m1.n != m2.n:
        return False
    sizes1 = sorted(c.bit_count() for c in m1.circuit_masks)
    sizes2 = sorted(c.bit_count() for c in m2.circuit_masks)
    if sizes1 != sizes2:
        return False
    return canonical_form(m1) == canonical_form(m2)


class AutomorphismGroup:
    """Permutations preserving dependence: the order, and ``generators``
    that regenerate the group by composition."""

    __slots__ = ("order", "generators")

    def __init__(self, order, generators):
        self.order = order
        self.generators = generators

    def __repr__(self):
        return "AutomorphismGroup(order=%d, %d generators)" % (
            self.order,
            len(self.generators),
        )


def automorphisms(m):
    """The automorphism group, read off the ties of the canonical search.

    The color classes are label-invariant, so two orderings tie exactly
    when mapping the one onto the other, position by position, is an
    automorphism; mapping every tie onto a fixed one lists the group.
    Generators are a greedy subset of the sorted elements.
    """
    d = m.d
    if _is_uniform_family(m):
        gens = []
        if d >= 2:
            gens.append(tuple([2, 1] + list(range(3, d + 1))))
        if d >= 3:
            gens.append(tuple(list(range(2, d + 1)) + [1]))
        return AutomorphismGroup(factorial(d), tuple(gens))
    ties = _min_relabeling(m)
    ref = ties[0]
    elements = sorted(tuple(dst for _, dst in sorted(zip(t, ref))) for t in ties)
    return AutomorphismGroup(len(elements), _generating_subset(elements, d))


def _compose(g, h):
    """Apply g first, then h (both as tuples: point p -> perm[p-1])."""
    return tuple(h[g[p - 1] - 1] for p in range(1, len(g) + 1))


def _generating_subset(elements, d):
    """Greedy generating set: add any element outside the closure so far."""
    identity = tuple(range(1, d + 1))
    gens = []
    have = {identity}
    for g in elements:
        if g in have:
            continue
        gens.append(g)
        have = {identity}
        queue = [identity]
        while queue:
            x = queue.pop()
            for y in gens:
                z = _compose(x, y)
                if z not in have:
                    have.add(z)
                    queue.append(z)
        if len(have) == len(elements):
            break
    return tuple(gens)


def orbit_of(m, group):
    """All relabelings of a matroid under a group (generators suffice)."""
    gens = group.generators if isinstance(group, AutomorphismGroup) else tuple(group)
    seen = {m}
    queue = [m]
    while queue:
        x = queue.pop()
        for g in gens:
            y = relabel(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def group_by_symmetry(matroids, source_or_group):
    """Partition a list into orbits under the automorphisms of the source.

    Returns a list of (representative, members) pairs, canonically sorted;
    members not related by the group end up in singleton classes.
    """
    if isinstance(source_or_group, Matroid):
        group = automorphisms(source_or_group)
    else:
        group = source_or_group
    pending = sorted(set(matroids), key=Matroid.sort_key)
    classes = []
    assigned = set()
    for mm in pending:
        if mm in assigned:
            continue
        orbit = orbit_of(mm, group)
        members = tuple(x for x in pending if x in orbit)
        assigned.update(members)
        classes.append((members[0], members))
    classes.sort(key=lambda rm: rm[0].sort_key())
    return classes
