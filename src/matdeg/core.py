"""Matroids on {1,...,d} stored by their circuit families.

A matroid is immutable once built: the ground-set size ``d``, the rank ``n``
and the canonical circuit list determine everything else.  Rank queries go
through a greedy independence oracle (correct by the exchange axiom) with a
per-instance cache; heavier derived data (cyclic flats, subspace tables) is
computed lazily and cached as well, so values can be shared freely between
threads once constructed.
"""

from itertools import combinations

from .bitsets import (
    MAX_GROUND,
    bit,
    canon_key,
    full_mask,
    mask_of,
    masks_of_size,
    points_of,
)
from .errors import AxiomViolation, MatdegError, RankMismatch


def _normalize_circuit_masks(masks):
    """Dedupe and keep only inclusion-minimal masks, canonically sorted.

    Same-size masks cannot nest, so each candidate is tested against the
    strictly smaller survivors only.
    """
    by_size = {}
    for m in set(masks):
        by_size.setdefault(m.bit_count(), []).append(m)
    kept = []
    smaller = []
    for size in sorted(by_size):
        group = []
        for m in sorted(by_size[size], key=canon_key):
            if not any(k & ~m == 0 for k in smaller):
                group.append(m)
        kept.extend(group)
        smaller = kept
    return tuple(kept)


class Matroid:
    """A matroid given by its ground-set size, rank and circuits."""

    __slots__ = (
        "d",
        "n",
        "circuit_masks",
        "_by_point",
        "_rank_cache",
        "_closure_cache",
        "_cyclic_flats",
        "_delta_cache",
        "_canon_cache",
        "_key",
        "_hash",
    )

    def __init__(self, d, n, circuit_masks):
        # circuit_masks must already be a canonical minimal family; use
        # matroid_from_circuits for raw input.
        self.d = d
        self.n = n
        self.circuit_masks = circuit_masks
        by_point = [()] * (d + 1)
        buckets = {}
        for c in circuit_masks:
            for p in points_of(c):
                buckets.setdefault(p, []).append(c)
        for p, cs in buckets.items():
            by_point[p] = tuple(cs)
        self._by_point = tuple(by_point)
        self._rank_cache = {}
        self._closure_cache = {}
        self._cyclic_flats = None
        self._delta_cache = {}
        self._canon_cache = None
        self._key = (d, circuit_masks)
        self._hash = hash(self._key)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Matroid) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (Matroid, (self.d, self.n, self.circuit_masks))

    def __repr__(self):
        return "Matroid(d=%d, n=%d, %d circuits)" % (
            self.d,
            self.n,
            len(self.circuit_masks),
        )

    def sort_key(self):
        return (self.d, self.n, tuple(canon_key(c) for c in self.circuit_masks))

    @property
    def circuits(self):
        return tuple(points_of(c) for c in self.circuit_masks)

    # -- rank machinery ----------------------------------------------------

    def _rank_mask(self, mask):
        cached = self._rank_cache.get(mask)
        if cached is not None:
            return cached
        indep = 0
        rem = mask
        by_point = self._by_point
        while rem:
            low = rem & -rem
            rem ^= low
            cand = indep | low
            for c in by_point[low.bit_length()]:
                if c & ~cand == 0:
                    break
            else:
                indep = cand
        r = indep.bit_count()
        self._rank_cache[mask] = r
        return r

    def _is_dependent_mask(self, mask):
        for c in self.circuit_masks:
            if c & ~mask == 0:
                return True
            if c.bit_count() > mask.bit_count():
                # circuits are size-sorted; nothing larger can fit
                return False
        return False

    def _closure_mask(self, mask):
        cached = self._closure_cache.get(mask)
        if cached is not None:
            return cached
        r = self._rank_mask(mask)
        out = mask
        rest = full_mask(self.d) & ~mask
        while rest:
            low = rest & -rest
            rest ^= low
            if self._rank_mask(mask | low) == r:
                out |= low
        self._closure_cache[mask] = out
        return out

    @property
    def loops_mask(self):
        m = 0
        for c in self.circuit_masks:
            if c.bit_count() == 1:
                m |= c
            else:
                break
        return m

    def is_simple(self):
        return all(c.bit_count() > 2 for c in self.circuit_masks)

    # -- flats -------------------------------------------------------------

    def cyclic_flats_masks(self):
        """All cyclic flats as (mask, rank), canonically sorted.

        The rank-0 entry is the set of loops when nonempty; the empty set is
        never reported.
        """
        if self._cyclic_flats is None:
            flats = {}
            ground = points_of(full_mask(self.d))
            for size in range(0, self.n + 1):
                for combo in combinations(ground, size):
                    m = mask_of(combo)
                    if self._rank_mask(m) < size:
                        continue
                    cl = self._closure_mask(m)
                    flats[cl] = self._rank_mask(cl)
            out = []
            for f, r in flats.items():
                if f == 0:
                    continue
                if all(self._rank_mask(f & ~b) == r for b in _bits(f)):
                    out.append((f, r))
            out.sort(key=lambda fr: (fr[1], canon_key(fr[0])))
            self._cyclic_flats = tuple(out)
        return self._cyclic_flats

    def flats_of_rank(self, r):
        """All flats of the given rank, as masks."""
        seen = set()
        ground = points_of(full_mask(self.d))
        for combo in combinations(ground, r):
            m = mask_of(combo)
            if self._rank_mask(m) == r:
                seen.add(self._closure_mask(m))
        return sorted(seen, key=canon_key)


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


# -- construction -----------------------------------------------------------


def matroid_from_circuits(d, n=None, circuits=(), validate=False):
    """Build a matroid from a family of circuits.

    ``circuits`` may contain redundant supersets; the family is reduced to
    its inclusion-minimal members and sorted canonically.  When ``validate``
    is set the circuit elimination axiom is checked exhaustively (quadratic
    in the number of circuits; meant for d <= 12).
    """
    if not 0 <= d <= MAX_GROUND:
        raise ValueError("ground-set size must be between 0 and %d" % MAX_GROUND)
    fm = full_mask(d)
    masks = []
    for c in circuits:
        m = c if isinstance(c, int) else mask_of(c)
        if m == 0:
            raise ValueError("the empty set cannot be a circuit")
        if m & ~fm:
            raise ValueError("circuit %s is not a subset of [%d]" % (points_of(m), d))
        masks.append(m)
    canon = _normalize_circuit_masks(masks)
    rank = _greedy_rank(d, canon)
    if n is not None and n != rank:
        raise RankMismatch("declared rank %d but circuits give rank %d" % (n, rank))
    m = Matroid(d, rank, canon)
    if validate:
        check_circuit_axioms(m)
    return m


def _greedy_rank(d, circuit_masks):
    by_point = {}
    for c in circuit_masks:
        for p in points_of(c):
            by_point.setdefault(p, []).append(c)
    indep = 0
    for p in range(1, d + 1):
        cand = indep | bit(p)
        if not any(c & ~cand == 0 for c in by_point.get(p, ())):
            indep = cand
    return indep.bit_count()


def check_circuit_axioms(m):
    """Exhaustive circuit-elimination check; raises AxiomViolation.

    Each elimination is one dependence test.  The greedy rank pass skips a
    point of every family member inside the set, so rank < size exactly
    when the set contains a member, even on a family that is no matroid.
    """
    cs = m.circuit_masks
    for i, c1 in enumerate(cs):
        for c2 in cs[i + 1 :]:
            inter = c1 & c2
            if inter == 0:
                continue
            union = c1 | c2
            for x in _bits(inter):
                target = union & ~x
                if m._rank_mask(target) == target.bit_count():
                    raise AxiomViolation(
                        "elimination fails for %s, %s at point %d"
                        % (points_of(c1), points_of(c2), x.bit_length())
                    )
    return True


# -- basic queries ----------------------------------------------------------


def rank_of(m, subset):
    """Rank of a subset: size of its largest independent subset."""
    return m._rank_mask(subset if isinstance(subset, int) else mask_of(subset))


def closure(m, subset):
    """All points whose addition does not raise the rank of the subset."""
    mask = subset if isinstance(subset, int) else mask_of(subset)
    return frozenset(points_of(m._closure_mask(mask)))


def is_dependent(m, subset):
    mask = subset if isinstance(subset, int) else mask_of(subset)
    return m._is_dependent_mask(mask)


def cyclic_flats(m):
    """Flats that are unions of circuits, as (point tuple, rank) pairs."""
    return tuple((points_of(f), r) for f, r in m.cyclic_flats_masks())


def bases(m):
    """All bases, as masks in canonical order."""
    out = []
    for mask in masks_of_size(m.d, m.n):
        if not m._is_dependent_mask(mask):
            out.append(mask)
    return tuple(out)


def independent_masks(m, max_size=None):
    """All nonempty independent subsets up to max_size, canonically ordered."""
    top = m.n if max_size is None else min(max_size, m.n)
    out = []
    for size in range(1, top + 1):
        for mask in masks_of_size(m.d, size):
            if not m._is_dependent_mask(mask):
                out.append(mask)
    return out


# -- constructions ----------------------------------------------------------


def uniform_matroid(n, d):
    if n > d:
        raise ValueError("rank cannot exceed the ground-set size")
    circuits = tuple(masks_of_size(d, n + 1))
    return Matroid(d, n, circuits)


def restriction(m, subset):
    """Restrict to a subset, relabeled to 1..|S|.

    Returns (matroid, old_to_new) where old_to_new maps surviving points to
    their new labels.
    """
    mask = subset if isinstance(subset, int) else mask_of(subset)
    pts = points_of(mask)
    old_to_new = {p: i + 1 for i, p in enumerate(pts)}
    circuits = []
    for c in m.circuit_masks:
        if c & ~mask == 0:
            circuits.append(mask_of(old_to_new[p] for p in points_of(c)))
    canon = _normalize_circuit_masks(circuits)
    return Matroid(len(pts), m._rank_mask(mask), canon), old_to_new


def deletion(m, subset):
    """Delete a subset of points; same relabeling contract as restriction."""
    mask = subset if isinstance(subset, int) else mask_of(subset)
    return restriction(m, full_mask(m.d) & ~mask)


def dual(m):
    """Dual matroid; its circuits are the complements of the hyperplanes."""
    fm = full_mask(m.d)
    if m.n == 0:
        return Matroid(m.d, m.d, ())
    circuits = [fm & ~h for h in m.flats_of_rank(m.n - 1)]
    canon = _normalize_circuit_masks(circuits)
    out = Matroid(m.d, m.d - m.n, canon)
    assert _greedy_rank(m.d, canon) == m.d - m.n
    return out


def truncation(m):
    """Drop the rank by one: independent sets of size at most n-1 survive."""
    if m.n < 1:
        raise ValueError("truncation needs rank >= 1")
    circuits = list(m.circuit_masks) + list(masks_of_size(m.d, m.n))
    return Matroid(m.d, m.n - 1, _normalize_circuit_masks(circuits))


def designate_loop(m, k):
    """Declare point k a loop: circuits avoiding k survive, plus {k}."""
    if not 1 <= k <= m.d:
        raise ValueError("point out of range")
    b = bit(k)
    circuits = [c for c in m.circuit_masks if c & b == 0] + [b]
    canon = _normalize_circuit_masks(circuits)
    return Matroid(m.d, _greedy_rank(m.d, canon), canon)


def relabel(m, perm):
    """Apply a permutation of [d]; perm maps old point -> new point."""
    if isinstance(perm, dict):
        get = perm.__getitem__
    else:
        get = lambda p: perm[p - 1]
    circuits = [mask_of(get(p) for p in points_of(c)) for c in m.circuit_masks]
    return Matroid(m.d, m.n, tuple(sorted(circuits, key=canon_key)))


# -- quotients (loops removed, parallel points identified) -------------------


class QuotientMap:
    """Records removed loops and identified double points.

    ``target[p-1]`` is the new label of source point p, or 0 when p was
    removed as a loop.  The map is enough to lift matroids on the quotient
    ground set back: removed points come back as loops and every nontrivial
    fiber becomes a parallel class.
    """

    __slots__ = ("d_source", "target", "_hash")

    def __init__(self, d_source, target):
        self.d_source = d_source
        self.target = tuple(target)
        self._hash = hash((d_source, self.target))

    @classmethod
    def identity(cls, d):
        return cls(d, tuple(range(1, d + 1)))

    @property
    def q(self):
        return max(self.target, default=0)

    @property
    def removed_loops(self):
        return frozenset(p for p in range(1, self.d_source + 1) if self.target[p - 1] == 0)

    @property
    def classes(self):
        fibers = {}
        for p in range(1, self.d_source + 1):
            t = self.target[p - 1]
            if t:
                fibers.setdefault(t, []).append(p)
        return tuple(tuple(fibers[t]) for t in sorted(fibers))

    def is_identity(self):
        return self.target == tuple(range(1, self.d_source + 1))

    def __eq__(self, other):
        return (
            isinstance(other, QuotientMap)
            and self.d_source == other.d_source
            and self.target == other.target
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "QuotientMap(%d -> %d, %d loops)" % (
            self.d_source,
            self.q,
            len(self.removed_loops),
        )

    def compose(self, then):
        """Apply self first, then ``then`` (a map on [self.q])."""
        out = []
        for t in self.target:
            out.append(0 if t == 0 else then.target[t - 1])
        return QuotientMap(self.d_source, out)

    def apply_mask(self, mask):
        out = 0
        for p in points_of(mask):
            t = self.target[p - 1]
            if t:
                out |= bit(t)
        return out

    def lift(self, m):
        """Lift a matroid on the quotient ground set back to the source.

        Loops return as singleton circuits, each nontrivial fiber becomes a
        parallel class, and each circuit of ``m`` lifts to all transversals
        of the fibers of its points.
        """
        if m.d != self.q:
            raise ValueError("matroid lives on the wrong ground set")
        fibers = {}
        for p in range(1, self.d_source + 1):
            t = self.target[p - 1]
            if t:
                fibers.setdefault(t, []).append(p)
        circuits = [bit(p) for p in sorted(self.removed_loops)]
        for pts in fibers.values():
            for a, b in combinations(pts, 2):
                circuits.append(bit(a) | bit(b))
        for c in m.circuit_masks:
            pools = [fibers[t] for t in points_of(c)]
            for choice in _product(pools):
                circuits.append(mask_of(choice))
        canon = tuple(sorted(set(circuits), key=canon_key))
        return Matroid(self.d_source, m.n, canon)


def _product(pools):
    if not pools:
        yield ()
        return
    for head in pools[0]:
        for rest in _product(pools[1:]):
            yield (head,) + rest


def simplify(m):
    """Remove loops and collapse double-point classes to their minima.

    Returns (simple matroid on 1..q, QuotientMap).  Lifting through the map
    restores the original matroid exactly.
    """
    loops = m.loops_mask
    parent = {}
    for c in m.circuit_masks:
        if c.bit_count() == 2:
            _union(parent, *points_of(c))
    reps = []
    rep_of = {}
    for p in range(1, m.d + 1):
        if bit(p) & loops:
            continue
        r = _find(parent, p)
        if r not in rep_of:
            rep_of[r] = None
            reps.append(r)
    reps.sort()
    new_label = {r: i + 1 for i, r in enumerate(reps)}
    target = []
    for p in range(1, m.d + 1):
        if bit(p) & loops:
            target.append(0)
        else:
            target.append(new_label[_find(parent, p)])
    qmap = QuotientMap(m.d, target)
    rep_mask = mask_of(reps)
    circuits = []
    for c in m.circuit_masks:
        if c & ~rep_mask == 0 and c.bit_count() > 2:
            circuits.append(mask_of(new_label[p] for p in points_of(c)))
    simple = Matroid(len(reps), m.n, tuple(sorted(set(circuits), key=canon_key)))
    return simple, qmap


def _find(parent, x):
    """Union-find root of x; ``parent`` maps non-roots to their parents."""
    root = x
    while parent.get(root, root) != root:
        root = parent[root]
    while parent.get(x, x) != x:
        parent[x], x = root, parent[x]
    return root


def _union(parent, a, b):
    """Join the classes of a and b under the smaller of their roots."""
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[max(ra, rb)] = min(ra, rb)


# -- subspaces, degrees and the structural predicates ------------------------


class SubspaceTable:
    """Equivalence classes of small circuits under equal closure.

    Each subspace records the points covered by its circuits and the common
    rank; degrees count how many subspaces pass through each point.
    """

    __slots__ = ("subspaces", "degrees")

    def __init__(self, subspaces, degrees):
        self.subspaces = subspaces
        self.degrees = degrees

    def degree(self, p):
        return self.degrees.get(p, 0)

    def __repr__(self):
        return "SubspaceTable(%d subspaces)" % len(self.subspaces)


def _subspace_data(m, within_mask=None):
    """(point-set mask, rank) per subspace of the restriction to within_mask."""
    if within_mask is None:
        within_mask = full_mask(m.d)
    r = m._rank_mask(within_mask)
    by_closure = {}
    for c in m.circuit_masks:
        if c & ~within_mask == 0 and c.bit_count() <= r:
            key = m._closure_mask(c) & within_mask
            by_closure[key] = by_closure.get(key, 0) | c
    out = [(pts, m._rank_mask(cl)) for cl, pts in by_closure.items()]
    out.sort(key=lambda sr: (sr[1], canon_key(sr[0])))
    return out


def subspace_table(m):
    data = _subspace_data(m)
    degrees = {}
    for pts, _ in data:
        for p in points_of(pts):
            degrees[p] = degrees.get(p, 0) + 1
    subspaces = tuple((points_of(pts), r) for pts, r in data)
    return SubspaceTable(subspaces, degrees)


def _degree_mask(m, within_mask):
    """Mask of points of degree > 1 in the restriction to within_mask."""
    counts = {}
    for pts, _ in _subspace_data(m, within_mask):
        for b in _bits(pts):
            counts[b] = counts.get(b, 0) + 1
    out = 0
    for b, c in counts.items():
        if c > 1:
            out |= b
    return out


def is_paving(m):
    """Every circuit has size n or n+1."""
    return all(c.bit_count() in (m.n, m.n + 1) for c in m.circuit_masks)


def dependent_hyperplanes(m):
    """Rank n-1 flats of size at least n, as point tuples.

    For a paving matroid these are exactly its subspaces (for rank 3: its
    lines).
    """
    if m.n == 0:
        return ()
    out = [h for h in m.flats_of_rank(m.n - 1) if h.bit_count() >= m.n]
    return tuple(points_of(h) for h in out)


def is_nilpotent(m):
    """Iterated restriction to the points of degree > 1 reaches the empty set."""
    cur = full_mask(m.d)
    while cur:
        nxt = _degree_mask(m, cur)
        if nxt == cur:
            return False
        cur = nxt
    return True


def is_inductively_connected(m):
    """Search for a build order: a basis first, then points of degree <= 2.

    Returns (flag, witness) where witness is a permutation of [d] when the
    flag is true.  The search is depth-first over extension orders with a
    failed-state memo.
    """
    d, n = m.d, m.n
    fm = full_mask(d)
    all_bases = [mask for mask in masks_of_size(d, n) if not m._is_dependent_mask(mask)]
    deg_cache = {}

    def extendable(state, p):
        key = state | bit(p)
        degm = deg_cache.get(key)
        if degm is None:
            degm = _degree_mask(m, key)
            deg_cache[key] = degm
        if bit(p) & degm:
            # degree > 1; recompute actual degree
            count = 0
            for pts, _ in _subspace_data(m, key):
                if pts & bit(p):
                    count += 1
                    if count > 2:
                        return False
        return True

    failed = set()

    def dfs(state, order):
        if state == fm:
            return order
        if state in failed:
            return None
        for p in points_of(fm & ~state):
            if extendable(state, p):
                res = dfs(state | bit(p), order + (p,))
                if res is not None:
                    return res
        failed.add(state)
        return None

    if d == 0:
        return True, ()
    for basis in all_bases:
        res = dfs(basis, points_of(basis))
        if res is not None:
            return True, res
    return False, None


class _GroundSetTooLarge(MatdegError, ValueError):
    """The input's ground set exceeds a size limit of the algorithm."""


def dependent_bitmap(m):
    """Bitmap over all 2^d subsets: bit s set iff subset-mask s is dependent.

    Only sensible for small ground sets (d <= 20).
    """
    if m.d > 20:
        raise _GroundSetTooLarge("dependent bitmap is limited to d <= 20")
    size = 1 << m.d
    dep = bytearray(size)
    for c in m.circuit_masks:
        dep[c] = 1
    for s in range(size):
        if dep[s]:
            continue
        t = s
        while t:
            low = t & -t
            t ^= low
            if dep[s ^ low]:
                dep[s] = 1
                break
    return dep
