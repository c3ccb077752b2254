"""Matroids on {1,...,d} stored by their circuit families.

A matroid is immutable once built: the ground-set size ``d``, the rank ``n``
and the canonical circuit list determine everything else.  Rank queries go
through a greedy independence oracle (correct by the exchange axiom) with a
per-instance cache; the cyclic flats and the canonical form are computed
lazily and cached as well, so values can be shared freely between threads
once constructed.
"""

from itertools import combinations
from math import comb

from .bitsets import (
    MAX_GROUND,
    bit,
    canon_key,
    full_mask,
    mask_of,
    mask_within,
    masks_of_size,
    points_of,
)
from .errors import AxiomViolation, MatdegError, RankMismatch, excerpt

# Largest number of subsets of size <= rank that ``cyclic_flats_masks`` may
# close.  Every catalog entry fits (PG(2,4) needs 1,562, AG(2,4) 697); a
# 30-point matroid of rank 29 would need over 10^9.
_CYCLIC_FLAT_SUBSETS_MAX = 2048

# Largest circuit list ``uniform_matroid`` builds: 2^20.  The U(2, q) of the
# low-rank search leaves need at most C(64, 3) = 41,664; U(10, 64) would
# need over 7 * 10^11.
_UNIFORM_CIRCUITS_MAX = 1 << 20


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
        "_cyclic_flats",
        "_canon_cache",
        "_sort_key",
        "_key",
        "_hash",
    )

    def __init__(self, d, n, circuit_masks):
        # circuit_masks must already be a canonical minimal family (sorted
        # by size first); use matroid_from_circuits for raw input.  n None
        # takes the rank of the ground set from the circuits.
        self.d = d
        self.circuit_masks = circuit_masks
        self._by_point = _circuits_by_point(d, circuit_masks)
        self._rank_cache = {}
        self.n = self._rank_mask(full_mask(d)) if n is None else n
        self._cyclic_flats = None
        self._canon_cache = None
        self._sort_key = None
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
        """(d, n, the ``canon_key`` of each circuit), computed once per
        instance: the int keys are small, and rank-4 searches sort their
        candidates repeatedly."""
        if self._sort_key is None:
            self._sort_key = (self.d, self.n, tuple(canon_key(c) for c in self.circuit_masks))
        return self._sort_key

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
        r = self._rank_mask(mask)
        out = mask
        rest = full_mask(self.d) & ~mask
        while rest:
            low = rest & -rest
            rest ^= low
            if self._rank_mask(mask | low) == r:
                out |= low
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
        never reported.  Every subset of size <= n is closed, so a matroid
        with more than ``_CYCLIC_FLAT_SUBSETS_MAX`` of them is refused.
        """
        if self._cyclic_flats is None:
            subsets = sum(comb(self.d, k) for k in range(self.n + 1))
            if subsets > _CYCLIC_FLAT_SUBSETS_MAX:
                raise _GroundSetTooLarge(
                    "cyclic flats of a rank-%d matroid on %d points would close "
                    "%d subsets; the limit is %d"
                    % (self.n, self.d, subsets, _CYCLIC_FLAT_SUBSETS_MAX)
                )
            # rank by rank, each rank's flats canonically sorted
            self._cyclic_flats = tuple(
                (f, r)
                for r in range(self.n + 1)
                for f in self.flats_of_rank(r)
                if f and all(self._rank_mask(f & ~b) == r for b in _bits(f))
            )
        return self._cyclic_flats

    def flats_of_rank(self, r):
        """All flats of the given rank, as masks, canonically sorted: the
        closures of the independent r-subsets.  Every r-subset is tested,
        so more than ``_CYCLIC_FLAT_SUBSETS_MAX`` of them are refused."""
        subsets = comb(self.d, r)
        if subsets > _CYCLIC_FLAT_SUBSETS_MAX:
            raise _GroundSetTooLarge(
                "flats of rank %d on %d points would close %d subsets; the "
                "limit is %d" % (r, self.d, subsets, _CYCLIC_FLAT_SUBSETS_MAX)
            )
        seen = set()
        for m in masks_of_size(self.d, r):
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
    masks = []
    for c in circuits:
        m = _mask_in(c, d, "circuit")
        if m == 0:
            raise ValueError("the empty set cannot be a circuit")
        masks.append(m)
    m = Matroid(d, None, _normalize_circuit_masks(masks))
    if n is not None and n != m.n:
        raise RankMismatch("declared rank %d but circuits give rank %d" % (n, m.n))
    if validate:
        check_circuit_axioms(m)
    return m


def _mask_in(subset, d, what="subset"):
    """The mask of ``subset``, a mask or an iterable of points; ValueError
    when it is not a subset of [d].  Points are range-checked before they
    are shifted, so one huge point costs no huge int."""
    mask = subset if isinstance(subset, int) else mask_within(subset, d)
    if mask is None or mask >> d:
        shown = subset if mask is None or mask < 0 else points_of(mask)
        raise ValueError("%s %s is not a subset of [%d]" % (what, excerpt(shown), d))
    return mask


def _circuits_by_point(d, circuit_masks):
    """Entry p holds the circuits through point p, in their given order."""
    buckets = [[] for _ in range(d + 1)]
    for c in circuit_masks:
        rest = c
        while rest:
            low = rest & -rest
            buckets[low.bit_length()].append(c)
            rest ^= low
    return tuple(map(tuple, buckets))


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
    return m._rank_mask(_mask_in(subset, m.d))


def closure(m, subset):
    """All points whose addition does not raise the rank of the subset."""
    return frozenset(points_of(m._closure_mask(_mask_in(subset, m.d))))


def cyclic_flats(m):
    """Flats that are unions of circuits, as (point tuple, rank) pairs."""
    return tuple((points_of(f), r) for f, r in m.cyclic_flats_masks())


def independent_masks(m, size):
    """The independent subsets of one size, as masks in lexicographic order."""
    return [mask for mask in masks_of_size(m.d, size) if not m._is_dependent_mask(mask)]


# -- constructions ----------------------------------------------------------


def uniform_matroid(n, d):
    if d > MAX_GROUND:
        raise _GroundSetTooLarge("ground-set size %d exceeds %d" % (d, MAX_GROUND))
    if n < 0:
        raise ValueError("the rank must be nonnegative")
    if n > d:
        raise ValueError("rank cannot exceed the ground-set size")
    count = comb(d, n + 1)
    if count > _UNIFORM_CIRCUITS_MAX:
        raise _GroundSetTooLarge(
            "U(%d, %d) has %d circuits; the limit is %d"
            % (n, d, count, _UNIFORM_CIRCUITS_MAX)
        )
    return Matroid(d, n, tuple(masks_of_size(d, n + 1)))


def restriction(m, subset):
    """Restrict to a subset, relabeled to 1..|S|.

    Returns (matroid, old_to_new) where old_to_new maps surviving points to
    their new labels.
    """
    mask = _mask_in(subset, m.d)
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
    return restriction(m, full_mask(m.d) & ~_mask_in(subset, m.d))


def dual(m):
    """Dual matroid; its circuits are the complements of the hyperplanes."""
    fm = full_mask(m.d)
    if m.n == 0:
        return Matroid(m.d, m.d, ())
    circuits = [fm & ~h for h in m.flats_of_rank(m.n - 1)]
    out = Matroid(m.d, None, _normalize_circuit_masks(circuits))
    assert out.n == m.d - m.n
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
    return Matroid(m.d, None, _normalize_circuit_masks(circuits))


def relabel(m, perm):
    """Apply a permutation of [d]; perm[p - 1] is the new label of point p."""
    if len(perm) != m.d or set(perm) != set(range(1, m.d + 1)):
        raise ValueError("relabeling needs a permutation of 1..%d" % m.d)
    circuits = [mask_of(perm[p - 1] for p in points_of(c)) for c in m.circuit_masks]
    return Matroid(m.d, m.n, tuple(sorted(circuits, key=canon_key)))


# -- quotients (loops removed, parallel points identified) -------------------


class QuotientMap:
    """Records removed loops and identified double points.

    ``target[p-1]`` is the new label of source point p, or 0 when p was
    removed as a loop.  The map is enough to lift matroids on the quotient
    ground set back: removed points come back as loops and every nontrivial
    fiber becomes a parallel class.  ``collapsing`` is the one constructor
    from loops and parallel pairs; ``simplify``, ``hypergraph.reduce``, the
    rank <= 2 search leaves and the enumeration all go through it.
    """

    __slots__ = ("d_source", "target", "_hash")

    def __init__(self, d_source, target):
        self.d_source = d_source
        self.target = tuple(target)
        self._hash = hash((d_source, self.target))

    @classmethod
    def identity(cls, d):
        return cls(d, tuple(range(1, d + 1)))

    @classmethod
    def collapsing(cls, d, loops, joined):
        """Remove the points of the mask ``loops``, join the other points of
        each mask in ``joined`` into one class (union-find) and number the
        classes in the order of their least points."""
        parent = list(range(d + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        for mask in joined:
            pts = points_of(mask & ~loops)
            for p in pts[1:]:
                parent[find(p)] = find(pts[0])
        label = {}
        target = []
        for p in range(1, d + 1):
            if bit(p) & loops:
                target.append(0)
            else:
                target.append(label.setdefault(find(p), len(label) + 1))
        return cls(d, target)

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
        of the fibers of its points.  The identity map returns ``m`` itself.
        """
        if m.d != self.q:
            raise ValueError("matroid lives on the wrong ground set")
        if self.is_identity():
            return m
        fibers = {self.target[pts[0] - 1]: tuple(map(bit, pts)) for pts in self.classes}
        circuits = [bit(p) for p in sorted(self.removed_loops)]
        for bits in fibers.values():
            for a, b in combinations(bits, 2):
                circuits.append(a | b)
        for c in m.circuit_masks:
            transversals = [0]
            for t in points_of(c):
                transversals = [x | b for x in transversals for b in fibers[t]]
            circuits += transversals
        canon = tuple(sorted(set(circuits), key=canon_key))
        return Matroid(self.d_source, m.n, canon)


def simplify(m):
    """Remove loops and collapse parallel classes to their minima.

    Returns (simple matroid on 1..q, QuotientMap): the map joins the
    2-circuits, and the circuits over the class minima pass through it.
    Lifting through the map restores the original matroid exactly.  A
    matroid that is already simple comes back itself, with the identity
    map, so the caches it has computed carry over.
    """
    if m.is_simple():
        return m, QuotientMap.identity(m.d)
    pairs = [c for c in m.circuit_masks if c.bit_count() == 2]
    qmap = QuotientMap.collapsing(m.d, m.loops_mask, pairs)
    minima = mask_of(pts[0] for pts in qmap.classes)
    circuits = {
        qmap.apply_mask(c)
        for c in m.circuit_masks
        if c & ~minima == 0 and c.bit_count() > 2
    }
    return Matroid(qmap.q, m.n, tuple(sorted(circuits, key=canon_key))), qmap


# -- subspaces, degrees and the structural predicates ------------------------


def _subspace_data(m, within_mask=None):
    """The subspaces of the restriction to within_mask, the one form they
    take: (point-set mask, rank) pairs, sorted by rank, then canonically.
    Circuits of size <= the rank are grouped by equal closure; a pair holds
    the union of one group and the rank of its closure."""
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


def _degrees(data):
    """Per point bit, the number of subspaces of ``data`` (a
    ``_subspace_data`` result) through that point."""
    counts = {}
    for pts, _ in data:
        for b in _bits(pts):
            counts[b] = counts.get(b, 0) + 1
    return counts


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
    return _nilpotent_within(m, full_mask(m.d))


def _nilpotent_within(m, mask):
    """``is_nilpotent`` of the restriction of m to mask, computed on m
    itself: the subspaces within a mask keep their ranks in m."""
    cur = mask
    while cur:
        # the points of degree > 1 (distinct bits, so the sum is their union)
        nxt = sum(b for b, c in _degrees(_subspace_data(m, cur)).items() if c > 1)
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
    deg_cache = {}

    def extendable(state, p):
        key = state | bit(p)
        degrees = deg_cache.get(key)
        if degrees is None:
            degrees = deg_cache[key] = _degrees(_subspace_data(m, key))
        return degrees.get(bit(p), 0) <= 2

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
    for basis in independent_masks(m, n):
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
