"""Named matroids and incidence-geometry generators.

Fixtures are built from their point-line / hyperplane descriptions and
validated once (results are cached).  Finite projective and affine planes
are generated from field incidence for q in {2, 3, 4, 5, 7}; their blocks
double as Steiner-system inputs.
"""

import re
from itertools import combinations

from .bitsets import MAX_GROUND
from .core import (
    QuotientMap,
    _GroundSetTooLarge,
    check_circuit_axioms,
    restriction,
    uniform_matroid,
)
from .errors import MatdegError, excerpt
from .hypergraph import (
    _matroid_from_hypergraph_unchecked,
    induce,
    matroid_from_hypergraph,
)

FANO_LINES = (
    (1, 2, 4),
    (1, 3, 7),
    (1, 5, 6),
    (2, 3, 5),
    (4, 5, 7),
    (2, 6, 7),
    (3, 4, 6),
)

THREE_LINES = ((1, 2, 7), (3, 4, 7), (5, 6, 7))

QS_LINES = ((1, 2, 3), (1, 5, 6), (3, 4, 5), (2, 4, 6))

VAMOS_PLANES = (
    (1, 2, 3, 4),
    (3, 4, 5, 6),
    (5, 6, 7, 8),
    (1, 2, 7, 8),
    (3, 4, 7, 8),
)

# the realizable extension of the Vamos matroid: the missing plane is added
VAMOS_A_PLANES = VAMOS_PLANES + ((1, 2, 5, 6),)

STEINER348_BLOCKS = (
    (1, 2, 4, 8),
    (2, 3, 5, 8),
    (3, 4, 6, 8),
    (4, 5, 7, 8),
    (1, 5, 6, 8),
    (2, 6, 7, 8),
    (1, 3, 7, 8),
    (3, 5, 6, 7),
    (1, 4, 6, 7),
    (1, 2, 5, 7),
    (1, 2, 3, 6),
    (2, 3, 4, 7),
    (1, 3, 4, 5),
    (2, 4, 5, 6),
)

FANO_DUAL_PLANES = (
    (4, 5, 6, 7),
    (2, 3, 5, 6),
    (2, 3, 4, 7),
    (1, 3, 5, 7),
    (1, 3, 4, 6),
    (1, 2, 4, 5),
    (1, 2, 6, 7),
)

GRID33_LINES = (
    (1, 2, 3),
    (4, 5, 6),
    (7, 8, 9),
    (1, 4, 7),
    (2, 5, 8),
    (3, 6, 9),
)

K33_DUAL_QUADS = (
    (2, 3, 4, 7),
    (1, 3, 5, 8),
    (1, 2, 6, 9),
    (1, 5, 6, 7),
    (2, 4, 6, 8),
    (3, 4, 5, 9),
    (1, 4, 8, 9),
    (2, 5, 7, 9),
    (3, 6, 7, 8),
)

THREE_PAIRS_QUADS = ((1, 2, 3, 4), (3, 4, 5, 6), (1, 2, 5, 6))


def paving_from_hyperplanes(d, n, hyperplanes, validate=True):
    """Rank-n paving matroid with the given dependent hyperplanes (point
    tuples or masks): the maximal rank-n matroid in which each of them has
    rank <= n - 1.

    Circuits are the n-subsets of the hyperplanes plus the minimal
    (n+1)-subsets of the ground set.
    """
    return _below_bounds(d, n, [(h, n - 1) for h in hyperplanes], validate)


def _below_bounds(d, n, bounds, validate=True):
    """The maximal rank-n matroid on [d] with rank(e) <= b for each bound
    (e, b), built by the search's leaf builder.  ``validate`` checks the
    circuit axioms of the result; they fail when the bounds are not the
    dependent hyperplanes or the small circuits of some matroid."""
    m = _matroid_from_hypergraph_unchecked(induce(bounds, d, n))
    if validate:
        check_circuit_axioms(m)
    return m


def steiner_matroid(d, blocks, strength, validate=True):
    """Paving matroid of a Steiner system S(strength, k, d).

    Verifies that every strength-subset of [d] lies in exactly one block;
    the blocks become the dependent hyperplanes of a rank strength+1 paving
    matroid.
    """
    if d > MAX_GROUND:
        raise _GroundSetTooLarge("ground-set size %d exceeds %d" % (d, MAX_GROUND))
    blocks = tuple(tuple(sorted(b)) for b in blocks)
    for combo in combinations(range(1, d + 1), strength):
        hits = sum(1 for b in blocks if set(combo) <= set(b))
        if hits != 1:
            raise ValueError(
                "%s lies in %d blocks; a Steiner system needs exactly one"
                % (combo, hits)
            )
    return paving_from_hyperplanes(d, strength + 1, blocks, validate=validate)


# -- finite fields and planes -------------------------------------------------


class _UnsupportedPlane(MatdegError, ValueError):
    """A plane order or kind the generators cannot build."""


def _field(q):
    """The (add, mul) tables of GF(q), q in {2, 3, 4, 5, 7}: the orders of
    the planes that fit in ``MAX_GROUND`` points."""
    if q == 4:
        # GF(2)[x]/(x^2+x+1) on bit pairs; addition is xor
        add = [[a ^ b for b in range(4)] for a in range(4)]
        return add, ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
    if q not in (2, 3, 5, 7):
        raise _UnsupportedPlane("only q in {2, 3, 4, 5, 7} is supported")
    return (
        [[(a + b) % q for b in range(q)] for a in range(q)],
        [[a * b % q for b in range(q)] for a in range(q)],
    )


def _check_plane(q, d):
    """Refuse a plane order below 2, or one of more than ``MAX_GROUND``
    points, before any field or block is built, so a huge q costs nothing."""
    if q < 2:
        raise _UnsupportedPlane("a plane needs q >= 2")
    if d > MAX_GROUND:
        raise _GroundSetTooLarge(
            "the plane of order %s has more than %d points" % (excerpt(q), MAX_GROUND)
        )


def projective_plane_blocks(q):
    """Points are labels 1..q^2+q+1, numbering in lexicographic order the
    vectors whose first nonzero coordinate is 1; blocks are the q+1-point
    lines of PG(2, q), each named by the coordinates of a point and holding
    the points orthogonal to it."""
    _check_plane(q, q * q + q + 1)
    add, mul = _field(q)
    pts = [(0, 0, 1)] + [(0, 1, z) for z in range(q)]
    pts += [(1, y, z) for y in range(q) for z in range(q)]
    blocks = [
        tuple(
            i
            for i, (x, y, z) in enumerate(pts, 1)
            if add[add[mul[a][x]][mul[b][y]]][mul[c][z]] == 0
        )
        for a, b, c in pts
    ]
    return len(pts), tuple(sorted(blocks))


def affine_plane_blocks(q):
    """Points are labels 1..q^2, (x, y) having label q*x + y + 1; blocks are
    the q-point lines of AG(2, q)."""
    _check_plane(q, q * q)
    add, mul = _field(q)
    blocks = [tuple(q * x + y + 1 for y in range(q)) for x in range(q)]
    blocks += [
        tuple(q * x + add[mul[slope][x]][icept] + 1 for x in range(q))
        for slope in range(q)
        for icept in range(q)
    ]
    return q * q, tuple(sorted(blocks))


def projective_plane(q):
    d, blocks = projective_plane_blocks(q)
    return steiner_matroid(d, blocks, 2, validate=False)


def affine_plane(q):
    d, blocks = affine_plane_blocks(q)
    return steiner_matroid(d, blocks, 2, validate=False)


# -- the catalog --------------------------------------------------------------

_BUILDERS = {
    "fano": lambda: paving_from_hyperplanes(7, 3, FANO_LINES),
    "threelines": lambda: paving_from_hyperplanes(7, 3, THREE_LINES),
    "qs": lambda: paving_from_hyperplanes(6, 3, QS_LINES),
    "vamos": lambda: paving_from_hyperplanes(8, 4, VAMOS_PLANES),
    "vamosa": lambda: paving_from_hyperplanes(8, 4, VAMOS_A_PLANES),
    "steiner348": lambda: steiner_matroid(8, STEINER348_BLOCKS, 3),
    "fanodual": lambda: paving_from_hyperplanes(7, 4, FANO_DUAL_PLANES),
    "grid33": lambda: paving_from_hyperplanes(9, 3, GRID33_LINES),
    "k33dual": lambda: _below_bounds(
        9, 4, [(c, len(c) - 1) for c in GRID33_LINES + K33_DUAL_QUADS]
    ),
    "threepairs": lambda: _below_bounds(6, 4, [(c, 3) for c in THREE_PAIRS_QUADS]),
    "pg2": lambda: projective_plane(2),
    "pg3": lambda: projective_plane(3),
    "pg4": lambda: projective_plane(4),
    "ag2": lambda: affine_plane(2),
    "ag3": lambda: affine_plane(3),
    "ag4": lambda: affine_plane(4),
}

def k33dual_degeneration_reps():
    """One representative per identification family below the K33 dual:

    - ``fused_square``: the four points off a row/column cross collapse to
      one point;
    - ``fused_columns``: two parallel lines are identified pointwise;
    - ``fused_two_pairs``: two incident pairs collapse and the other eight
      points drop to a common hyperplane.

    Full families are the orbits of these under the automorphism group.
    """
    k = catalog("k33dual")
    sub_square, _ = restriction(k, (1, 2, 3, 4, 5, 7))
    fused_square = QuotientMap(9, (1, 2, 3, 4, 5, 5, 6, 5, 5)).lift(sub_square)
    sub_cols, _ = restriction(k, (1, 2, 3, 7, 8, 9))
    fused_columns = QuotientMap(9, (1, 2, 3, 1, 2, 3, 4, 5, 6)).lift(sub_cols)
    core = matroid_from_hypergraph(
        induce(
            [
                ((3, 4, 5), 2),
                ((3, 6, 7), 2),
                ((2, 4, 6), 2),
                ((2, 5, 7), 2),
                ((2, 3, 4, 5, 6, 7), 3),
            ],
            7,
            4,
        )
    )
    fused_two_pairs = QuotientMap(9, (1, 2, 2, 3, 4, 5, 3, 6, 7)).lift(core)
    return {
        "grid": catalog("grid33"),
        "fused_square": fused_square,
        "fused_columns": fused_columns,
        "fused_two_pairs": fused_two_pairs,
    }


_CACHE = {}

_UNIFORM_SHORT = re.compile(r"^u(\d)(\d)$")
_UNIFORM_LONG = re.compile(r"^u(\d+)_(\d+)$")


def catalog_names():
    return sorted(_BUILDERS) + ["u<n><d>", "u<n>_<d>"]


def catalog(name):
    """Look up a named matroid; uniform matroids parse as u27 or u2_7."""
    key = name.lower()
    if key in _CACHE:
        return _CACHE[key]
    builder = _BUILDERS.get(key)
    if builder is not None:
        m = builder()
    else:
        match = _UNIFORM_SHORT.match(key) or _UNIFORM_LONG.match(key)
        if not match:
            raise KeyError("unknown catalog name %s" % excerpt(name))
        n, d = int(match.group(1)), int(match.group(2))
        m = uniform_matroid(n, d)
    _CACHE[key] = m
    return m
