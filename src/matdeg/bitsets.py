"""Bitmask helpers for subsets of {1, ..., d}.

Point p corresponds to bit p-1.  All subset families in the package are kept
in the canonical order (popcount, then point tuple), which coincides with
"by size, then lexicographic".  ``canon_key`` gives that order as one int:
of two sets of equal size, the lexicographically smaller one holds the
lowest point of their symmetric difference, so the key is the popcount
above the complement of the bit-reversed 64-bit mask.
"""

from itertools import combinations

MAX_GROUND = 64

# _REVERSED[b] is the byte b with its bit order reversed
_REVERSED = bytes(int(format(b, "08b")[::-1], 2) for b in range(256))
_LOW64 = (1 << 64) - 1


def bit(p):
    return 1 << (p - 1)


def mask_of(points):
    m = 0
    for p in points:
        m |= 1 << (p - 1)
    return m


def mask_within(points, d):
    """The mask of ``points``, or None when a point lies outside 1..d.

    Each point is checked before it is shifted, so one huge point in an
    input costs no huge int."""
    m = 0
    for p in points:
        if not 1 <= p <= d:
            return None
        m |= 1 << (p - 1)
    return m


def points_of(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def full_mask(d):
    return (1 << d) - 1


def canon_key(mask):
    """Int sort key giving the (size, lexicographic) order on subsets of
    [MAX_GROUND]."""
    rev = int.from_bytes(mask.to_bytes(8, "big").translate(_REVERSED), "little")
    return (mask.bit_count() << 64) | (rev ^ _LOW64)


def submasks_of_size(mask, k):
    """All k-element submasks of mask, in lexicographic point order."""
    for combo in combinations(points_of(mask), k):
        m = 0
        for p in combo:
            m |= 1 << (p - 1)
        yield m


def masks_of_size(d, k):
    """All k-element subsets of [d] as masks, in lexicographic order."""
    return submasks_of_size(full_mask(d), k)
