"""Catalog fixtures and incidence generators."""

import hashlib
import os
import subprocess
import sys

import pytest

import matdeg as md
from matdeg import catalog, uniform_matroid
from matdeg.catalog import (
    FANO_LINES,
    STEINER348_BLOCKS,
    affine_plane_blocks,
    projective_plane_blocks,
    steiner_matroid,
)
from matdeg.core import _GroundSetTooLarge, check_circuit_axioms
from matdeg.experiments import plane_blocks


@pytest.mark.parametrize(
    "name",
    ["fano", "qs", "threelines", "vamos", "vamosa", "steiner348", "fanodual",
     "grid33", "k33dual", "threepairs", "pg2", "pg3", "ag2", "ag3"],
)
def test_catalog_validates(name):
    m = catalog(name)
    assert check_circuit_axioms(m)


def test_uniform_names():
    assert catalog("u27") == uniform_matroid(2, 7)
    assert catalog("u3_13") == uniform_matroid(3, 13)
    with pytest.raises(KeyError):
        catalog("nosuchthing")


def test_fano_shape(fano):
    assert fano.d == 7 and fano.n == 3
    assert md.dependent_hyperplanes(fano) == tuple(sorted(FANO_LINES))


def test_plane_block_counts():
    for q, pts, lines in ((2, 7, 7), (3, 13, 13), (4, 21, 21)):
        d, blocks = projective_plane_blocks(q)
        assert (d, len(blocks)) == (pts, lines)
        assert all(len(b) == q + 1 for b in blocks)
    for q, pts, lines in ((2, 4, 6), (3, 9, 12), (4, 16, 20)):
        d, blocks = affine_plane_blocks(q)
        assert (d, len(blocks)) == (pts, lines)
        assert all(len(b) == q for b in blocks)


def test_plane_blocks_pinned():
    # the planes-par workload and the catalog planes read these blocks, so
    # their labels and order are pinned byte for byte
    h = hashlib.sha256()
    for q in (2, 3, 4, 5, 7):
        h.update(repr(projective_plane_blocks(q)).encode())
        h.update(repr(affine_plane_blocks(q)).encode())
    assert h.hexdigest() == "bf202cda36c2bb72d27855f67f0a0d796bd2a131b4af0b632e096426236e1008"


def test_import_builds_nothing():
    # every table is built on first use, so importing the package costs
    # only the import; a fresh process is needed, as the tests fill them
    code = """
import sys
import matdeg
from matdeg import decomposition, enumeration
assert not sys.modules["matdeg.catalog"]._CACHE
for cached in (
    decomposition._default_realizable,
    enumeration._line_families,
    enumeration._simple,
):
    assert cached.cache_info().currsize == 0, cached
"""
    src = os.path.dirname(os.path.dirname(md.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_plane_generators_refuse_before_building():
    # the size check comes before the field and before the loops cubic in q
    with pytest.raises(_GroundSetTooLarge):
        projective_plane_blocks(10**12 + 39)
    with pytest.raises(_GroundSetTooLarge):
        affine_plane_blocks(10**6)
    # the refusals are input errors of the library, and still ValueErrors
    for build in (
        lambda: md.projective_plane(1),
        lambda: affine_plane_blocks(6),
        # 64 points pass the size check; the field has no order 8
        lambda: affine_plane_blocks(8),
        lambda: plane_blocks(2, "hyperbolic"),
    ):
        with pytest.raises(md.MatdegError) as info:
            build()
        assert isinstance(info.value, ValueError)


def test_steiner_property_enforced():
    # every pair of points on exactly one line, by generator construction
    for q in (2, 3, 4):
        d, blocks = projective_plane_blocks(q)
        steiner_matroid(d, blocks, 2, validate=False)
    with pytest.raises(ValueError):
        steiner_matroid(6, [(1, 2, 3), (4, 5, 6)], 2)


def test_pg2_is_fano(fano):
    assert md.are_isomorphic(catalog("pg2"), fano)


def test_ag2_is_uniform():
    assert catalog("ag2") == uniform_matroid(3, 4)


def test_steiner348_derived_designs_are_fano(steiner348):
    # the blocks through any point, with the point removed, form a Fano
    for i in (1, 8):
        lines = [tuple(p for p in b if p != i) for b in STEINER348_BLOCKS if i in b]
        relabel = {p: k + 1 for k, p in enumerate(sorted({p for l in lines for p in l}))}
        m = steiner_matroid(7, [tuple(sorted(relabel[p] for p in l)) for l in lines], 2)
        assert md.are_isomorphic(m, md.catalog("fano"))


def test_k33dual_reps_are_degenerations(k33dual):
    from matdeg.catalog import k33dual_degeneration_reps

    reps = k33dual_degeneration_reps()
    for name, m in reps.items():
        assert md.compare(m, k33dual), name
        assert m != k33dual


def test_vamos_not_paving_extension(vamos):
    # the realizable extension adds the missing plane
    a = catalog("vamosa")
    assert md.compare(a, vamos)
    assert len(md.dependent_hyperplanes(a)) == 6
