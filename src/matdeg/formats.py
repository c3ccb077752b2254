"""Interchange formats.

Matroid text format: a header line "d n", then one circuit per line as
space-separated points; '#' starts a comment.  Matroid JSON:
{"d": 7, "n": 3, "circuits": [[1, 2, 4], ...]}.  Hypergraph JSON:
{"d": 7, "n": 3, "edges": [{"set": [1, 2, 4], "type": 2}, ...]}.
All emitters are deterministic (canonical orders, sorted keys).  The JSON
parsers take a JSON object and plain integers (not booleans or floats) for
d, n, points and edge types, and raise ValueError on anything else.
"""

import json

from .core import matroid_from_circuits
from .errors import excerpt
from .hypergraph import induce


def dumps_matroid(m):
    lines = ["%d %d" % (m.d, m.n)]
    for c in m.circuits:
        lines.append(" ".join(str(p) for p in c))
    return "\n".join(lines) + "\n"


def loads_matroid(text, validate=False):
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append([int(tok) for tok in line.split()])
    if not rows:
        raise ValueError("empty matroid text")
    if len(rows[0]) != 2:
        raise ValueError("header must be 'd n'")
    d, n = rows[0]
    return matroid_from_circuits(d, n, [tuple(r) for r in rows[1:]], validate=validate)


def dumps_matroids(matroids):
    blocks = []
    for i, m in enumerate(matroids, start=1):
        blocks.append("# %d of %d\n%s" % (i, len(matroids), dumps_matroid(m)))
    return "\n".join(blocks)


def _object(value, what):
    if type(value) is not dict:
        raise ValueError("%s must be a JSON object" % what)
    return value


def _int(value, what):
    if type(value) is not int:
        raise ValueError("%s must be an integer, got %s" % (what, excerpt(value)))
    return value


def _int_lists(value, what):
    """``value`` if it is a list of lists of integers (one type test per
    element; the matroid parser is on the hot path of many small calls)."""
    if (
        type(value) is not list
        or {type(x) for x in value} - {list}
        or {type(p) for x in value for p in x} - {int}
    ):
        raise ValueError("%s must be a list of lists of integers" % what)
    return value


def matroid_to_obj(m):
    return {"d": m.d, "n": m.n, "circuits": [list(c) for c in m.circuits]}


def matroid_from_obj(obj, validate=False):
    n = _object(obj, "a matroid").get("n")
    return matroid_from_circuits(
        _int(obj["d"], "d"),
        None if n is None else _int(n, "n"),
        _int_lists(obj["circuits"], "circuits"),
        validate=validate,
    )


def hypergraph_to_obj(hg):
    return {
        "d": hg.d,
        "n": hg.n,
        "edges": [{"set": list(pts), "type": b} for pts, b in hg.edge_points()],
    }


def hypergraph_from_obj(obj):
    edges = _object(obj, "a hypergraph")["edges"]
    if type(edges) is not list:
        raise ValueError("edges must be a list")
    edges = [_object(e, "an edge") for e in edges]
    sets = _int_lists([e["set"] for e in edges], "edge sets")
    types = [_int(e["type"], "an edge type") for e in edges]
    return induce(zip(sets, types), _int(obj["d"], "d"), _int(obj["n"], "n"))


def quotient_to_obj(qmap):
    return {
        "removed_loops": sorted(qmap.removed_loops),
        "classes": [list(c) for c in qmap.classes],
    }


def component_to_obj(comp):
    return {
        "id": comp.id,
        "matroid": matroid_to_obj(comp.matroid),
        "status": comp.status,
        "realizable": comp.realizable,
        "exact": comp.exact,
        "provenance": list(comp.provenance),
        "possibly_redundant_in": list(comp.possible_redundancy),
    }


def report_to_obj(report, include_stats=False, classes=None):
    obj = {
        "source": matroid_to_obj(report.source),
        "count": len(report.maximal),
        "complete": report.complete,
        "maximal": [matroid_to_obj(m) for m in report.maximal],
    }
    if classes is not None:
        obj["classes"] = [
            {
                "size": len(members),
                "representative": matroid_to_obj(rep),
                "members": [matroid_to_obj(x) for x in members],
            }
            for rep, members in classes
        ]
    if include_stats:
        obj["stats"] = report.stats.as_dict()
    return obj


def json_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
