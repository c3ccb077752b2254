"""Regenerate reference.json: the census and decomposition outputs on the
catalog labeling, which the benchmark relabels and compares against, and
the fixed item samples of the queries workload (with the min_above count
of each min_above item, which answers are checked against).

Run from the repository root:  python3 perfbench/make_reference.py
Only rerun it when an output is meant to change; the published counts in
workloads.py are checked independently of this file.
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import matdeg as md  # noqa: E402

from workloads import CENSUS, DECOMPOSE, REFERENCE, obj_from_masks  # noqa: E402


def entry(m):
    return [m.d, m.n, list(m.circuit_masks)]


# queries samples, drawn by random.Random(0) from all_matroids(d <= 7, rank <= 3)
QUERY_SAMPLES = (("min_above", 128), ("compare", 320))


def main():
    out = {"census": {}, "decompose": {}, "queries": {}}
    for name, count in CENSUS:
        m = md.catalog(name)
        report = md.min_above(m)
        assert len(report.maximal) == count, name
        classes = md.group_by_symmetry(report.maximal, m)
        out["census"][name] = {
            "orbits": sorted(len(members) for _, members in classes),
            "maximal": [entry(x) for x in report.maximal],
        }
    for name, hints, count in DECOMPOSE:
        h = md.paper_hints() if hints == "paper" else None
        result = md.decompose(md.catalog(name), hints=h)
        assert len(result.components) == count, name
        out["decompose"][name] = [entry(c.matroid) for c in result.components]
    enumerated = [m for d in range(1, 8) for m in md.all_matroids(d, 3)]
    sampler = random.Random(0)
    for op, size in QUERY_SAMPLES:
        out["queries"][op] = [entry(m) for m in sampler.sample(enumerated, size)]
    for item in out["queries"]["min_above"]:
        report = md.min_above(md.formats.matroid_from_obj(obj_from_masks(*item)))
        assert report.complete
        item.append(len(report.maximal))
    REFERENCE.write_text(json.dumps(out, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
