"""Exact counts of the traced census are a determinism check.

    python3 -m pytest perfbench/test_counts.py -q

search.nodes, search.emitted and weak_order.compare_calls must repeat
exactly for the same seed, also across processes with different string
hash seeds, so that a later change may rest a count claim on them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import matdeg as md  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, summarize  # noqa: E402


def traced_counts(inputs):
    """(search.nodes, search.emitted, weak_order.compare_calls) of one
    traced census pass."""
    tracer = Tracer()
    tracer.install()
    try:
        _, records = workloads.Census().run_pass(inputs, tracer=tracer)
    finally:
        tracer.uninstall()
    assert not any(isinstance(out, Exception) for _, _, out, _ in records)
    s = summarize(tracer.spans)
    return [s["search.nodes"], s["search.emitted"], s["weak_order.compare_calls"]]


def test_steiner348_counts_on_catalog_labeling():
    m = md.catalog("steiner348")
    inputs = {"jobs": [{"label": "steiner348", "obj": md.formats.matroid_to_obj(m)}]}
    assert traced_counts(inputs) == [14098, 5828, 103524]


def test_counts_repeat_for_same_seed():
    code = (
        "import json, test_counts, workloads;"
        "print(json.dumps(test_counts.traced_counts(workloads.Census().make_inputs(3))))"
    )
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=HERE, env=env, capture_output=True,
            text=True, timeout=300, check=True,
        )
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert runs[0] == runs[1]
    assert min(runs[0]) > 0
