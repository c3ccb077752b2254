"""Interchange formats and the command-line front end."""

import io
import json
import os
import subprocess
import sys

import pytest

import matdeg as md
from matdeg import formats
from matdeg.cli import main
from matdeg.core import dependent_bitmap


def run_cli(*argv):
    old = sys.stdout
    sys.stdout = io.StringIO()
    try:
        code = main(list(argv))
        out = sys.stdout.getvalue()
    finally:
        sys.stdout = old
    return code, out


def test_matroid_text_roundtrip(fano, qs):
    for m in (fano, qs, md.uniform_matroid(2, 5)):
        assert formats.loads_matroid(formats.dumps_matroid(m)) == m


def test_matroid_text_comments():
    text = "# a triangle\n3 2\n1 2 3  # the only circuit\n"
    m = formats.loads_matroid(text)
    assert m.circuits == ((1, 2, 3),)


def test_matroid_json_roundtrip(vamos):
    obj = formats.matroid_to_obj(vamos)
    assert formats.matroid_from_obj(json.loads(json.dumps(obj))) == vamos


def test_matroid_list_roundtrip(fano):
    report = md.min_above_general(fano)
    text = formats.dumps_matroids(report.maximal)
    assert formats.loads_matroids(text) == list(report.maximal)


def test_hypergraph_json_roundtrip(fano):
    hg = md.delta_of_matroid(fano)
    obj = formats.hypergraph_to_obj(hg)
    assert formats.hypergraph_from_obj(json.loads(json.dumps(obj))) == hg


def test_cli_compare():
    code, out = run_cli("compare", "catalog:u27", "catalog:fano")
    assert code == 0 and out == "true\n"
    code, out = run_cli("compare", "catalog:fano", "catalog:u27", "--json")
    assert code == 0 and json.loads(out) == {"leq": False}


def test_cli_catalog():
    code, out = run_cli("catalog", "list")
    assert code == 0 and "fano" in out.split()
    code, out = run_cli("catalog", "show", "fano")
    assert code == 0
    assert formats.loads_matroid(out) == md.catalog("fano")
    code, _ = run_cli("catalog", "show", "bogus")
    assert code == 2


def test_cli_min_above_json():
    code, out = run_cli("min-above", "catalog:fano", "--json", "--group-by-symmetry")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 22
    assert sorted(c["size"] for c in obj["classes"]) == [1, 7, 7, 7]
    assert all(
        formats.matroid_from_obj(x).d == 7 for x in obj["maximal"]
    )


def test_cli_min_above_text_roundtrip():
    code, out = run_cli("min-above", "catalog:threepairs", "--rank4")
    assert code == 0
    body = "\n".join(l for l in out.splitlines() if not l.startswith("count"))
    assert len(formats.loads_matroids(body)) == 10


def test_cli_budget_exit_code():
    code, out = run_cli("min-above", "catalog:fano", "--limit-nodes", "1", "--json")
    assert code == 3
    assert json.loads(out)["complete"] is False


def test_cli_zero_node_budget_is_a_budget():
    code, out = run_cli("min-above", "catalog:fano", "--limit-nodes", "0", "--json")
    assert code == 3
    assert json.loads(out)["complete"] is False
    code, _ = run_cli(
        "steiner-experiment", "--q", "2", "--kind", "projective", "--limit-nodes", "0"
    )
    assert code == 3
    code, _ = run_cli("min-above", "catalog:fano", "--limit-nodes", "-1")
    assert code == 2
    code, _ = run_cli(
        "steiner-experiment", "--q", "2", "--kind", "projective", "--limit-nodes", "-1"
    )
    assert code == 2


def test_cli_ground_set_limit_is_input_error(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("21 20\n1 2 3\n")  # non-uniform, beyond the d <= 20 bitmap
    big = formats.loads_matroid(path.read_text())
    with pytest.raises(md.MatdegError) as info:
        dependent_bitmap(big)
    assert isinstance(info.value, ValueError)
    for argv in (
        ("isomorphic", str(path), str(path)),
        ("automorphisms", str(path)),
        ("decompose", str(path)),
    ):
        code, _ = run_cli(*argv)
        assert code == 2, argv


def test_cli_isomorphic():
    code, out = run_cli("isomorphic", "catalog:pg2", "catalog:fano")
    assert code == 0 and out == "true\n"


def test_cli_automorphisms():
    code, out = run_cli("automorphisms", "catalog:fano", "--json")
    assert code == 0 and json.loads(out)["order"] == 168


def test_cli_reduce(tmp_path):
    hg = {"d": 4, "n": 3, "edges": [{"set": [1, 2], "type": 1}, {"set": [1, 3, 4], "type": 2}]}
    path = tmp_path / "hg.json"
    path.write_text(json.dumps(hg))
    code, out = run_cli("reduce", str(path), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["quotient"]["classes"] == [[1, 2], [3], [4]]
    assert obj["hypergraph"]["d"] == 3


def test_cli_decompose_json():
    code, out = run_cli("decompose", "catalog:qs", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 2 and obj["complete"]
    statuses = {c["status"] for c in obj["components"]}
    assert statuses == {"irreducible-proven"}


def test_cli_matroid_from_file(tmp_path, fano):
    path = tmp_path / "m.txt"
    path.write_text(formats.dumps_matroid(fano))
    code, out = run_cli("compare", str(path), "catalog:fano")
    assert code == 0 and out == "true\n"
    jpath = tmp_path / "m.json"
    jpath.write_text(json.dumps(formats.matroid_to_obj(fano)))
    code, out = run_cli("isomorphic", str(jpath), "catalog:fano")
    assert code == 0 and out == "true\n"


@pytest.mark.parametrize("circuits", [[[1, 2], [3, 4], [1, 3]], [[1, 2, 3], [1, 2, 4]]])
def test_cli_rejects_non_matroid(tmp_path, monkeypatch, circuits):
    # both families break circuit elimination; neither may get answers
    text = "4 2\n" + "".join(" ".join(map(str, c)) + "\n" for c in circuits)
    path = tmp_path / "family.txt"
    path.write_text(text)
    code, out = run_cli("min-above", str(path))
    assert code == 2 and out == ""
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out = run_cli("min-above", "-", "--json")
    assert code == 2 and out == ""
    jpath = tmp_path / "family.json"
    jpath.write_text(json.dumps({"d": 4, "n": 2, "circuits": circuits}))
    code, out = run_cli("automorphisms", str(jpath))
    assert code == 2 and out == ""


def test_cli_usage_errors():
    code, _ = run_cli("compare", "catalog:fano", "catalog:qs")
    assert code == 2  # ground sets differ -> input error
    code, _ = run_cli("min-above", "nonexistent-file")
    assert code == 2


@pytest.mark.parametrize(
    "verb",
    [
        ("min-above", "catalog:fano"),
        ("decompose", "catalog:qs"),
        ("steiner-experiment", "--q", "2", "--kind", "projective"),
    ],
)
def test_cli_rejects_nonpositive_thread_counts(verb, monkeypatch):
    monkeypatch.delenv("MATDEG_THREADS", raising=False)
    for count in ("-3", "0"):
        code, out = run_cli(*verb, "--threads", count)
        assert code == 2 and out == ""
    monkeypatch.setenv("MATDEG_THREADS", "abc")
    code, out = run_cli(*verb)
    assert code == 2 and out == ""


def test_cli_thread_flag_overrides_environment(monkeypatch):
    monkeypatch.setenv("MATDEG_THREADS", "abc")
    code, out = run_cli("min-above", "catalog:fano", "--threads", "1")
    assert code == 0 and out.startswith("count 22\n")
    monkeypatch.setenv("MATDEG_THREADS", "")
    code, out = run_cli("min-above", "catalog:fano")
    assert code == 0 and out.startswith("count 22\n")


def test_cli_runs_as_module():
    src = os.path.dirname(os.path.dirname(md.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("MATDEG_THREADS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "matdeg.cli", "min-above", "catalog:fano", "--json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 22


def test_cli_deterministic_output():
    runs = {run_cli("min-above", "catalog:fano", "--json")[1] for _ in range(3)}
    assert len(runs) == 1


def test_cli_steiner_experiment_json():
    code, out = run_cli(
        "steiner-experiment", "--q", "2", "--kind", "projective", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] and obj["expected"] == 22 == obj["computed"]
