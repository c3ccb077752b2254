"""Interchange formats and the command-line front end."""

import hashlib
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
    blocks = formats.dumps_matroids(report.maximal).split("\n\n")
    assert [formats.loads_matroid(b) for b in blocks] == list(report.maximal)


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
    code, out = run_cli("min-above", "catalog:threepairs")
    assert code == 0
    body = "\n".join(l for l in out.splitlines() if not l.startswith("count"))
    assert len([formats.loads_matroid(b) for b in body.split("\n\n")]) == 10


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
    for flag in ("--budget", "--max-depth"):
        code, out = run_cli("decompose", "catalog:qs", flag, "-1")
        assert code == 2 and out == "", flag


def test_cli_bad_catalog_and_plane_arguments_are_input_errors(monkeypatch):
    for argv in (
        ("min-above", "catalog:u5_3"),  # rank above the ground-set size
        ("catalog", "show", "u5_3"),
        ("steiner-experiment", "--q", "6", "--kind", "affine"),  # no field
        ("steiner-experiment", "--q", "1", "--kind", "projective"),
        ("steiner-experiment", "--q", str(10**30 + 57), "--kind", "affine"),
    ):
        code, out = run_cli(*argv)
        assert code == 2 and out == "", argv

    # a ValueError from inside the library stays an internal error
    def broken(*args, **kwargs):
        raise ValueError("invariant broken")

    monkeypatch.setattr("matdeg.cli.min_above", broken)
    monkeypatch.setattr("matdeg.experiments.steiner_experiment", broken)
    assert run_cli("min-above", "catalog:fano")[0] == 4
    assert run_cli("steiner-experiment", "--q", "2", "--kind", "projective")[0] == 4


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
        ("min-above", "catalog:u1_70"),
        ("steiner-experiment", "--q", "11", "--kind", "projective"),
    ):
        code, _ = run_cli(*argv)
        assert code == 2, argv


def test_cli_refuses_cyclic_flats_beyond_limit(tmp_path):
    # one circuit on 30 points: closing every subset of size <= rank would
    # take about 2^30 closures, so min-above refuses the input at once;
    # compare reads circuits only and answers
    (tmp_path / "smaller.txt").write_text("30 28\n1 2\n3 4\n")
    (tmp_path / "larger.txt").write_text("30 29\n1 2\n")
    src = os.path.dirname(os.path.dirname(md.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "matdeg.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
            timeout=20,
        )

    proc = run("compare", "smaller.txt", "larger.txt")
    assert proc.returncode == 0 and proc.stdout == "true\n"
    proc = run("min-above", "larger.txt")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "cyclic flats" in proc.stderr


def test_cli_refuses_huge_uniform_catalog_name():
    code, out = run_cli("compare", "catalog:u10_64", "catalog:u2_64")
    assert code == 2 and out == ""


def test_cli_isomorphic():
    code, out = run_cli("isomorphic", "catalog:pg2", "catalog:fano")
    assert code == 0 and out == "true\n"


def test_cli_automorphisms():
    code, out = run_cli("automorphisms", "catalog:fano", "--json")
    assert code == 0 and json.loads(out)["order"] == 168


def test_cli_automorphisms_refuses_too_many_ties(tmp_path):
    path = tmp_path / "u29_loop.txt"
    path.write_text(formats.dumps_matroid(md.designate_loop(md.uniform_matroid(2, 10), 10)))
    code, _ = run_cli("automorphisms", str(path))
    assert code == 2


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


def test_cli_decompose_json_with_many_loops(tmp_path):
    # nine loops tie in 9! orderings; the output labels no component, so
    # --json answers as the text output does
    path = tmp_path / "loops.json"
    circuits = [[1, 2, 3]] + [[p] for p in range(4, 13)]
    path.write_text(json.dumps({"d": 12, "n": 2, "circuits": circuits}))
    code, out = run_cli("decompose", str(path), "--json")
    assert code == 0
    comps = json.loads(out)["components"]
    assert len(comps) == 1 and comps[0]["possibly_redundant_in"] == []


@pytest.mark.parametrize(
    "hints",
    [
        [1],
        "fano",
        "none",
        {"realizable": "fano"},
        {"exact": ["grid33", 3]},
        {"covered": {"fano": 1}},
        # an unknown field, and a matroid file passed as hints
        {"realisable": ["qs"]},
        {"d": 3, "n": 2, "circuits": [[1, 2, 3]]},
    ],
)
def test_cli_refuses_malformed_hints(tmp_path, hints):
    path = tmp_path / "hints.json"
    path.write_text(json.dumps({"non_realizable": ["fano"]}))
    assert run_cli("decompose", "catalog:qs", "--hints", str(path))[0] == 0
    path.write_text(json.dumps(hints))
    code, out = run_cli("decompose", "catalog:qs", "--hints", str(path))
    assert code == 2 and out == ""


def test_cli_deeply_nested_json_is_input_error(tmp_path, monkeypatch):
    # json.loads raises RecursionError, not ValueError, on deep nesting
    deep = "[" * 100_000
    for verb in ("reduce", "min-above"):
        for text in (deep, '{"d": ' + deep):
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            code, out = run_cli(verb, "-")
            assert code == 2 and out == ""
    path = tmp_path / "hints.json"
    path.write_text(deep)
    code, out = run_cli("decompose", "catalog:qs", "--hints", str(path))
    assert code == 2 and out == ""


def test_cli_error_quotes_a_bounded_excerpt(tmp_path, monkeypatch, capsys):
    # an oversized value in the input is quoted in part, never whole
    long_text = "x" * 100_000
    long_set = list(range(1, 100_001))
    cases = [
        ("min-above", {"d": long_text, "n": 3, "circuits": []}),
        ("min-above", {"d": 3, "n": 1, "circuits": [long_set]}),
        ("reduce", {"d": 4, "n": 3, "edges": [{"set": [1, 2], "type": long_text}]}),
        ("reduce", {"d": 3, "n": 2, "edges": [{"set": long_set, "type": 1}]}),
    ]
    for verb, obj in cases:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(obj)))
        code, out = run_cli(verb, "-")
        err = capsys.readouterr().err
        assert code == 2 and out == "" and 0 < len(err) < 1024
    path = tmp_path / "hints.json"
    path.write_text(json.dumps({"realizable": [long_text]}))
    code, out = run_cli("decompose", "catalog:qs", "--hints", str(path))
    err = capsys.readouterr().err
    assert code == 2 and out == "" and 0 < len(err) < 1024


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


_HG = {"d": 4, "n": 3, "edges": [{"set": [1, 2], "type": 1}, {"set": [1, 3, 4], "type": 2}]}
_MATROID = {"d": 4, "n": 3, "circuits": [[1, 2, 3]]}


@pytest.mark.parametrize(
    "verb, key, value",
    [
        ("reduce", "type", "1"),
        ("reduce", "type", 1.5),
        ("reduce", "set", [1, 1.5]),
        ("reduce", "set", [1, 2.0]),
        ("reduce", "set", []),
        ("reduce", "set", [1, 5]),
        ("reduce", "d", "4"),
        ("reduce", "d", 4.0),
        ("reduce", "d", 100),
        ("reduce", "n", "2"),
        ("reduce", "n", -1),
        ("reduce", None, [_HG]),
        ("min-above", "circuits", [[1, 2, 3.0]]),
        ("min-above", "circuits", [[1, 1.5, 3]]),
        ("min-above", "circuits", "123"),
        ("min-above", "d", "4"),
        ("min-above", "d", 4.0),
        ("min-above", "d", True),
        ("min-above", "n", "2"),
    ],
)
def test_cli_malformed_json_is_input_error(tmp_path, verb, key, value):
    # "type" and "set" replace the first edge's fields; key None replaces
    # the whole document
    base = _HG if verb == "reduce" else _MATROID
    path = tmp_path / "input.json"
    path.write_text(json.dumps(base))
    assert run_cli(verb, str(path))[0] == 0
    obj = json.loads(json.dumps(base))
    if key is None:
        obj = value
    elif key in ("type", "set"):
        obj["edges"][0][key] = value
    else:
        obj[key] = value
    path.write_text(json.dumps(obj))
    code, out = run_cli(verb, str(path))
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


_TWO_PAIRS = {
    "d": 5,
    "n": 3,
    "edges": [
        {"set": [1, 2], "type": 1},
        {"set": [2, 4], "type": 1},
        {"set": [1, 3, 5], "type": 2},
    ],
}

# sha256 of stdout, as text and with --json; "{two_pairs}" is the path of a
# file holding _TWO_PAIRS
_PINNED_DIGESTS = [
    (
        ("compare", "catalog:u27", "catalog:fano"),
        "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74",
        "606a325a0a5c836789b9e964975902988180e05ae1b9906c295f5bf224990db4",
    ),
    (
        ("isomorphic", "catalog:pg2", "catalog:fano"),
        "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74",
        "81a5346f2bfe07fcb79fd3ed68352687ce16311007f9ea6b0125ced6f98dde47",
    ),
    (
        ("min-above", "catalog:fano", "--group-by-symmetry"),
        "2097cb4466857cb555c4463ee9844c80a11a3116e86400c97bd40f890295c342",
        "6fee5a267fe4a612912de7cbc321e277cca7221639868e92fe62b51a84a2f4d3",
    ),
    (
        ("automorphisms", "catalog:k33dual"),
        "9c995b38b769c7fbdf82577a4dd841c63d0f6d082d92e8fd0653eb532facf490",
        "d4a4ee143f7b29e66a3dde49876526ad34c272a9e0bfa9d12e44b6ceb7d5c337",
    ),
    (
        ("reduce", "{two_pairs}"),
        "38764327b5766126937409d019d2a5b7575da11935453d61433ddcf2c22fa0e9",
        "38764327b5766126937409d019d2a5b7575da11935453d61433ddcf2c22fa0e9",
    ),
    (
        ("catalog", "list"),
        "2c28daa88d68556607ec0c0dfb5ea731a6a2beb179407c3a4b34a8feffc84af5",
        "98619bba5bbdea3f9e0814ea9a9289b07c50e90f1cb471154217b524f2ef0ba8",
    ),
    (
        ("catalog", "show", "fano"),
        "c4d7e48c7e3963c3894efe6d1237d666674c49a07e786c30662c2096d505f0a2",
        "1d234e8b6d33f18c869ce2c5fbabbac84abac37c9ed3672097c3a2d4c0355369",
    ),
    (
        ("decompose", "catalog:qs", "--hints", "paper"),
        "399df7db76df58e6538549646ad58ac5f197469276a03a768a8ccdae96f7e87e",
        "5e3d41c2a90c2b77189bf73ec41616479dc0823a7f6f8b41a5e8e2e3c6a96934",
    ),
    (
        ("steiner-experiment", "--q", "2", "--kind", "projective"),
        "0517cecbc994ec84107b3c6a11866f3f874d7e6d6ce8c8950a79a5cede89e557",
        "43bea6831497918adbe8c5141776eb62a3376520217b5cc5c23f72a7b15885f2",
    ),
    (
        # 176 components; most of the recursion is served by the memo
        ("decompose", "catalog:fanodual", "--hints", "paper"),
        "bef47e1fffc4644754b2b2396940b75a4839c4ca3da6578877c928f268f806f2",
        "450528d83838a2519e1b6aa0d621688b2ff410d60ca9d0728a24132af7d51958",
    ),
    (
        ("decompose", "catalog:threelines"),
        "7b151174a4be1f1e3b504407c44bb23a324a6e8f0f9d8d96aa8e8af577848455",
        "e40fca05cc250b18e3269117ca639928f5ae23dc3409baf5069cf286b897eaa5",
    ),
]


@pytest.mark.parametrize("argv, text_digest, json_digest", _PINNED_DIGESTS)
def test_cli_output_digests_pinned(tmp_path, monkeypatch, argv, text_digest, json_digest):
    monkeypatch.delenv("MATDEG_THREADS", raising=False)
    two_pairs = tmp_path / "two-pairs.json"
    two_pairs.write_text(json.dumps(_TWO_PAIRS))
    argv = [a.format(two_pairs=two_pairs) for a in argv]
    for extra, digest in (((), text_digest), (("--json",), json_digest)):
        code, out = run_cli(*argv, *extra)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, extra


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
