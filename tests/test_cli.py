import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import deepconn
from deepconn import fixtures, gadgets
from deepconn.gadgets import random_instance
from deepconn.cli import _build_parser, main
from deepconn.errors import DeepConnError
from deepconn.fdc import fdc_pair
from deepconn.model import parse_instance, serialize_instance
from deepconn.oracles import CutCertificate, PathPacking
from deepconn.sparsifier import check_precondition

EIGHT_PEERS = Path(__file__).parent / "data" / "eight_peers.json"
FORTY_NODES = Path(__file__).parent / "data" / "forty_nodes.json"
TEN_PEERS = Path(__file__).parent / "data" / "ten_peers.json"


@pytest.fixture()
def fig1_path(tmp_path):
    path = tmp_path / "fig1.json"
    path.write_text(fixtures.fig1_text())
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate(fig1_path, capsys):
    code, out, err = run(capsys, "validate", "-i", fig1_path)
    assert code == 0 and err == ""
    assert "status: ok" in out
    assert "nodes: 14" in out
    assert "total_routing: False" in out


def test_fdc_pair_human(fig1_path, capsys):
    code, out, _ = run(capsys, "fdc", "-i", fig1_path, "--pair", "S", "T")
    assert code == 0
    assert "value: 3/2" in out
    assert "elapsed_s" in out


def test_fdc_pair_json_deterministic(fig1_path, capsys):
    code, out1, _ = run(
        capsys, "fdc", "-i", fig1_path, "--pair", "S", "T", "--witness", "--json"
    )
    code2, out2, _ = run(
        capsys, "fdc", "-i", fig1_path, "--pair", "S", "T", "--witness", "--json"
    )
    assert code == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["value"] == "3/2"
    assert "elapsed_s" not in report
    total = sum(eval_frac(v) for v in report["witness"]["dual"].values())
    assert total == 1.5


def eval_frac(text):
    if "/" in text:
        p, q = text.split("/")
        return int(p) / int(q)
    return int(text)


def test_erdc_witness(fig1_path, capsys):
    code, out, _ = run(
        capsys, "erdc", "-i", fig1_path, "--pair", "S", "T", "--witness", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 2
    assert len(report["witness"]["cut"]) == 2


@pytest.mark.parametrize("verb", ["erdc", "pddc", "spddc"])
def test_eight_peer_pair(capsys, verb):
    # 12 nodes, 8 peers, complete overlay, shortest-path routing: 1,957
    # overlay paths between n01 and n11.  A recursive packing search
    # overflowed the stack on pddc, and spddc ran out of its node budget.
    code, out, err = run(
        capsys, verb, "-i", str(EIGHT_PEERS), "--pair", "n01", "n11",
        "--witness", "--json",
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["value"] == 5
    instance = parse_instance(EIGHT_PEERS.read_text())
    witness = report["witness"]
    if verb == "erdc":
        cut = CutCertificate(frozenset(tuple(e) for e in witness["cut"]))
        assert len(cut.edges) == 5
        cut.validate(instance, "n01", "n11")
    else:
        paths = [tuple(p) for p in witness["paths"]]
        assert len(paths) == 5
        PathPacking(paths).validate(instance, "n01", "n11", simple_only=verb == "spddc")


def test_ten_peer_spddc_pair(capsys):
    # dcbench random_doc(32000, 14, 10, 0.5, "shortest_path"): 14 nodes,
    # 10 peers, complete overlay.  Over 100,000 vertex-simple overlay paths
    # join n00 and n11, so a search that filters them exits BUDGET; fewer
    # than 3,000 are simply implemented.
    code, out, err = run(
        capsys, "spddc", "-i", str(TEN_PEERS), "--pair", "n00", "n11", "--witness", "--json"
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["value"] == 5
    paths = [tuple(p) for p in report["witness"]["paths"]]
    instance = parse_instance(TEN_PEERS.read_text())
    PathPacking(paths).validate(instance, "n00", "n11", simple_only=True)


def test_ten_peer_spddc_all_pairs(capsys):
    # Some pairs exceed the packing budget, so searching every pair exits
    # BUDGET; their seed bounds show that none of them is the minimum.
    code, out, err = run(
        capsys, "spddc", "-i", str(TEN_PEERS), "--all-pairs", "--witness", "--json"
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["value"] == 3 and report["argmin_pair"] == ["n00", "n06"]
    paths = [tuple(p) for p in report["witness"]["paths"]]
    instance = parse_instance(TEN_PEERS.read_text())
    PathPacking(paths).validate(instance, "n00", "n06", simple_only=True)


def test_forty_node_fdc_pair(capsys):
    # 40 nodes, 20 peers, a complete overlay whose hops mostly carry dual
    # weight 0: a separation oracle that searches among tied paths hangs.
    code, out, err = run(
        capsys, "fdc", "-i", str(FORTY_NODES), "--pair", "n00", "n38", "--witness", "--json"
    )
    assert code == 0 and err == ""
    assert '"value": "6"' in out
    instance = parse_instance(FORTY_NODES.read_text())
    fdc_pair(instance, "n00", "n38").validate(instance, "n00", "n38")


def test_erdc_all_pairs_on_the_complete_twenty_peer_overlay(capsys):
    code, out, err = run(
        capsys, "erdc", "-i", str(FORTY_NODES), "--all-pairs", "--witness", "--json"
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["value"] == 2
    assert report["argmin_pair"] == ["n00", "n01"]
    assert report["witness"]["cut"] == [["n01", "n08"], ["n01", "n28"]]
    instance = parse_instance(FORTY_NODES.read_text())
    cut = CutCertificate(frozenset(tuple(e) for e in report["witness"]["cut"]))
    cut.validate(instance, "n00", "n01")


def test_all_pairs(fig1_path, capsys):
    code, out, _ = run(capsys, "pddc", "-i", fig1_path, "--all-pairs", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["all_pairs"] is True
    assert isinstance(report["value"], int)


def test_check(fig1_path, capsys):
    code, out, _ = run(capsys, "check", "-i", fig1_path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    by_pair = {tuple(row["pair"]): row for row in report["pairs"]}
    assert by_pair[("S", "T")]["erdc"] == 2
    assert by_pair[("S", "T")]["fdc"] == "3/2"
    assert all(row["inequalities"] == "ok" for row in report["pairs"])


def test_malformed_document(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", "-i", str(path))
    assert code == 2
    assert err.startswith("error FORMAT:")
    assert "line 1" in err


def test_deeply_nested_document(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "validate", "-i", str(path))
    assert code == 2 and out == ""
    assert err == "error FORMAT: document nested too deeply\n"


def test_over_long_number_document(tmp_path, capsys):
    # Past the interpreter's limit on integer digits, if it has one; a
    # root that is a number is a format error either way.
    path = tmp_path / "long.json"
    path.write_text("1" * 5000)
    code, out, err = run(capsys, "validate", "-i", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error FORMAT:")


def test_invalid_document(tmp_path, capsys):
    doc = {
        "nodes": ["a", "b"],
        "edges": [["a", "b"]],
        "peers": ["a"],
        "overlay_edges": [],
        "routes": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", "-i", str(path))
    assert code == 2
    assert err.startswith("error VALIDATION:")


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "-i", "/nonexistent.json")
    assert code == 2 and "error FORMAT" in err


def test_undecodable_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "validate", "-i", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error FORMAT: cannot read {path}:")


@pytest.mark.parametrize(
    "argv",
    [
        ("sparsify", "-i", "@tri.json", "-o", "@missing/sparse.json"),
        ("gen", "random", "--nodes", "5", "--peers", "3", "-o", "@missing/gen.json"),
        (
            "gen", "set-system", "--h-nodes", "x,y,z", "--h-edges", "x-y,y-z",
            "--f", "x-y,y-z", "--m", "2", "--sets", "1;1,2",
            "--labels", "@missing/labels.json",
        ),
    ],
)
def test_unwritable_output(tmp_path, capsys, argv):
    (tmp_path / "tri.json").write_text(serialize_instance(fixtures.triangle()))
    argv = [f"{tmp_path}/{a[1:]}" if a.startswith("@") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error FORMAT: cannot write {tmp_path}/missing/")
    assert not (tmp_path / "missing").exists()


def test_usage_error(capsys):
    assert main(["fdc"]) == 2
    capsys.readouterr()


def test_sparsify_infeasible(tmp_path, capsys):
    doc = {
        "nodes": ["a", "b", "c"],
        "edges": [["a", "b"], ["b", "c"]],
        "peers": ["a", "b", "c"],
        "overlay_edges": [["a", "b"], ["b", "c"], ["a", "c"]],
        "routes": [
            {"pair": ["a", "b"], "path": ["a", "b"]},
            {"pair": ["b", "c"], "path": ["b", "c"]},
            {"pair": ["a", "c"], "path": ["a", "b", "c"]},
        ],
    }
    path = tmp_path / "path.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "sparsify", "-i", str(path))
    assert code == 1
    assert "error PRECONDITION: precondition ERDC(K_P) >= 2 violated at edge (a,b)" in err


def test_sparsify_triangle(tmp_path, capsys):
    doc = {
        "nodes": ["a", "b", "c"],
        "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
        "peers": ["a", "b", "c"],
        "overlay_edges": [["a", "b"], ["b", "c"], ["a", "c"]],
        "routes": [
            {"pair": ["a", "b"], "path": ["a", "b"]},
            {"pair": ["b", "c"], "path": ["b", "c"]},
            {"pair": ["a", "c"], "path": ["a", "c"]},
        ],
    }
    src = tmp_path / "tri.json"
    src.write_text(json.dumps(doc))
    out_path = tmp_path / "sparse.json"
    code, out, _ = run(
        capsys, "sparsify", "-i", str(src), "-o", str(out_path), "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["size"] == 3
    reloaded = parse_instance(out_path.read_text())
    assert len(reloaded.overlay_edges) == 3


def test_special_case(tmp_path, capsys):
    doc = {
        "nodes": ["a", "b", "c", "d"],
        "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
        "peers": ["a", "b", "c", "d"],
        "overlay_edges": [],
        "routes": [],
    }
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "special-case", "-i", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["size"] <= report["bound"] == 6


def test_special_case_needs_every_node_a_peer(fig1_path, capsys):
    code, out, err = run(capsys, "special-case", "-i", fig1_path)
    assert code == 1 and out == ""
    assert err == "error PRECONDITION: special case requires every node to be a peer\n"


def test_check_text_lists_each_pair(tmp_path, capsys):
    path = tmp_path / "shared_edge.json"
    path.write_text(serialize_instance(fixtures.shared_edge()))
    code, out, _ = run(capsys, "check", "-i", str(path))
    assert code == 0
    row = "  pair: {}\n  erdc: 1\n  pddc: 1\n  spddc: {}\n  fdc: {}\n  inequalities: ok\n\n"
    assert out == (
        "command: check\npairs:\n"
        + row.format("['s', 't']", 0, "1/2")
        + row.format("['s', 'x']", 1, 1)
        + row.format("['t', 'x']", 1, 1)
        + "status: ok\n"
    )


def test_gen_random_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "rand.json"
    code, out, _ = run(
        capsys,
        "gen",
        "random",
        "--nodes",
        "8",
        "--peers",
        "4",
        "--seed",
        "5",
        "-o",
        str(out_path),
        "--json",
    )
    assert code == 0
    inst = parse_instance(out_path.read_text())
    assert len(inst.nodes) == 8 and len(inst.peers) == 4


@pytest.mark.parametrize(
    "nodes, peers, prob, seed", [("29", "9", "0.193", "77"), ("21", "10", "0.302", "94")]
)
def test_gen_random_simple_is_linear(tmp_path, capsys, nodes, peers, prob, seed):
    # A route search that un-marks the vertices it backs out of re-enters
    # the same dead ends exponentially often and does not finish on these.
    out_path = tmp_path / "rand.json"
    code, out, _ = run(
        capsys, "gen", "random", "--nodes", nodes, "--peers", peers,
        "--edge-prob", prob, "--policy", "random_simple", "--seed", seed,
        "-o", str(out_path), "--json",
    )
    assert code == 0 and json.loads(out)["status"] == "ok"
    inst = parse_instance(out_path.read_text())
    assert len(inst.nodes) == int(nodes) and len(inst.peers) == int(peers)
    assert inst.total


def test_gen_spddc_reduction(tmp_path, capsys):
    out_path = tmp_path / "red.json"
    code, out, _ = run(
        capsys,
        "gen",
        "spddc-reduction",
        "--m",
        "2",
        "--sets",
        "1;2",
        "--k",
        "2",
        "-o",
        str(out_path),
        "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["source"] == "u0" and report["sink"] == "u2"
    parse_instance(out_path.read_text())
    code, out, err = run(
        capsys, "gen", "spddc-reduction", "--m", "2", "--sets", "1;2.5", "--k", "2"
    )
    assert code == 2 and out == ""
    assert err == "error FORMAT: bad set '2.5'; expected integers\n"


def test_gen_set_system_labels(tmp_path, capsys):
    out_path = tmp_path / "gadget.json"
    labels_path = tmp_path / "labels.json"
    code, _, _ = run(
        capsys,
        "gen",
        "set-system",
        "--h-nodes",
        "x,y,z",
        "--h-edges",
        "x-y,y-z",
        "--f",
        "x-y,y-z",
        "--m",
        "2",
        "--sets",
        "1;1,2",
        "-o",
        str(out_path),
        "--labels",
        str(labels_path),
    )
    assert code == 0
    labels = json.loads(labels_path.read_text())
    assert len(labels["element_edges"]) == 2
    parse_instance(out_path.read_text())
    code, out, err = run(
        capsys, "gen", "set-system", "--h-nodes", "x,y,z", "--h-edges", "x-y,y-z",
        "--f", "x-y,y-z", "--m", "2", "--sets", "1;1,x",
    )
    assert code == 2 and out == ""
    assert err == "error FORMAT: bad set '1,x'; expected integers\n"


def test_gen_hamiltonian(tmp_path, capsys):
    out_path = tmp_path / "ham.json"
    code, out, _ = run(
        capsys,
        "gen",
        "hamiltonian",
        "--nodes",
        "a,b,c",
        "--edges",
        "a-b,b-c",
        "-o",
        str(out_path),
        "--json",
    )
    assert code == 0
    inst = parse_instance(out_path.read_text())
    assert inst.total and "apex_x" in inst.nodes


def test_gen_hamiltonian_edge_tokens(capsys):
    # A token with a side missing is malformed, not an edge to an unknown
    # node or outside the overlay.
    for argv, token in [
        (["hamiltonian", "--nodes", "a,b,c", "--edges", "a-b-c"], "a-b-c"),
        (["hamiltonian", "--nodes", "a,b,c", "--edges", "a-"], "a-"),
        (["hamiltonian", "--nodes", "a,b,c", "--edges", "a-b,-c"], "-c"),
        ([*_SET_SYSTEM[1:], "--f", "x-", "--m", "1", "--sets", "1"], "x-"),
    ]:
        code, out, err = run(capsys, "gen", *argv)
        assert code == 2 and out == ""
        assert err == f"error FORMAT: bad edge token {token!r}; expected a-b\n"
    code, out, _ = run(
        capsys, "gen", "hamiltonian", "--nodes", "a,b,c", "--edges", "a-b,,b-c", "--json"
    )
    assert code == 0 and json.loads(out)["nodes"] == 5


_SET_SYSTEM = ["gen", "set-system", "--h-nodes", "x,y,z", "--h-edges", "x-y,y-z"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["gen", "spddc-reduction", "--m", "1", "--sets", "1", "--k", "0"],
            "k must be positive",
        ),
        (
            ["gen", "hamiltonian", "--nodes", "a,b,apex_x", "--edges", "a-b"],
            "input vertex names collide with apex names",
        ),
        (
            ["gen", "hamiltonian", "--nodes", "a,b", "--edges", "a-b"],
            "need at least three vertices",
        ),
        (
            [*_SET_SYSTEM, "--f", "x-y,y-x", "--m", "1", "--sets", "1;1"],
            "duplicate edges in f",
        ),
        (
            [*_SET_SYSTEM, "--f", "x-z", "--m", "1", "--sets", "1"],
            "f must be a subset of the overlay edges",
        ),
        (
            ["gen", "set-system", "--h-nodes", "x,v1_a", "--h-edges", "x-v1_a",
             "--f", "x-v1_a", "--m", "1", "--sets", "1"],
            "node name v1_a collides with an overlay vertex",
        ),
        ([*_SET_SYSTEM, "--f", "x-y", "--m", "1", "--sets", "2"], "set element out of range"),
        (
            [*_SET_SYSTEM, "--f", "x-y", "--m", "-1", "--sets", "1"],
            "set system dimensions out of range",
        ),
        (
            [*_SET_SYSTEM, "--f", "x-y", "--m", "1", "--sets", "1;1"],
            "f must list one overlay edge per set",
        ),
        (
            [*_SET_SYSTEM, "--f", "x-y", "--m", "2", "--sets", "1"],
            "element 2 appears in no set; its edge would be disconnected",
        ),
        (
            ["gen", "random", "--nodes", "3", "--peers", "2", "--edge-prob", "0"],
            "no connected graph within 1000 attempts",
        ),
    ],
    ids=[
        "k-zero",
        "apex-name",
        "two-vertices",
        "duplicate-f",
        "f-outside-overlay",
        "gadget-name",
        "element-out-of-range",
        "negative-m",
        "f-per-set",
        "unused-element",
        "edge-prob-zero",
    ],
)
def test_generator_rejects_invalid_input(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error VALIDATION: {message}\n"


def test_bare_domain_error_takes_the_fallback_code(capsys, monkeypatch):
    # No library code raises a bare DeepConnError; the base class's own code
    # and status apply to it.
    def fail(*args):
        raise DeepConnError("raised by the handler")

    monkeypatch.setattr(gadgets, "build_hamiltonian_reduction", fail)
    code, out, err = run(capsys, "gen", "hamiltonian", "--nodes", "a,b,c", "--edges", "a-b")
    assert (code, out, err) == (1, "", "error ERROR: raised by the handler\n")


def test_reader_closing_stdout_early_gets_no_traceback(tmp_path):
    # The report of check on a 48-node ring (1,128 pairs) is far larger than
    # a pipe holds, so the CLI is still writing when the reader stops after
    # one line.
    nodes = [f"c{i}" for i in range(48)]
    ring = [(u, v) for u, v in zip(nodes, nodes[1:] + nodes[:1])]
    doc = tmp_path / "ring.json"
    doc.write_text(serialize_instance(fixtures.identity_instance(nodes, ring)))
    src = str(Path(deepconn.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "deepconn.cli", "check", "-i", str(doc), "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_module_entry_passes_on_exit_codes(fig1_path, tmp_path):
    src = str(Path(deepconn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "deepconn.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )

    proc = module("validate", "-i", fig1_path, "--json")
    assert proc.returncode == 0
    assert next(iter(json.loads(proc.stdout))) == "command"
    proc = module("validate", "-i", str(tmp_path / "missing.json"))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error FORMAT: ")


_FRESH_MAIN = """
import contextlib, io, json, sys
from deepconn.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(json.loads(sys.argv[1]))
modules = sorted(m for m in sys.modules if m == "deepconn" or m.startswith("deepconn."))
print(json.dumps([code, out.getvalue(), modules, "fractions" in sys.modules]))
"""


def _fresh_main(argv, **env):
    """Exit code, stdout, loaded deepconn modules and whether fractions was
    loaded, of main(argv) in a new interpreter."""
    src = str(Path(deepconn.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_MAIN, json.dumps(argv)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src, **env),
        timeout=60,
        check=True,
    )
    return json.loads(proc.stdout)


def test_each_verb_imports_only_what_it_runs(fig1_path, tmp_path):
    triangle = tmp_path / "triangle.json"
    triangle.write_text(serialize_instance(fixtures.triangle()))
    base = ["cli", "errors", "model", "sparsifier"]
    solvers = base + ["fdc", "oracles", "simplex"]
    cases = [
        (["validate", "-i", fig1_path], base, False),
        (["sparsify", "-i", str(triangle)], base, False),
        (["erdc", "-i", fig1_path, "--pair", "S", "T"], solvers, True),
        (["fdc", "-i", fig1_path, "--pair", "S", "T"], solvers, True),
        (["check", "-i", fig1_path], solvers, True),
        (["gen", "random", "--nodes", "6", "--peers", "3"], base + ["gadgets"], False),
    ]
    for argv, modules, fractions in cases:
        code, _, loaded, has_fractions = _fresh_main(argv)
        expected = sorted(["deepconn", *(f"deepconn.{m}" for m in modules)])
        assert (code, loaded, has_fractions) == (0, expected, fractions), argv


def test_gen_random_help_needs_no_generators():
    code, out, loaded, _ = _fresh_main(["gen", "random", "--help"], COLUMNS="80")
    assert code == 0
    assert "--policy {shortest_path,random_simple}" in out
    assert "deepconn.gadgets" not in loaded


def test_witness_reingest(fig1_path, capsys, tmp_path):
    # A cut emitted by the CLI must validate against the library certificate.
    from deepconn.oracles import CutCertificate

    code, out, _ = run(
        capsys, "erdc", "-i", fig1_path, "--pair", "S", "T", "--witness", "--json"
    )
    report = json.loads(out)
    cut = frozenset(tuple(e) for e in report["witness"]["cut"])
    cert = CutCertificate(edges=cut)
    cert.validate(fixtures.fig1(), "S", "T")


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "-i", "@", "--budget", "1"],
        ["fdc", "--pair", "S", "T", "-i", "@", "--budget", "1"],
        ["check", "-i", "@", "--budget", "1"],
        ["sparsify", "-i", "@", "--budget", "1"],
        ["special-case", "-i", "@", "--budget", "1"],
        ["validate", "-i", "@", "-o", "x"],
        ["fdc", "--pair", "S", "T", "-i", "@", "-o", "x"],
        ["erdc", "--all-pairs", "-i", "@", "-o", "x"],
        ["pddc", "--all-pairs", "-i", "@", "-o", "x"],
        ["spddc", "--all-pairs", "-i", "@", "-o", "x"],
        ["check", "-i", "@", "-o", "x"],
        ["gen", "random", "--nodes", "5", "--peers", "3", "--labels", "x"],
        ["gen", "hamiltonian", "--nodes", "a,b", "--edges", "a-b", "--labels", "x"],
    ],
)
def test_budget_rejected_where_unused(fig1_path, capsys, argv):
    """A flag that a verb would not act on, the last two items of argv, is
    a usage error there; "@" stands for the fig1 document.
    """
    argv = [fig1_path if a == "@" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err


def test_budget_honoured_by_search_verbs(fig1_path, capsys):
    for verb in ("erdc", "pddc", "spddc"):
        for budget in ("1", "0"):
            code, _, err = run(
                capsys, verb, "-i", fig1_path, "--all-pairs", "--budget", budget
            )
            assert code == 1 and err.startswith("error BUDGET:")


@pytest.mark.parametrize(
    "argv",
    [
        ["erdc", "--pair", "S", "T", "--budget", "-5"],
        ["pddc", "--pair", "S", "T", "--budget", "-1"],
        ["spddc", "--pair", "S", "T", "--budget", "-1"],
        ["erdc", "--pair", "S", "T", "--budget", "abc"],
    ],
)
def test_negative_budget_is_usage_error(fig1_path, capsys, argv):
    code, out, err = run(capsys, *argv, "-i", fig1_path)
    assert code == 2 and out == ""
    assert f"argument --budget: expected an integer >= 0, got '{argv[-1]}'" in err


def test_parser_reused_across_verbs(fig1_path, capsys):
    runs = [
        ["validate", "-i", fig1_path, "--json"],
        ["fdc", "-i", fig1_path, "--pair", "S", "T", "--witness", "--json"],
        ["erdc", "-i", fig1_path, "--pair", "S", "T", "--budget", "50", "--json"],
        ["fdc", "-i", fig1_path, "--all-pairs", "--budget", "50"],
        ["pddc", "-i", fig1_path, "--all-pairs", "--witness", "--json"],
        ["gen", "random", "--nodes", "6", "--peers", "3", "--json"],
        ["spddc", "-i", fig1_path, "--pair", "S", "S", "--json"],
        ["validate", "-i", fig1_path, "--json"],
    ]
    back_to_back = [run(capsys, *argv) for argv in runs]
    assert _build_parser() is _build_parser()
    fresh = []
    for argv in runs:
        _build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert back_to_back == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 0, 0, 2, 0]


def _write_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _relay_doc(relay):
    """Peers a and b, joined through one relay node."""
    return {
        "nodes": ["a", "b", relay],
        "edges": [["a", relay], [relay, "b"]],
        "peers": ["a", "b"],
        "overlay_edges": [["a", "b"]],
        "routes": [{"pair": ["a", "b"], "path": ["a", relay, "b"]}],
    }


@pytest.mark.parametrize("name", ["r\n", 7, None, ["r"]])
def test_invalid_node_name(tmp_path, capsys, name):
    path = _write_doc(tmp_path, _relay_doc(name))
    code, _, err = run(capsys, "validate", "-i", path)
    assert code == 2
    assert err == f"error VALIDATION: invalid node name {name!r}\n"


@pytest.mark.parametrize("key", ["nodes", "edges", "peers", "overlay_edges", "routes"])
@pytest.mark.parametrize("value", [None, "ab", {"a": "b"}, 3])
def test_top_level_key_not_an_array(tmp_path, capsys, key, value):
    path = _write_doc(tmp_path, {**_relay_doc("r"), key: value})
    code, _, err = run(capsys, "validate", "-i", path)
    assert code == 2
    assert err == f"error FORMAT: {key!r} must be an array\n"


@pytest.mark.parametrize(
    "doc, bad",
    [
        ({**_relay_doc("r"), "peers": [["a"], "b"]}, "['a']"),
        ({**_relay_doc("r"), "edges": [["a", ["r"]], ["r", "b"]]}, "in edge ['a', ['r']]"),
        (
            {**_relay_doc("r"), "routes": [{"pair": ["a", "b"], "path": ["a", ["r"], "b"]}]},
            "['r']",
        ),
    ],
)
def test_unhashable_node_name(tmp_path, capsys, doc, bad):
    code, _, err = run(capsys, "validate", "-i", _write_doc(tmp_path, doc))
    assert code == 2
    assert err == f"error VALIDATION: invalid node name {bad}\n"


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {
                "nodes": ["a", "b"],
                "edges": ["ab"],
                "peers": ["a", "b"],
                "overlay_edges": ["ab"],
                "routes": [{"pair": "ab", "path": "ab"}],
            },
            "route pair 'ab' is not a 2-array",
        ),
        ({**_relay_doc("r"), "edges": ["ar", "rb"]}, "'edges' must hold 2-arrays"),
        ({**_relay_doc("r"), "overlay_edges": ["ab"]}, "'overlay_edges' must hold 2-arrays"),
        (
            {**_relay_doc("r"), "routes": [{"pair": "ab", "path": ["a", "r", "b"]}]},
            "route pair 'ab' is not a 2-array",
        ),
        (
            {**_relay_doc("r"), "routes": [{"pair": ["a", "b"], "path": "arb"}]},
            "route path 'arb' is not an array",
        ),
    ],
)
def test_string_is_not_an_array(tmp_path, capsys, doc, message):
    code, _, err = run(capsys, "validate", "-i", _write_doc(tmp_path, doc))
    assert code == 2
    assert err == f"error FORMAT: {message}\n"


def _random_document(feasible):
    seed = 0
    while True:
        inst = random_instance(9, 6, 0.3, "random_simple", seed=seed)
        if check_precondition(inst)[0] == feasible:
            return serialize_instance(inst)
        seed += 1


def test_output_is_byte_identical_across_hash_seeds(tmp_path):
    nodes = [f"c{i}" for i in range(10)]
    ring = [(nodes[i], nodes[(i + 1) % 10]) for i in range(10)]
    docs = {
        "fig1": fixtures.fig1_text(),
        "feasible": _random_document(True),
        "infeasible": _random_document(False),
        "all_peers": serialize_instance(
            fixtures.identity_instance(nodes, ring + [("c0", "c5"), ("c2", "c7")])
        ),
    }
    for name, text in docs.items():
        (tmp_path / f"{name}.json").write_text(text)
    out = tmp_path / "out.json"
    ops = [
        [verb, "fig1", "--all-pairs", "--witness"]
        for verb in ("fdc", "erdc", "pddc", "spddc")
    ]
    ops += [["sparsify", doc, "-o", str(out)] for doc in ("feasible", "infeasible")]
    ops += [["special-case", "all_peers", "-o", str(out)]]
    src = str(Path(deepconn.__file__).resolve().parents[1])
    codes = set()
    for verb, doc, *rest in ops:
        argv = [verb, "-i", str(tmp_path / f"{doc}.json"), *rest, "--json"]
        runs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "deepconn.cli", *argv],
                capture_output=True,
                env=env,
            )
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            runs.append((proc.returncode, proc.stdout, proc.stderr, written))
        assert runs[0] == runs[1], argv
        codes.add(runs[0][0])
        assert runs[0][0] != 0 or "-o" not in argv or runs[0][3] is not None
    assert codes == {0, 1}


_GEN_DIGESTS = [
    (
        ["set-system", "--h-nodes", "x,y,z", "--h-edges", "x-y,y-z",
         "--f", "x-y,y-z", "--m", "2", "--sets", "1;1,2"],
        (
            "d4650c094a36a438f7c506ddd84fcaa82c3a74e6b8d53577ff3da3cc82a47816",
            "bbf35e6f04a9a5a9db06c4170bf822896c602c64ed9e11a42edd929c7b73f9ca",
            "7b6389979cefc564123f7ce9c72cf254d3a3ec5391e6b209eea1c39d5f1a55fc",
        ),
    ),
    (
        ["set-system", "--h-nodes", "w,x,y,z", "--h-edges", "x-y,y-z,z-w",
         "--f", "y-x,z-y", "--m", "1", "--sets", ";1"],
        (
            "289f5f142409e46fde9f56efeee6a16284e2a8dc2bb6aedbd3f26a0a8b2c00e0",
            "198c1175a48479545b87b213e436f42b23da2504807e7371cc63e3f2f531e972",
            "bbf0786547aeef8e502c56846eee04c7506f9220cd9aefbe7ae4f42bceaba203",
        ),
    ),
    (
        ["spddc-reduction", "--m", "2", "--sets", "1;2", "--k", "2"],
        (
            "5fb366d61e7ac7eec2328cf3094e3a6bcd6d03c80ee878f71f2425a5fab7658e",
            "82978b1f27710d5036603380615c5050248c0fef77a3ef7e4471ae769be8c25e",
            "4ebec851f143a8e4f41525f21749f0561920f95749d5c458ca6cc1889446ad60",
        ),
    ),
    (
        ["spddc-reduction", "--m", "4", "--sets", "1,3;3;", "--k", "3"],
        (
            "7781652678596e2457f1a54d4efff02bcc7f340fdc353c550dcf1964cbe1946e",
            "89df0cff13a845e173d8a3ab377b3ee67a7b76e684a3c6368c7cdeeb03bf5264",
            "7c530635922d56dbfb30e884e9cc1d54680cff1fbae7df128fee01649c0b7190",
        ),
    ),
    (
        ["hamiltonian", "--nodes", "a,b,c,d", "--edges", "a-b,b-c,c-d"],
        (
            "991b75f5cc270023f2f6f6c0aa81f5fa0e3dfb2636a2c39341e186938931a0c9",
            "957ad32283cd1202c3492ce2a660c10ec27043e232c3bdcc3a76a2eed59293a7",
            None,
        ),
    ),
    (
        ["random", "--nodes", "12", "--peers", "6", "--seed", "7",
         "--policy", "shortest_path"],
        (
            "9d7a38770e4264ede8120068cd5bac659a6c6cb0207eecc20db605a321e92a66",
            "56811e688d09a391f1838c1b5a010e71eb9457da5c230cf7872467a25dfadebc",
            None,
        ),
    ),
    (
        ["random", "--nodes", "12", "--peers", "6", "--seed", "7",
         "--policy", "random_simple"],
        (
            "9d7a38770e4264ede8120068cd5bac659a6c6cb0207eecc20db605a321e92a66",
            "c819219a2d418b36846218c63e3c7d2cae97220b95e58a5759476a7686c9a4f5",
            None,
        ),
    ),
]


@pytest.mark.parametrize(
    "argv, digests",
    _GEN_DIGESTS,
    ids=[
        "set-system-readme",
        "set-system-reversed-identity-empty",
        "spddc-reduction",
        "spddc-reduction-compacted",
        "hamiltonian",
        "random-shortest-path",
        "random-simple",
    ],
)
def test_gen_output_bytes_are_pinned(tmp_path, capsys, argv, digests):
    # sha256 of stdout (--json), of the -o file and of the --labels file,
    # recorded before the gadget builders were last rewritten.
    out_path, labels_path = tmp_path / "out.json", tmp_path / "labels.json"
    extra = ["--labels", str(labels_path)] if digests[2] is not None else []
    code, out, err = run(capsys, "gen", *argv, "--json", "-o", str(out_path), *extra)
    assert code == 0 and err == ""
    found = (
        hashlib.sha256(out.encode()).hexdigest(),
        hashlib.sha256(out_path.read_bytes()).hexdigest(),
        hashlib.sha256(labels_path.read_bytes()).hexdigest() if extra else None,
    )
    assert found == digests



# Each report case runs once in text mode and once with --json.  An "@name"
# argument is the path of the document "name" (or of the -o file "out").
_REPORT_CASES = {
    "validate": ["validate", "-i", "@fig1"],
    "check": ["check", "-i", "@fig1"],
    "check-whole-fdc": ["check", "-i", "@shared_edge"],
    "special-case": ["special-case", "-i", "@triangle", "-o", "@out"],
    "sparsify": ["sparsify", "-i", "@eight_peers", "-o", "@out"],
    "fdc": ["fdc", "-i", "@fig1", "--pair", "S", "T", "--witness"],
    "erdc": ["erdc", "-i", "@fig1", "--pair", "S", "T", "--witness"],
    "pddc": ["pddc", "-i", "@fig1", "--pair", "S", "T", "--witness"],
    "spddc": ["spddc", "-i", "@fig1", "--pair", "S", "T", "--witness"],
    "fdc-all-pairs": ["fdc", "-i", "@fig1", "--all-pairs", "--witness"],
    "validation-error": ["sparsify", "-i", "@fig1", "-o", "@out"],
    "budget-error": ["erdc", "-i", "@fig1", "--pair", "S", "T", "--budget", "0"],
}

# (exit code, sha256 of [stdout, stderr, -o file text or None] as JSON) per
# case and mode, recorded before report framing moved into cli.main.
_REPORT_DIGESTS = {
    ("validate", "text"):
        (0, "146215a5adf95d6bd435d5d606f71e353abdd9dad32140084e0dd71aa67756cb"),
    ("validate", "json"):
        (0, "d98ebda6310ea7f73cc64f4cde51d0f6adba7db0718c52e1abef51e5d5d51c4a"),
    ("check", "text"):
        (0, "d9ebfd2265a8e87b26cd45d49e2ea12747f270af06cfe9da56778624c145f940"),
    ("check", "json"):
        (0, "3d31d00fe2f1011c0d6d4d44894df72b161b20a3731aa2d0923ce42a8aca2869"),
    ("check-whole-fdc", "text"):
        (0, "1d7e9eab53dc97cd1bf561159af2d92428fe2c6bee8c6da9c67c56a0936778cf"),
    ("check-whole-fdc", "json"):
        (0, "d36ad30cda322645f74c52ac9b84c21a06cabd5ed1be2169cd918056cdd29b2f"),
    ("special-case", "text"):
        (0, "f86f161635b6759afb72adc66a97db3a6eb6c80f415de17b7c7ad95bb1fa6a45"),
    ("special-case", "json"):
        (0, "bbfeae77edf77da99c6bd72311738b2da49546c7855894886e126c96d5e68a45"),
    ("sparsify", "text"):
        (0, "f5fd77d87e324010d8e68c2149a3aefac1c0a0502b7ac47e01302bf9bca3c575"),
    ("sparsify", "json"):
        (0, "69d0d2c31ca0033fe265fcf37f9fe1ce0c435f10096771fb2d32b7b40e3208aa"),
    ("fdc", "text"):
        (0, "f3f2311cd9852b424daa11a8e7fd735f2f24c49e0385e422d1cbd3f3a5a242f3"),
    ("fdc", "json"):
        (0, "84af745ceeaf06a069d67f63e126ab11a03d9586b2cb4ae6f13a03ce32ca315f"),
    ("erdc", "text"):
        (0, "eea0a8f21e102c39d3eb78e925e409e2b1d54a11d62b6c80be030f0da2939ec4"),
    ("erdc", "json"):
        (0, "b78b4b345eedbb3f80c4f3f5bd1159f8f5b46dcf5e293c9ec69cf93a26f51c44"),
    ("pddc", "text"):
        (0, "1033d3ec28fdcdc1650903fa5ac3216c7f51874ac1ddbe4c03bf02d872bfd084"),
    ("pddc", "json"):
        (0, "0f00faf12821612591f0346e4922e40a5d5866b905082f9af34a9a15e9221a0c"),
    ("spddc", "text"):
        (0, "adb08149d1495640f3da541e204076e453fae44157e82d8b372059dd745277d1"),
    ("spddc", "json"):
        (0, "c334e401e763a3d1822d081404f95b1288a69da9130ec291bf3be92a2fdb4b79"),
    ("fdc-all-pairs", "text"):
        (0, "765af9ca02907ed68453b6c84a184a46466fcac09dc1b3bffe33e7c13fb989f4"),
    ("fdc-all-pairs", "json"):
        (0, "4508070ff123f00964e6597a1d29e9f1b23154f288bb0f564c1541734005e804"),
    ("validation-error", "text"):
        (2, "1beeac5e4c87158dda1d1160bc6fb71e17ffc72179f3959f9cc67da9825eff9d"),
    ("validation-error", "json"):
        (2, "1beeac5e4c87158dda1d1160bc6fb71e17ffc72179f3959f9cc67da9825eff9d"),
    ("budget-error", "text"):
        (1, "5f8316b0912ece882fb759d937a635f9c59af73fcdc0493ec62276e0df6e054e"),
    ("budget-error", "json"):
        (1, "5f8316b0912ece882fb759d937a635f9c59af73fcdc0493ec62276e0df6e054e"),
}


def _report_argv(tmp_path, argv):
    """argv with each "@name" replaced by the path of its written document."""
    docs = {
        "fig1": fixtures.fig1_text(),
        "shared_edge": serialize_instance(fixtures.shared_edge()),
        "triangle": serialize_instance(fixtures.triangle()),
        "eight_peers": EIGHT_PEERS.read_text(),
    }
    for name, text in docs.items():
        (tmp_path / f"{name}.json").write_text(text)
    return [str(tmp_path / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]


@pytest.mark.parametrize(
    "case, mode",
    [(case, mode) for case in _REPORT_CASES for mode in ("text", "json")],
    ids=lambda value: value,
)
def test_report_bytes_are_pinned(tmp_path, capsys, case, mode):
    # Text mode's elapsed_s, a wall time, is masked before hashing.
    argv = _report_argv(tmp_path, _REPORT_CASES[case])
    code, out, err = run(capsys, *argv, *(["--json"] if mode == "json" else []))
    out = re.sub(r"^elapsed_s: \S+$", "elapsed_s: *", out, flags=re.M)
    out_path = tmp_path / "out.json"
    written = out_path.read_text() if out_path.exists() else None
    digest = hashlib.sha256(json.dumps([out, err, written]).encode()).hexdigest()
    assert (code, digest) == _REPORT_DIGESTS[case, mode]


def _registered_verbs(parser, prefix=""):
    """Every verb the parser dispatches, a generator as "gen <name>"."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _registered_verbs(sub, f"{prefix}{name} ")
            return
    yield prefix.strip()


def test_every_verb_is_pinned_and_framed(tmp_path, capsys):
    # Each verb needs a pinned case that succeeds, and its --json report
    # starts with its verb under "command" and ends with "status".
    cases = [_report_argv(tmp_path, argv) for argv in _REPORT_CASES.values()]
    cases += [["gen", *argv] for argv, _ in _GEN_DIGESTS]
    framed = set()
    for argv in cases:
        code, out, _ = run(capsys, *argv, "--json")
        if code == 0:
            verb = " ".join(argv[:2]) if argv[0] == "gen" else argv[0]
            report = json.loads(out)
            keys = list(report)
            assert (keys[0], report["command"], keys[-1]) == ("command", verb, "status")
            framed.add(verb)
    assert set(_registered_verbs(_build_parser())) <= framed
