import importlib.util
import io
import json
import os
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
END_TO_END = {"ops_per_s": 1.0, "op_p50_ms": 1.0, "op_tail_ms": 1.0,
              "peak_rss_mb": 1.0, "setup_s": 1.0}


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_bench_pairs(monkeypatch):
    """Load bench_pairs with git and the working-tree export faked out."""
    bench_pairs = _load("bench_pairs")
    empty_tar = io.BytesIO()
    tarfile.open(fileobj=empty_tar, mode="w").close()

    def git(*args):
        return empty_tar.getvalue() if args[0] == "archive" else b"0" * 40 + b"\n"

    monkeypatch.setattr(bench_pairs, "git", git)
    monkeypatch.setattr(bench_pairs, "export_working_tree", lambda dest: None)
    return bench_pairs


def _run_pairs(tmp_path, monkeypatch, incorrect, calls=None):
    """bench_pairs over two fake pairs; ``incorrect(side, trace)`` says which
    runs read correct: false.  Each traced run reads a layer share of 0.25
    (base) or 0.5 (change) plus its seed.  Returns the exit code and the
    stored entry; ``calls`` gets each run's (side, seed, trace).
    """
    bench_pairs = _load_bench_pairs(monkeypatch)

    def run_bench(checkout, workload, seed, seconds, trace=False):
        if calls is not None:
            calls.append((checkout.name, seed, trace))
        share = (0.25 if checkout.name == "base" else 0.5) + seed
        return {
            "correct": not incorrect(checkout.name, trace),
            "failed": 0,
            "attempted": 3,
            "metrics": {"layer.sparsifier.self_share": share} if trace else END_TO_END,
        }

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    out = tmp_path / "BENCH.json"
    code = bench_pairs.main(["--workload", "cut-pack", "--pairs", "2", "-o", str(out)])
    return code, json.loads(out.read_text())["cut-pack"]


def test_bench_pairs_exits_1_on_a_bad_run_and_keeps_its_record(tmp_path, monkeypatch):
    # The working tree's untraced runs read correct: false with no failed op.
    code, entry = _run_pairs(
        tmp_path, monkeypatch, lambda side, trace: side == "change" and not trace
    )
    assert code == 1
    assert [run["change"]["correct"] for run in entry["runs"]] == [False, False]


@pytest.mark.parametrize("bad_side", [None, "base", "change"])
def test_bench_pairs_stores_three_traced_runs_per_side(tmp_path, monkeypatch, bad_side):
    calls = []
    code, entry = _run_pairs(
        tmp_path, monkeypatch, lambda side, trace: trace and side == bad_side, calls
    )
    assert code == (bad_side is not None)
    # Seeds first-seed to first-seed + 2, the sides alternating.
    assert [c[:2] for c in calls if c[2]] == [
        ("base", 1), ("change", 1), ("change", 2), ("base", 2), ("base", 3), ("change", 3)
    ]
    layers = entry["layers"]
    assert layers.keys() == {"base", "change"}
    for side, share in (("base", 0.25), ("change", 0.5)):
        assert layers[side]["metrics"] == {"layer.sparsifier.self_share": pytest.approx(
            {"q1": share + 1.5, "median": share + 2, "q3": share + 2.5}
        )}
    assert [layers[side]["correct"] for side in ("base", "change")] == [
        bad_side != "base", bad_side != "change"
    ]


def test_bench_pairs_cleans_up_on_sigterm(tmp_path, monkeypatch):
    bench_pairs = _load_bench_pairs(monkeypatch)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    pid_file = tmp_path / "child.pid"

    def run_bench(checkout, workload, seed, seconds, trace=False):
        # The child stands in for dcbench/run.py: it writes its pid, sends
        # SIGTERM to this process while it is waited on, and sleeps.
        child = (
            "import os, signal, sys, time; "
            "open(sys.argv[1], 'w').write(str(os.getpid())); "
            f"time.sleep(0.2); os.kill({os.getpid()}, signal.SIGTERM); time.sleep(60)"
        )
        subprocess.run([sys.executable, "-c", child, str(pid_file)], check=True)

    def old_handler(signum, frame):
        raise AssertionError("SIGTERM reached the handler installed before main")

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    previous = signal.signal(signal.SIGTERM, old_handler)
    try:
        with pytest.raises(SystemExit) as exit_info:
            bench_pairs.main(["--workload", "cut-pack", "--pairs", "1"])
        assert signal.getsignal(signal.SIGTERM) is old_handler
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert exit_info.value.code == 128 + signal.SIGTERM
    assert list(tmp_path.glob("bench_pairs_*")) == []
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def test_code_lines_counts_code_in_every_module_of_the_package(tmp_path, capsys):
    package = tmp_path / "src" / "deepconn"
    (package / "sub").mkdir(parents=True)
    (package / "top.py").write_text(
        '"""Module docstring,\nover two lines."""\n\n'
        "# a comment\n"
        "def f(x):\n"
        '    """One-line docstring."""\n'
        "    return [x,\n"
        "            x]  # trailing comment\n"
    )
    (package / "sub" / "__init__.py").write_text("\n\nY = 2\n")
    assert _load("code_lines").main(["code_lines.py", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["1", "sub/__init__.py"],
        ["3", "top.py"],
        ["4", "total"],
    ]
