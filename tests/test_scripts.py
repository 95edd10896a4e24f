import importlib.util
import io
import json
import tarfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_exits_1_on_a_bad_run_and_keeps_its_record(tmp_path, monkeypatch):
    bench_pairs = _load("bench_pairs")
    empty_tar = io.BytesIO()
    tarfile.open(fileobj=empty_tar, mode="w").close()

    def git(*args):
        return empty_tar.getvalue() if args[0] == "archive" else b"0" * 40 + b"\n"

    def run_bench(checkout, workload, seed, seconds):
        # The working tree's runs read correct: false with no failed op.
        return {
            "correct": checkout.name == "base",
            "failed": 0,
            "attempted": 3,
            "metrics": {"ops_per_s": 1.0, "op_p50_ms": 1.0, "op_tail_ms": 1.0,
                        "peak_rss_mb": 1.0, "setup_s": 1.0},
        }

    monkeypatch.setattr(bench_pairs, "git", git)
    monkeypatch.setattr(bench_pairs, "export_working_tree", lambda dest: None)
    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--workload", "cut-pack", "--pairs", "2", "-o", str(out)]) == 1
    runs = json.loads(out.read_text())["cut-pack"]["runs"]
    assert [run["change"]["correct"] for run in runs] == [False, False]
