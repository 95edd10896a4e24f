"""Alternating benchmark pairs: a base ref against the working tree.

Usage, from the root of a checkout:

    python scripts/bench_pairs.py --workload fdc-colgen --pairs 10 \\
        [--base HEAD] [--first-seed 1] [-o BENCH.json]

Exports the committed files of the base ref (``git archive``) and the
working tree's files that git tracks or does not ignore into two temporary
directories, so that both sides run from fresh copies, as the benchmark runs
them.  Then runs ``dcbench/run.py`` once in each copy per pair, each run as
long as ``BENCHMARK.json``'s ``run_seconds``, pair i with seed first-seed + i
on both sides and the base first in even pairs.  Prints each side's first
quartile, median and third quartile for every end-to-end metric of
``BENCHMARK.json``, and in how many pairs the working tree was better (a tie
counts for neither side).  After the pairs, runs three traced runs
(``--trace 1``, as long) in each copy, run i with seed first-seed + i on
both sides and the sides alternating as in the pairs; each side's per-layer
metrics are stored beside the pairs as ``layers``, each as its first
quartile, median and third quartile over the three.  With ``-o``, the result
is stored under the workload's name in a JSON object in that file, with a
command line that reruns the same comparison (the base named by its sha);
other workloads' entries are kept.  Exits 1 when an op failed or a run,
traced or not, read ``correct: false`` on either side, after storing the
result, so the record of a bad run is kept.  SIGTERM stops it as an exit
does: the running child is killed and the temporary copies are removed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_RUNS = 3


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_working_tree(dest: Path) -> None:
    """Copy the working tree's files that git tracks or does not ignore."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in names.decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():  # a tracked file may be deleted
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_bench(
    checkout: Path, workload: str, seed: int, seconds: float, trace: bool = False
) -> dict:
    """The result line of one ``dcbench/run.py`` run in ``checkout``."""
    out = subprocess.run(
        [sys.executable, "dcbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=checkout, check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": q[0], "median": q[1], "q3": q[2]}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    out = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        base = [r["base"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        out[name] = {
            "unit": metric["unit"],
            "base": quartiles(base),
            "change": quartiles(change),
            "change_wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
            "pairs": len(runs),
        }
    return out


@contextlib.contextmanager
def sigterm_exits():
    """While in the block, SIGTERM raises ``SystemExit``, so ``subprocess.run``
    kills its child and ``TemporaryDirectory`` removes its files on the way
    out; the previous handler is restored after it.
    """
    previous = signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


@sigterm_exits()
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("-o", "--output", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    base_sha = git("rev-parse", args.base).decode().strip()
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {"base": Path(tmp, "base"), "change": Path(tmp, "change")}
        for checkout in checkouts.values():
            checkout.mkdir()
        archive = git("archive", base_sha)
        subprocess.run(["tar", "-x", "-C", checkouts["base"]], input=archive, check=True)
        export_working_tree(checkouts["change"])
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            run = {"seed": seed, "first": order[0]}
            for side in order:
                run[side] = run_bench(checkouts[side], args.workload, seed, seconds)
            runs.append(run)
            print(f"pair {i + 1}/{args.pairs} seed {seed}: ops_per_s "
                  f"base {run['base']['metrics']['ops_per_s']:.1f} "
                  f"change {run['change']['metrics']['ops_per_s']:.1f}", file=sys.stderr)
        traced = {"base": [], "change": []}
        for i in range(TRACED_RUNS):
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                traced[side].append(run_bench(checkouts[side], args.workload,
                                              args.first_seed + i, seconds, trace=True))

    summary = summarize(runs, benchmark["end_to_end"])
    layers = {side: {
        "correct": all(r["correct"] for r in rs),
        "failed": sum(r["failed"] for r in rs),
        "metrics": {name: quartiles([r["metrics"][name] for r in rs])
                    for name in rs[0]["metrics"]},
    } for side, rs in traced.items()}
    print(f"{args.workload}: {args.pairs} pairs of {seconds:g} s runs, "
          f"base {base_sha[:12]} vs working tree")
    print(f"{'metric':<14}{'base q1 / median / q3':>30}{'change q1 / median / q3':>30}  wins")
    for name, s in summary.items():
        cells = [" / ".join(f"{s[side][q]:.4g}" for q in ("q1", "median", "q3"))
                 for side in ("base", "change")]
        print(f"{name:<14}{cells[0]:>30}{cells[1]:>30}  {s['change_wins']}/{s['pairs']}")
    failed = sum(r[side]["failed"] + (not r[side]["correct"])
                 for r in [*runs, layers] for side in ("base", "change"))
    print(f"incorrect or failed: {failed}")

    if args.output:
        doc = json.loads(args.output.read_text()) if args.output.exists() else {}
        doc[args.workload] = {
            "command": shlex.join([
                "python", "scripts/bench_pairs.py", "--workload", args.workload,
                "--pairs", str(args.pairs), "--base", base_sha,
                "--first-seed", str(args.first_seed), "-o", str(args.output),
            ]),
            "base": base_sha,
            "python": sys.version.split()[0],
            "seconds": seconds,
            "summary": summary,
            "runs": runs,
            "layers": layers,
        }
        args.output.write_text(json.dumps(doc, indent=2) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
