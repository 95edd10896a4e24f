"""deepconn benchmark: fixed-corpus CLI workloads, end to end or traced.

Usage, from the root of a checkout:

    python3 dcbench/run.py --workload fdc-colgen --seed 1 --seconds 30 --trace 0

One client drives ``deepconn.cli.main(argv)`` in this process, in a closed
loop: the next op starts when the previous one has returned.  A run makes
whole passes through its workload's fixed corpus, in an order drawn from
``--seed``, until ``--seconds`` would be exceeded by another pass.  The
host's speed swings by up to 2x, so each op is timed against a calibration
kernel run right before and after it and expressed in milliseconds at the
reference speed (see ``calibrate.py``); an op's time is its median over the
passes.  Between passes a fresh interpreter is started, one at a time, to
time the set-up: import ``deepconn`` and validate fig1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the fastest
traced pass, scaled to the reference speed (see ``tracing.py``).  Outputs are checked after the timed
passes (see ``checks.py``) and against ``reference.json``.  The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibrate
import checks
import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
PROBES_PER_GAP = 2
MIN_PROBES = 7
PROBE_TIMEOUT_S = 30
HARD_LIMIT_S = 170  # a run must end within 180 s


class RunTimeout(BaseException):
    """Raised by the alarm when a run overruns its hard limit."""


def import_deepconn():
    """Import the library from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "deepconn" / "__init__.py").is_file():
        raise SystemExit(f"error: no deepconn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import deepconn.cli

    if Path(deepconn.__file__).resolve().parent != SRC / "deepconn":
        raise SystemExit(f"error: imported deepconn from {deepconn.__file__}")
    return deepconn.cli


PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from deepconn.cli import main; "
    "sys.exit(main(['validate', '-i', sys.argv[2], '--json']))"
)


def setup_probe() -> float:
    """Seconds at the reference speed for a fresh interpreter to import
    deepconn and validate fig1."""
    fig1 = corpus.FIXTURES / "fig1.json"
    before = calibrate.kernel_ns()
    started = time.perf_counter_ns()
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC), str(fig1)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    elapsed = time.perf_counter_ns() - started
    if done.returncode != 0 or json.loads(done.stdout)["status"] != "ok":
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return calibrate.scaled(elapsed, before, calibrate.kernel_ns()) / 1e3


class Runner:
    """Runs the ops of one corpus and keeps what the checks need."""

    def __init__(self, cli, workload: str, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.corpus = corpus.build(workload)
        self.workdir = workdir
        for name, doc in self.corpus.docs.items():
            (workdir / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        self.output = workdir / "output.json"
        # op_id -> the op's times in ms at the reference speed, one per pass
        self.samples: dict[str, list[float]] = {op.op_id: [] for op in self.corpus.ops}
        self.first: dict[str, tuple] = {}  # op_id -> (status, stdout, output doc)
        self.failed_ops: set[str] = set()

    def argv(self, op) -> list[str]:
        argv = [str(self.output) if a == corpus.OUTPUT else a for a in op.argv]
        return argv + ["-i", str(self.workdir / f"{op.doc}.json"), "--json"]

    def run_pass(self, order) -> tuple[int, float]:
        """One pass in the given order.

        Returns the summed op time in ns and in ms at the reference speed.
        """
        raw_ns, ref_ms = 0, 0.0
        before = calibrate.kernel_ns()
        for op in order:
            argv = self.argv(op)
            out, err = io.StringIO(), io.StringIO()
            started = time.perf_counter_ns()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = self.cli.main(argv)
            except Exception:
                status = "exception: " + traceback.format_exc()
            elapsed = time.perf_counter_ns() - started
            after = calibrate.kernel_ns()
            ms = calibrate.scaled(elapsed, before, after)
            before = after
            raw_ns += elapsed
            ref_ms += ms
            self.samples[op.op_id].append(ms)
            written = (
                self.output.read_text(encoding="utf-8")
                if corpus.OUTPUT in op.argv and self.output.exists()
                else None
            )
            result = (status, out.getvalue(), written)
            if op.op_id not in self.first:
                self.first[op.op_id] = result
            elif result != self.first[op.op_id]:
                self.failed_ops.add(op.op_id)
            if status != 0:
                print(f"op {op.op_id} exited {status}: {err.getvalue()}", file=sys.stderr)
            if written is not None:
                self.output.unlink()
        return raw_ns, ref_ms

    @property
    def attempted(self) -> int:
        return sum(map(len, self.samples.values()))

    @property
    def failed(self) -> int:
        return sum(len(self.samples[op_id]) for op_id in self.failed_ops)

    def check(self) -> int:
        """Check the first pass's outputs; returns the number of failed ops."""
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[self.workload]
        for op in self.corpus.ops:
            status, stdout, written = self.first[op.op_id]
            if status != 0:
                self.failed_ops.add(op.op_id)
                continue
            report = json.loads(stdout)
            out_doc = json.loads(written) if written else None
            found = checks.problems(op.argv, self.corpus.docs[op.doc], report, out_doc)
            if checks.summary(report) != reference.get(op.op_id):
                found.append(
                    f"{checks.summary(report)} differs from reference "
                    f"{reference.get(op.op_id)}"
                )
            if found:
                self.failed_ops.add(op.op_id)
                print(f"op {op.op_id} failed its checks: {found}", file=sys.stderr)
        return len(self.failed_ops)


def tail(times: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten ops above it, and its value.

    Nearest-rank percentile over the sorted per-op times.
    """
    n = len(times)
    pct = max(0, math.floor(100 * (n - 10) / n))
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted(times)[rank - 1]


def end_to_end(runner: Runner, probes: list[float]) -> tuple[dict, dict]:
    times = [statistics.median(v) for v in runner.samples.values()]
    pct, tail_ms = tail(times)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "ops_per_s": (len(times) / (sum(times) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(times), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (statistics.median(probes), "s"),
    }
    detail = {
        "ops_per_pass": len(times),
        "op_tail_percentile": pct,
        "ops_beyond_tail": sum(t > tail_ms for t in times),
        "setup_probes": len(probes),
    }
    return metrics, detail


def measure(runner: Runner, seed: int, seconds: float, trace: bool):
    """Timed passes; returns (end-to-end or per-layer metrics, detail)."""
    rng = random.Random(seed)
    deadline = time.perf_counter() + seconds
    longest = 0.0
    probes: list[float] = []
    passes = {False: [], True: []}  # traced? -> [(raw ns, reference ms, stats)]
    if trace:
        import tracing

        tracer = tracing.Tracer()
    while True:
        traced = trace and len(passes[False]) > len(passes[True])
        order = list(runner.corpus.ops)
        rng.shuffle(order)
        gc.collect()
        started = time.perf_counter()
        if traced:
            tracer.stats.reset()
            with tracer:
                raw_ns, ref_ms = runner.run_pass(order)
            passes[True].append((raw_ns, ref_ms, tracer.stats.snapshot()))
        else:
            passes[False].append((*runner.run_pass(order), None))
            if not trace:
                probes += [setup_probe() for _ in range(PROBES_PER_GAP)]
        longest = max(longest, time.perf_counter() - started)
        if trace and not passes[True]:
            continue
        if time.perf_counter() + longest > deadline:
            break
    detail = {"passes": len(passes[False]) + len(passes[True])}
    if trace:
        raw_ns, ref_ms, stats = min(passes[True], key=lambda p: p[1])
        untraced_ms = min(p[1] for p in passes[False])
        metrics = tracing.layer_metrics(stats, raw_ns, ref_ms, untraced_ms)
        return {k: (v, tracing.unit_of(k)) for k, v in metrics.items()}, detail
    while len(probes) < MIN_PROBES:
        probes.append(setup_probe())
    metrics, more = end_to_end(runner, probes)
    return metrics, {**detail, **more}


def _on_alarm(signum, frame):
    raise RunTimeout(f"run exceeded {HARD_LIMIT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_deepconn()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(HARD_LIMIT_S)
    workroot = HERE / ".work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=workroot))
    try:
        runner = Runner(cli, args.workload, workdir)
        metrics, detail = measure(runner, args.seed, args.seconds, bool(args.trace))
        failed_ops = runner.check()
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    result = {
        "correct": failed_ops == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
