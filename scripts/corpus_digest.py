"""Digest what every benchmark corpus op prints and writes.

Usage: python scripts/corpus_digest.py > tests/data/corpus_digest.json

Runs each op of every ``dcbench.corpus`` workload in this process through
``deepconn.cli.main``, in corpus order, on the checkout's own sources.  The
documents are written to a temporary directory that is the working
directory while the ops run, and the ops name their files relative to it,
so no path of the host reaches an output.  For each op it records the exit
code and the sha256 of its stdout, its stderr and its ``-o`` file (null
when it writes none), keyed by ``<workload>/<op id>``.  A change that keeps
every digest keeps every byte the CLI gives on the corpus.

The corpus module is only imported; nothing under ``dcbench/`` is written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def corpus_digest() -> dict[str, dict]:
    """``<workload>/<op id>`` -> exit code and digests of one run of the op."""
    sys.path.insert(0, str(ROOT / "dcbench"))
    try:
        import corpus
    finally:
        sys.path.remove(str(ROOT / "dcbench"))
    from deepconn.cli import main

    digests = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for workload in corpus.WORKLOADS:
                built = corpus.build(workload)
                for name, doc in built.docs.items():
                    Path(f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
                for op in built.ops:
                    argv = ["output.json" if a == corpus.OUTPUT else a for a in op.argv]
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        status = main([*argv, "-i", f"{op.doc}.json", "--json"])
                    written = Path("output.json")
                    digests[f"{workload}/{op.op_id}"] = {
                        "exit": status,
                        "stdout": _sha(out.getvalue()),
                        "stderr": _sha(err.getvalue()),
                        "output": _sha(written.read_text(encoding="utf-8"))
                        if written.exists()
                        else None,
                    }
                    written.unlink(missing_ok=True)
        finally:
            os.chdir(cwd)
    return digests


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(corpus_digest(), indent=1, sort_keys=True))
