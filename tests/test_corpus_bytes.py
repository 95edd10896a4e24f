"""Every benchmark corpus op prints and writes the bytes recorded in
``tests/data/corpus_digest.json``.

The file is written by ``python scripts/corpus_digest.py``; a change that
means to alter an output re-records it and says why.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORDED = ROOT / "tests" / "data" / "corpus_digest.json"


def _script():
    spec = importlib.util.spec_from_file_location(
        "corpus_digest", ROOT / "scripts" / "corpus_digest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_outputs_match_recorded_digests():
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))
    found = _script().corpus_digest()
    assert sorted(found) == sorted(recorded)
    changed = [op for op in recorded if found[op] != recorded[op]]
    assert not changed, f"{len(changed)} ops changed their output: {changed[:10]}"
