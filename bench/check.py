"""Answer checking: response digests, golden files, file hashes.

A digest keeps what identifies an answer and drops what legitimately
varies: cluster ids (a server mints fresh ids per query), timings and the
request id. Severities are compared to six significant digits so a golden
file written on one CPU checks a run on another.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Mapping

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Relative tolerance on severities: six significant digits.
SEVERITY_REL_TOL = 5e-7


def digest(doc: Mapping[str, object]) -> Dict[str, object]:
    """What a ``/query`` response must reproduce: how many clusters came
    back and, for each reported one, severity, sensor count, worst sensor
    and start/peak window labels."""
    return {
        "returned": doc["returned"],
        "clusters": [
            [c["severity"], c["num_sensors"], c["worst_sensor"], c["start_label"], c["peak_label"]]
            for c in doc["clusters"]
        ],
    }


def matches(expected: Mapping[str, object], got: Mapping[str, object]) -> bool:
    """True when two digests agree (severities within the tolerance)."""
    if expected["returned"] != got["returned"]:
        return False
    if len(expected["clusters"]) != len(got["clusters"]):
        return False
    for want, have in zip(expected["clusters"], got["clusters"]):
        if list(want[1:]) != list(have[1:]):
            return False
        if not math.isclose(want[0], have[0], rel_tol=SEVERITY_REL_TOL, abs_tol=0.0):
            return False
    return True


def load_golden(workload: str) -> Dict[str, Dict[str, object]]:
    return json.loads((GOLDEN_DIR / f"{workload}.json").read_text())


def save_golden(workload: str, answers: Mapping[str, Mapping[str, object]]) -> Path:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    path = GOLDEN_DIR / f"{workload}.json"
    lines = [f"  {json.dumps(key)}: {json.dumps(answers[key])}" for key in sorted(answers)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return path


def wrong_answers(golden: Mapping[str, Mapping[str, object]], samples: Iterable) -> List[str]:
    """Keys of the successful samples whose body disagrees with golden."""
    wrong: List[str] = []
    for sample in samples:
        if not sample.ok:
            continue
        expected = golden.get(sample.key)
        try:
            good = expected is not None and matches(expected, digest(sample.doc))
        except (KeyError, TypeError, IndexError):
            good = False
        if not good:
            wrong.append(sample.key)
    return wrong


def sha256_file(path: Path) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def dir_bytes(directory: Path) -> int:
    """Total size of the regular files directly in ``directory``."""
    return sum(p.stat().st_size for p in Path(directory).iterdir() if p.is_file())
