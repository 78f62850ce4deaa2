"""Do two results of the same commit agree within the benchmark's bounds?

    python bench/agree.py A.json B.json

Prints, per workload and end-to-end metric, the relative difference of B
against A beside the bound ``BENCHMARK.json`` fixes for it, and exits
non-zero if any pair is outside its bound. ``error_share`` has no bound
in the file: it may not rise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def relative_difference(a: float, b: float) -> float:
    """``|b - a|`` as a share of ``a`` (0 when both are 0)."""
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a else float("inf")


def compare(first: dict, second: dict, bounds: Dict[str, float]) -> List[Tuple[str, str, float, float, float, bool]]:
    """Rows of (workload, metric, a, b, difference, within bound)."""
    rows = []
    for workload, block in first["workloads"].items():
        other = second["workloads"].get(workload)
        if other is None:
            continue
        for name, bound in bounds.items():
            a = block["contract_metrics"][name]["value"]
            b = other["contract_metrics"][name]["value"]
            diff = relative_difference(a, b)
            rows.append((workload, name, a, b, diff, diff <= bound))
        a = block["metrics"]["error_share"]["value"]
        b = other["metrics"]["error_share"]["value"]
        rows.append((workload, "error_share", a, b, b - a, b <= a))
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (json.loads(Path(p).read_text()) for p in args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = compare(first, second, bounds)
    if not rows:
        print("error: the two results share no workload", file=sys.stderr)
        return 2
    print(f"{'workload':<16} {'metric':<18} {'A':>14} {'B':>14} {'diff':>8} {'bound':>7}")
    for workload, name, a, b, diff, ok in rows:
        bound = "no rise" if name == "error_share" else f"{bounds[name]:.0%}"
        flag = "" if ok else "  OUTSIDE"
        print(f"{workload:<16} {name:<18} {a:>14.4f} {b:>14.4f} {diff:>8.1%} {bound:>7}{flag}")
    outside = [row for row in rows if not row[5]]
    print(f"{len(rows) - len(outside)} of {len(rows)} pairs agree")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
