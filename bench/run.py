"""One command for the frozen end-to-end benchmark.

    python bench/run.py [--workload NAME] [--seed N] [--seconds S]
    python bench/run.py --trace [--workload NAME]     # the per-layer table
    python bench/run.py --regen-golden                # rewrite bench/golden/

Prints every metric by name and unit, checks the answers, writes
``bench/out/result.json``, and ends with one JSON line in the shape
``BENCHMARK.json`` promises. Exits non-zero on any wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the script's own directory comes off the path: the harness is the package
# ``bench``, so ``bench/trace.py`` can never shadow the standard ``trace``
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

DEFAULT_SEED = 11


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# The names BENCHMARK.json carries, per workload
# ----------------------------------------------------------------------
#: BENCHMARK.json wants one metric set for every workload, so its generic
#: end-to-end names map onto each workload's own metrics here;
#: (source metric, factor) with the factor converting the unit.
CONTRACT_SOURCES = {
    "query_wide": {
        "op_p50_ms": ("query_p50_ms", 1.0),
        "op_tail_ms": ("query_p75_ms", 1.0),
        "throughput_per_s": ("query_rps", 1.0),
    },
    "dashboard_poll": {
        "op_p50_ms": ("query_p50_ms", 1.0),
        "op_tail_ms": ("query_p90_ms", 1.0),
        "throughput_per_s": ("query_rps", 1.0),
    },
    "ingest_backfill": {
        "op_p50_ms": ("ingest_batch_p50_ms", 1.0),
        "op_tail_ms": ("dayclose_p50_ms", 1.0),
        "throughput_per_s": ("ingest_events_per_s", 1.0),
    },
    "build_cold": {
        "op_p50_ms": ("build_s", 1e3),
        "op_tail_ms": ("cold_start_s", 1e3),
        "throughput_per_s": ("build_w2_days_per_s", 1.0),
    },
}
SHARED_SOURCES = {
    "setup_s": ("setup_s", 1.0),
    "server_rss_mb": ("server_rss_mb", 1.0),
    "model_bytes": ("model_bytes", 1.0),
}


def contract_metrics(outcome, spec: dict) -> dict:
    sources = {**SHARED_SOURCES, **CONTRACT_SOURCES[outcome.workload]}
    metrics = {}
    for entry in spec["end_to_end"]:
        source, factor = sources[entry["name"]]
        value = outcome.metrics[source]["value"] * factor
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return metrics


# ----------------------------------------------------------------------
# Host provenance and run hygiene
# ----------------------------------------------------------------------
def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def host() -> dict:
    import numpy
    import scipy

    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "load1_at_start": load1,
        "noisy_host": load1 > 0.5 * nproc,
    }


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def print_outcome(outcome, generic: dict) -> None:
    print(f"\n== {outcome.workload}: {outcome.attempted} operations, {outcome.failed} failed")
    alias = {src: name for name, (src, _) in CONTRACT_SOURCES[outcome.workload].items()}
    for name, m in outcome.metrics.items():
        detail = f"n={m['n']}"
        if "samples_beyond" in m:
            detail += f", {m['samples_beyond']} beyond"
        if "runs" in m:
            detail += ", runs " + " ".join(f"{r:.3f}" for r in m["runs"])
        if name in alias:
            detail += f"  -> {alias[name]} = {generic[alias[name]]['value']:.4f} {generic[alias[name]]['unit']}"
        print(f"  {name:<22} {m['value']:>14.4f} {m['unit']:<6} ({detail})")
    for line in outcome.wrong[:10]:
        print(f"  WRONG ANSWER: {line}")
    for line in outcome.errors[:10]:
        print(f"  FAILED: {line}")


def print_layers(workload: str, metrics: dict, units: dict) -> None:
    print(f"\n== {workload}: per-layer table (0 = layer not entered by this workload)")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.4f} {units[name]}")


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default=None, help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed part of each workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", const=1, type=int, default=0, choices=(0, 1),
                        help="1: the traced run that produces the per-layer table")
    parser.add_argument("--regen-golden", action="store_true",
                        help="recompute bench/golden/ from this commit's answers")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print("error: bench/run.py needs the repository around it (src/repro, BENCHMARK.json)",
              file=sys.stderr)
        return 2

    from bench import e2e, layers
    from bench.loadgen import OUT, child_env

    spec = contract()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
    selected = [args.workload] if args.workload else names
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    OUT.mkdir(parents=True, exist_ok=True)
    # scratch files of library code run in this process (the traced parallel
    # build spills shard results) stay inside the checkout too
    os.environ["TMPDIR"] = str(child_env()["TMPDIR"])

    if args.regen_golden:
        from bench import golden

        golden.regenerate()
        return 0

    result = {
        "seed": args.seed,
        "seconds": seconds,
        "trace": bool(args.trace),
        "golden": True,
        "host": host(),
        "workloads": {},
    }
    line = None
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in selected:
            measured = layers.WORKLOADS[name](args.seed, seconds)
            metrics = {m["name"]: float(measured.get(m["name"], 0.0)) for m in spec["per_layer"]}
            unlisted = sorted(set(measured) - set(metrics))
            if unlisted:
                raise RuntimeError(f"layer metrics missing from BENCHMARK.json: {unlisted}")
            print_layers(name, metrics, units)
            result["workloads"][name] = {"per_layer": metrics}
            line = {
                "correct": True,
                "attempted": 1,
                "failed": 0,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        out_path = OUT / "result-trace.json"
    else:
        for name in selected:
            outcome = e2e.WORKLOADS[name](args.seed, seconds)
            generic = contract_metrics(outcome, spec)
            print_outcome(outcome, generic)
            result["workloads"][name] = {
                "metrics": outcome.metrics,
                "contract_metrics": generic,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "wrong_answers": outcome.wrong,
                "errors": outcome.errors,
                "notes": outcome.notes,
            }
            line = {
                "correct": not outcome.wrong,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": generic,
            }
        out_path = OUT / "result.json"
    out_path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nresult written to {out_path.relative_to(ROOT)}")

    wrong = any(w.get("wrong_answers") for w in result["workloads"].values())
    # the last line is the machine-readable result of the last workload run
    print(json.dumps(line))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
