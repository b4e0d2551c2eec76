"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` replays the
same seeded workload with every layer wrapped and reports the per-layer
metrics.  Detail lines (provenance, the per-workload figures behind each
metric, the EBS probe) come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 1 when any answer is wrong or any operation failed,
2 when the checkout holds no program to benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import catalog, common  # noqa: E402


def run_workload(workload: str, seed: int, seconds: float, trace: bool, **options) -> dict:
    """Run one workload; returns attempted/failed/metrics/detail."""
    common.ensure_source()
    if workload == "offline-scale":
        from perfbench import offline

        return offline.run(workload, seed, seconds, trace, **options)
    from perfbench import serve

    return serve.run(workload, seed, seconds, trace, **options)


def result_line(result: dict, trace: bool) -> dict:
    """The final JSON object; ``correct`` needs every metric and no failure."""
    expected = catalog.PER_LAYER if trace else catalog.END_TO_END
    metrics = {}
    for name, unit in expected.items():
        value, reported_unit = result["metrics"][name]
        if reported_unit != unit or not math.isfinite(value):
            raise ValueError(f"metric {name}: {value!r} {reported_unit!r}, want unit {unit!r}")
        metrics[name] = {"value": float(value), "unit": unit}
    return {
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=catalog.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    try:
        common.ensure_source()
    except common.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    calibration = [common.host_calibration_ms()]
    result = run_workload(args.workload, args.seed, args.seconds, trace)
    calibration.append(common.host_calibration_ms())
    line = result_line(result, trace)
    document = {
        "provenance": {
            **common.provenance(args.workload, args.seed, args.seconds, trace),
            "host_calibration_ms": {"start": calibration[0], "end": calibration[1]},
        },
        **line,
        "detail": result["detail"],
    }
    common.OUT.mkdir(parents=True, exist_ok=True)
    suffix = "trace" if trace else "timed"
    (common.OUT / f"{args.workload}.{suffix}.json").write_text(json.dumps(document, indent=1))
    print(json.dumps({"provenance": document["provenance"]}))
    print(json.dumps({"detail": result["detail"]}))
    for name, metric in line["metrics"].items():
        print(f"{name:28s} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
