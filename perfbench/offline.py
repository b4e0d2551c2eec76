"""The offline-scale workload: the library path, no HTTP, no WAL.

The benchmark process generates the columns from the seed and writes
them to a file; a separate solver process (``python -m perfbench.offline
<columns> <spec>``) receives only that file, so its peak RSS is Podium's
alone.  The solver builds the columnar index (the set-up), then runs a
single-thread closed loop cycling a plain matrix solve, a fair
floors/ceilings solve and a clustered (stratified, k=4) solve.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

from . import catalog, common, inputs
from .tracing import Tracer, self_seconds

OPS = ("plain", "fair", "clustered")


def cycle(sizes: inputs.Sizes) -> tuple[str, ...]:
    """One round of the closed loop: plain solves, then fair, then clustered."""
    return ("plain",) * sizes.plain_per_cycle + ("fair", "clustered")


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: inputs.Sizes = inputs.FULL, max_cycles: int | None = None) -> dict:
    workdir = common.WORK / f"{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        columns = inputs.offline_columns(sizes)
        path = workdir / "columns.npz"
        np.savez(
            path,
            user_ids=np.asarray(columns.user_ids, dtype=str),
            property_labels=np.asarray(columns.property_labels),
            user_col=columns.user_col,
            prop_col=columns.prop_col,
            score_col=columns.score_col,
        )
        del columns
        spec = {"seconds": seconds, "trace": trace, "max_cycles": max_cycles,
                "oracle_offset": inputs.oracle_offset(seed, sizes),
                "sizes": dataclasses.asdict(sizes),
                "spans": str(common.OUT / f"{workload}.spans.jsonl")}
        solver = subprocess.Popen(
            [sys.executable, "-m", "perfbench.offline", str(path), json.dumps(spec)],
            env=common.source_env(),
            cwd=common.ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            stdout, stderr = solver.communicate(timeout=170)
        except subprocess.TimeoutExpired:
            solver.kill()
            solver.communicate()
            raise
        if solver.returncode != 0:
            raise RuntimeError(f"solver failed ({solver.returncode}):\n{stderr[-3000:]}")
        result = json.loads(stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["metrics"] = {k: tuple(v) for k, v in result["metrics"].items()}
    return result


# -- solver process -------------------------------------------------------------


def _load_columns(path):
    from repro.core.columnar import ColumnarProfiles

    with np.load(path) as data:
        return ColumnarProfiles(
            user_ids=data["user_ids"].astype(object),
            property_labels=tuple(str(p) for p in data["property_labels"]),
            user_col=data["user_col"],
            prop_col=data["prop_col"],
            score_col=data["score_col"],
        )


def _specs(index):
    from repro.constraints import ClusterSpec, ConstraintSpec
    from repro.experiments.constraints import fair_bound_spec

    return (
        fair_bound_spec(index, 3, 2, 2, 1),
        ConstraintSpec.build(clusters=ClusterSpec("stratified", k=4)),
    )


def _solve(kind, index, budget, fair, clustered):
    """One op, through module attributes so traced wrappers are seen."""
    import repro.constraints
    import repro.core.greedy

    if kind == "plain":
        result = repro.core.greedy.select_from_index(index, budget, method="matrix")
        return tuple(result.selected), result.score, True
    spec = fair if kind == "fair" else clustered
    outcome = repro.constraints.constrained_select(index, spec, budget)
    return tuple(outcome.selected), outcome.result.score, outcome.satisfied


def _check(kind, answer, budget, index) -> str | None:
    selected, score, satisfied = answer
    if len(selected) != budget:
        return f"{kind}: {len(selected)} users selected for budget {budget}"
    if len(set(selected)) != len(selected):
        return f"{kind}: duplicate users in the selection"
    if not satisfied:
        return f"{kind}: constraints not satisfied"
    if index.subset_score(selected) != score:
        return f"{kind}: reported score {score} != recomputed {index.subset_score(selected)}"
    return None


def oracle_sample(columns, sizes: inputs.Sizes, offset: int) -> tuple[int, list[str]]:
    """Re-solve a sample of the population with the pure-Python oracles.

    ``oracle_users`` consecutive users from ``offset`` form a columnar
    instance; its plain, fair and clustered answers must equal the eager
    greedy, the fair oracle and the clustered oracle on the same
    instance's dict view.
    """
    import repro.constraints as rc
    from repro.core.columnar import ColumnarProfiles, build_columnar_instance
    from repro.core.greedy import greedy_select

    n = sizes.oracle_users
    keep = (columns.user_col >= offset) & (columns.user_col < offset + n)
    sample = ColumnarProfiles(
        user_ids=columns.user_ids[offset:offset + n],
        property_labels=columns.property_labels,
        user_col=columns.user_col[keep] - offset,
        prop_col=columns.prop_col[keep],
        score_col=columns.score_col[keep],
    )
    built = build_columnar_instance(sample, sizes.oracle_budget)
    index, budget = built.index, sizes.oracle_budget
    instance, repository = built.to_instance(), built.to_repository()
    fair, clustered = _specs(index)
    expected = {
        "plain": greedy_select(repository, instance, budget, method="eager"),
        "fair": rc.fair_select_oracle(instance, fair, budget),
        "clustered": rc.clustered_select_oracle(
            instance,
            [(label, [str(index.users[r]) for r in rows])
             for label, rows in rc.partition_rows(index, clustered.clusters)],
            budget,
        ),
    }
    mismatches = []
    for kind in OPS:
        selected, score, _ok = _solve(kind, index, budget, fair, clustered)
        want = expected[kind]
        want_selected, want_score = (
            (want.selected, want.score) if kind == "plain" else (want[0], want[2])
        )
        if list(selected) != list(want_selected) or score != want_score:
            mismatches.append(
                f"oracle sample {kind}: {list(selected)} / {score} != "
                f"{list(want_selected)} / {want_score}"
            )
    return len(OPS), mismatches


def _loop(index, budget, fair, clustered, seconds, reference, max_cycles,
          order: tuple[str, ...], tracer: Tracer | None):
    """Cycle the ops in ``order`` until ``seconds`` pass; per-op timings.

    With a tracer, odd cycles are traced and even cycles are not, so both
    see the same host conditions; their timings come back separately.
    """
    timings = {kind: [] for kind in OPS}
    untraced = {kind: [] for kind in OPS}
    failures = []
    satisfied = constrained = 0
    cycles = 0
    started = time.perf_counter()
    cpu_started = time.process_time()
    while True:
        if max_cycles is not None:
            if cycles >= max_cycles:
                break
        elif time.perf_counter() - started >= seconds:
            break
        traced = tracer is not None and cycles % 2 == 1
        if tracer is not None:
            tracer.enabled = traced
        into = timings if traced or tracer is None else untraced
        for kind in order:
            op_started = time.perf_counter()
            if traced:
                with tracer.span(f"op.{kind}", request_id=f"{kind}-{cycles}"):
                    answer = _solve(kind, index, budget, fair, clustered)
            else:
                answer = _solve(kind, index, budget, fair, clustered)
            into[kind].append(time.perf_counter() - op_started)
            if kind != "plain":
                constrained += 1
                satisfied += bool(answer[2])
            if answer[:2] != reference[kind][:2]:
                failures.append(f"{kind} cycle {cycles}: answer changed between runs")
        cycles += 1
    if tracer is not None:
        tracer.enabled = False
    elapsed = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    return timings, untraced, failures, elapsed, cpu, satisfied / max(constrained, 1)


def solver_main(path: str, spec: dict) -> dict:
    common.ensure_source()
    import repro.core.columnar

    sizes = inputs.Sizes(**{k: tuple(v) if isinstance(v, list) else v
                            for k, v in spec["sizes"].items()})
    budget = sizes.offline_budget
    columns = _load_columns(path)
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
        tracer.enabled = True
    builds = []
    for _ in range(sizes.offline_builds):
        started = time.perf_counter()
        built = repro.core.columnar.build_columnar_instance(columns, budget)
        builds.append(time.perf_counter() - started)
    index = built.index
    fair, clustered = _specs(index)
    if tracer is not None:
        tracer.enabled = False
    reference = {kind: _solve(kind, index, budget, fair, clustered) for kind in OPS}
    failures = [p for kind in OPS if (p := _check(kind, reference[kind], budget, index))]

    timings, untraced, loop_failures, elapsed, cpu, satisfied = _loop(
        index, budget, fair, clustered, spec["seconds"], reference,
        spec["max_cycles"], cycle(sizes), tracer)
    failures += loop_failures
    if tracer is not None:
        tracer.uninstall()
    checked, mismatches = oracle_sample(columns, sizes, spec["oracle_offset"])
    failures += mismatches
    rss = common.proc_hwm_mb(os.getpid())

    ops = sum(len(t) for t in timings.values()) + sum(len(t) for t in untraced.values())
    attempted = ops + checked + len(OPS)
    ms = {kind: [t * 1e3 for t in timings[kind]] for kind in OPS}
    setup_s = common.percentile(builds, 50)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            # p90 and p95, not p50 and p99: on a shared host a faster CPU
            # mode comes and goes within a run, and the median flips
            # between the modes from run to run while the p90 stays in the
            # common one; the p99 catches the host's one-second stalls.
            "select_ms": (common.percentile(ms["plain"], 90), "ms"),
            "select_tail_ms": (common.percentile(ms["plain"], 95), "ms"),
            "second_ms": (common.percentile(ms["clustered"], 90), "ms"),
            "rss_mb": (rss, "MiB"),
        }
    else:
        tracer.dump(spec["spans"])
        metrics = offline_layers(tracer, untraced, cpu, ops, satisfied)
    n = {kind: len(ms[kind]) for kind in OPS}
    detail = {
        "samples": {kind: n[kind] for kind in OPS},
        "named_metrics": {
            "setup_s": setup_s,
            "setup_builds_s": builds,
            "solve_p50_ms": common.percentile(ms["plain"], 50),
            "solve_p90_ms": common.percentile(ms["plain"], 90),
            "solve_p95_ms": common.percentile(ms["plain"], 95),
            "fair_p50_ms": common.percentile(ms["fair"], 50),
            "fair_p90_ms": common.percentile(ms["fair"], 90),
            "clustered_p50_ms": common.percentile(ms["clustered"], 50),
            "clustered_p90_ms": common.percentile(ms["clustered"], 90),
            "solves_per_s": ops / elapsed,
            "failed_ratio": len(failures) / attempted,
            "rss_mb": rss,
        },
        "beyond_p90": {kind: common.beyond(n[kind], 90) for kind in OPS},
        "beyond_p95": {kind: common.beyond(n[kind], 95) for kind in OPS},
        "proc.cpu_ms_per_select": cpu * 1e3 / max(ops, 1),
        "failures": failures[:20],
    }
    return {"attempted": attempted, "failed": len(failures),
            "metrics": metrics, "detail": detail}


def offline_layers(tracer: Tracer, untraced: dict, cpu: float, ops: int,
                   satisfied: float) -> dict:
    """Per-layer metrics of a traced offline loop; serving layers read 0."""
    spans = tracer.spans
    own = self_seconds(spans)

    def mean_ms(name):
        return common.mean([s.seconds for s in spans if s.name == name]) * 1e3

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    roots = [s for s in spans if s.name.startswith("op.")]
    traced_op_ms = common.mean([s.seconds for s in roots]) * 1e3
    untraced_op_ms = common.mean([t for kind in OPS for t in untraced[kind]]) * 1e3
    builds = [s.seconds for s in spans if s.name == "columnar.build"]
    layers = {name: (0.0, unit) for name, unit in catalog.PER_LAYER.items()}
    layers.update({
        "proc.cpu_ms_per_select": (cpu * 1e3 / max(ops, 1), "ms"),
        "columnar.build_s": (common.percentile(builds, 50), "s"),
        "index.build_calls": (calls("index.build"), "count"),
        "greedy.index_calls": (calls("greedy.index"), "count"),
        "greedy.index_ms": (mean_ms("greedy.index"), "ms"),
        "constraints.fair_ms": (mean_ms("constraints.fair"), "ms"),
        "constraints.clustered_ms": (mean_ms("constraints.clustered"), "ms"),
        "constraints.partition_ms": (mean_ms("constraints.partition"), "ms"),
        "constraints.satisfied_ratio": (satisfied, "1"),
        "trace.select_ms": (traced_op_ms, "ms"),
        "trace.unattributed_ms": (common.mean([own[s.span_id] for s in roots]) * 1e3, "ms"),
        "trace.overhead_ms": (traced_op_ms - untraced_op_ms, "ms"),
    })
    return layers


if __name__ == "__main__":
    print(json.dumps(solver_main(sys.argv[1], json.loads(sys.argv[2]))))
