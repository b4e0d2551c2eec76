"""Self-tests of the benchmark at tiny sizes.

    PYTHONPATH=src python -m pytest perfbench -q

They check the benchmark, not the program: every metric is emitted with
its unit, the oracle catches a corrupted answer, span arithmetic holds,
and the counts the traced run reports repeat exactly.
"""

from __future__ import annotations

import json
import shutil

import pytest

from perfbench import catalog, common, inputs
from perfbench.run import result_line, run_workload
from perfbench.tracing import Span, self_seconds

TINY = inputs.Sizes(
    users=150,
    n_properties=30,
    mean_profile=6.0,
    budgets=(4, 6),
    setup_passes=1,
    delta_rate=20.0,
    offline_users=3000,
    offline_properties=20,
    offline_mean=4.0,
    offline_budget=8,
    offline_builds=1,
    oracle_users=300,
    oracle_budget=6,
    plain_per_cycle=2,
)

#: Counts that depend only on the requests sent, not on timing.  On
#: serve-ingest, how many plain selects land before the first ungrouped
#: user (index path) or after it (fallback) depends on timing.
_COUNTS = (
    "groups.build_calls",
    "custom.calls",
    "cache.hits",
    "cache.misses",
    "index.build_calls",
    "updates.reassign_calls",
    "updates.rebuild_calls",
    "wal.appends",
)
DETERMINISTIC = {
    "serve-read": _COUNTS + ("greedy.index_calls", "greedy.fallback_calls"),
    "serve-ingest": _COUNTS,
    "offline-scale": _COUNTS + ("greedy.index_calls",),
}


def _bounded(workload: str) -> dict:
    """Options that bound a run by operation count instead of the clock."""
    if workload == "offline-scale":
        return {"max_cycles": 3}
    return {"max_ops": 120, "n_deltas": 6 if workload == "serve-ingest" else 0}


def _spans(workload: str) -> list[Span]:
    path = common.OUT / f"{workload}.spans.jsonl"
    with open(path, encoding="utf-8") as handle:
        return [Span(**json.loads(line)) for line in handle]


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of each workload with the same seed."""
    runs = {}
    for workload in catalog.WORKLOADS:
        first = run_workload(workload, 5, 1.0, True, sizes=TINY, **_bounded(workload))
        spans = _spans(workload)
        second = run_workload(workload, 5, 1.0, True, sizes=TINY, **_bounded(workload))
        runs[workload] = (first, second, spans)
    return runs


def test_benchmark_json_lists_the_catalog():
    document = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in document["end_to_end"]} == catalog.END_TO_END
    assert {m["name"]: m["unit"] for m in document["per_layer"]} == catalog.PER_LAYER
    assert [w["name"] for w in document["workloads"]] == list(catalog.WORKLOADS)


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_timed_run_emits_every_end_to_end_metric(workload):
    result = run_workload(workload, 3, 1.5, False, sizes=TINY)
    line = result_line(result, trace=False)
    assert line["correct"], result["detail"]["failures"]
    assert set(line["metrics"]) == set(catalog.END_TO_END)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == catalog.END_TO_END[name]
        assert metric["value"] > 0, name
    if workload != "offline-scale":
        assert "ebs_select" in result["detail"]["known_failures"]


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(traced, workload):
    first, _second, _spans = traced[workload]
    line = result_line(first, trace=True)
    assert line["correct"], first["detail"]["failures"]
    assert set(line["metrics"]) == set(catalog.PER_LAYER)


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_deterministic_counts_repeat(traced, workload):
    first, second, _spans = traced[workload]
    for name in DETERMINISTIC[workload]:
        assert first["metrics"][name] == second["metrics"][name], name


def test_serve_read_steady_state_builds_nothing_and_never_falls_back(traced):
    metrics = traced["serve-read"][0]["metrics"]
    assert metrics["groups.build_calls"][0] == 0
    assert metrics["cache.misses"][0] == 0
    assert metrics["greedy.fallback_ratio"][0] == 0
    assert metrics["greedy.index_calls"][0] > 0


def test_serve_ingest_logs_and_regroups_every_delta(traced):
    metrics = traced["serve-ingest"][0]["metrics"]
    assert metrics["wal.appends"][0] == 6
    assert metrics["updates.reassign_calls"][0] > 0


def test_plain_selects_fall_back_after_a_new_property():
    """After the first new-property delta every plain select takes the fallback."""
    from perfbench import serve
    from perfbench.tracing import Tracer

    common.ensure_source()
    data = serve.make_inputs(5, TINY, 4, ingest=True)
    assert data.deltas[3][0] == "new_property"
    workdir = common.WORK / "selftest-fallback"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    target = serve.WsgiTarget(workdir, data.repository)
    tracer = Tracer()
    try:
        serve.register_configs(target)
        serve.cold_pass(target, TINY, rebuild=False)
        before = target.metrics()
        tracer.install()
        tracer.enabled = True
        plain = serve.drive(target, data, 0, False, TINY.delta_rate, tracer=tracer, max_ops=40)
        for _kind, body in data.deltas:
            assert target.call("POST", "/profiles/delta", body)[0] == 200
        fallback = serve.drive(target, data, 0, False, TINY.delta_rate, tracer=tracer, max_ops=40)
        after = target.metrics()
    finally:
        tracer.uninstall()
        target.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    assert serve.serve_layers(tracer.spans, plain, before, after, 0)["greedy.fallback_ratio"][0] == 0
    assert serve.serve_layers(tracer.spans, fallback, before, after, 0)["greedy.fallback_ratio"][0] == 1


def test_child_self_time_never_exceeds_parent(traced):
    for workload in catalog.WORKLOADS:
        spans = traced[workload][2]
        assert spans, workload
        by_id = {s.span_id: s for s in spans}
        own = self_seconds(spans)
        for span in spans:
            assert own[span.span_id] >= -1e-9
            parent = by_id.get(span.parent_id)
            if parent is not None:
                assert own[span.span_id] <= parent.seconds
                assert parent.start <= span.start and span.end <= parent.end
                assert span.request_id == parent.request_id


def test_oracle_flags_a_corrupted_selection():
    from perfbench import oracle

    common.ensure_source()
    repository = inputs.serve_population(TINY)
    mirror = oracle.Mirror(repository, inputs.config_objects())
    selected, score = mirror.expected("default", 4)
    assert oracle.compare("ok", (selected, score), (selected, score)) is None
    outsider = next(p.user_id for p in repository if p.user_id not in selected)
    corrupted = [outsider] + selected[1:]
    assert oracle.compare("bad", (corrupted, score), (selected, score))
    assert oracle.compare("bad", (selected, score + 1), (selected, score))
    assert oracle.compare("bad", (selected[::-1], score), (selected, score))
    body = {"selected": selected[:3] + selected[:1]}
    assert "duplicate" in oracle.check_response("plain", 4, 200, body)
    assert oracle.check_response("plain", 5, 200, {"selected": selected})
    assert oracle.check_response("fair", 4, 200, {"selected": selected,
                                                 "constraints": {"satisfied": False}})
    assert oracle.check_response("plain", 4, 500, None) == "status 500"


def test_mirror_follows_the_served_state_through_deltas():
    """After every delta kind, served answers still equal the oracle's."""
    from perfbench import serve

    common.ensure_source()
    data = serve.make_inputs(9, TINY, 6, ingest=True)
    workdir = common.WORK / "selftest-mirror"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    target = serve.WsgiTarget(workdir, data.repository)
    try:
        serve.register_configs(target)
        # Cached artifacts freeze their buckets; deltas then reassign.
        serve.cold_pass(target, TINY, rebuild=False)
        for _kind, body in data.deltas:
            assert target.call("POST", "/profiles/delta", body)[0] == 200
            data.mirror.apply(body)
        checked, mismatches = serve.oracle_pass(target, data, TINY, ("plain",))
    finally:
        target.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    assert {kind for kind, _body in data.deltas} >= {"new_property"}
    assert checked == len(inputs.CONFIG_NAMES) * len(TINY.budgets)
    assert mismatches == []
