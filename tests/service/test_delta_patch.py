"""The service's delta path patches cached indexes instead of rebuilding.

``POST /profiles/delta`` reassigns each cached configuration's frozen
buckets and splices its cached index once, sharing the membership
arrays across budgets.  These tests pin that no delta re-encodes an
index, that every served body equals the one a freshly built index of
the same instance would produce, and that plain selections routed to
the repository-wide greedy, and feedback selections off the dense-row
path, are counted on ``GET /metrics``.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.constraints import (
    clustered_select_oracle,
    fair_select_oracle,
    partition_rows,
)
from repro.core.index import InstanceIndex, cached_index
from repro.datasets.synth import generate_profile_repository
from repro.service import (
    DiversificationConfiguration,
    PodiumService,
    make_wsgi_app,
    parse_constraints,
)
from repro.service.workers import SharedPoolState, _SharedSlotMetrics

CONFIGS = (
    DiversificationConfiguration(name="lbs-prop", coverage_scheme="Prop"),
    DiversificationConfiguration(name="iden-single", weight_scheme="Iden"),
    DiversificationConfiguration(
        name="prefix", property_prefixes=("prop00001", "prop00003")
    ),
)
BUDGETS = (3, 5)

#: Rescores, inserts, removals, a multi-user delta and a user whose only
#: property is unknown (that user joins no group).
DELTAS = (
    {"upserts": {"u000003": {"prop00001": 0.9, "prop00007": 0.2}}},
    {"upserts": {"zz-new": {"prop00002": 0.5, "prop00004": 0.7}}},
    {"removals": ["u000010"]},
    {"upserts": {"novel": {"never-seen": 0.5}}},
    {
        "upserts": {
            "u000001": {"prop00000": 0.1},
            "aa-new": {"prop00003": 0.4, "prop00005": 1.0},
        },
        "removals": ["u000020", "u000021"],
    },
    {"upserts": {"u000004": {}}},
)


def raw_client(service):
    """``call(method, path, body)`` → (status, raw response bytes)."""
    app = make_wsgi_app(service)

    def call(method, path, body=None):
        payload = json.dumps(body or {}).encode()
        environ = {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "QUERY_STRING": "",
            "CONTENT_LENGTH": str(len(payload)),
            "wsgi.input": io.BytesIO(payload),
        }
        status = []

        def start_response(line, headers):
            status.append(int(line.split()[0]))

        raw = b"".join(app(environ, start_response))
        return status[0], raw

    return call


def largest_keys(service, name):
    """The keys of the configuration's two largest groups."""
    largest = sorted(
        service.groups_for(name),
        key=lambda g: (-g.size, str(g.key)),
    )
    return [
        [g.key.property_label, g.key.bucket_label] for g in largest[:2]
    ]


def requests_for(service, name, budget):
    first, second = largest_keys(service, name)
    base = {"configuration": name, "budget": budget}
    return [
        base,
        {**base, "explain": False},
        {**base, "feedback": {"priority": [first], "must_not": [second]}},
        {
            **base,
            "constraints": {
                "floors": [[*first, 1]],
                "ceilings": [[*second, 0]],
            },
        },
        {**base, "constraints": {"clusters": {"method": "stratified"}}},
        {
            **base,
            "constraints": {"clusters": {"method": "kmeans", "k": 2}},
        },
    ]


def boot():
    service = PodiumService(
        generate_profile_repository(
            n_users=60, n_properties=8, mean_profile_size=4.0, seed=11
        )
    )
    for config in CONFIGS:
        service.configurations.put(config)
    return service


def served_bodies(service):
    """Every (config, budget, request) body, after each delta in turn."""
    call = raw_client(service)
    requests = [
        request
        for name in ["default", *(c.name for c in CONFIGS)]
        for budget in BUDGETS
        for request in requests_for(service, name, budget)
    ]
    bodies = []
    for delta in (None, *DELTAS):
        if delta is not None:
            status, raw = call("POST", "/profiles/delta", delta)
            assert status == 200, raw
        for request in requests:
            bodies.append(call("POST", "/select", request))
    return bodies


def test_delta_path_never_rebuilds_an_index(monkeypatch):
    service = boot()
    call = raw_client(service)
    for name in ["default", *(c.name for c in CONFIGS)]:
        for budget in BUDGETS:
            assert call(
                "POST", "/select", {"configuration": name, "budget": budget}
            )[0] == 200

    def refuse(cls, instance):
        raise AssertionError("a delta re-encoded a cached index")

    monkeypatch.setattr(InstanceIndex, "build", classmethod(refuse))
    for delta in DELTAS:
        status, raw = call("POST", "/profiles/delta", delta)
        assert status == 200, raw
    monkeypatch.undo()
    for name in ["default", *(c.name for c in CONFIGS)]:
        arrays = set()
        for budget in BUDGETS:
            index = cached_index(service.instance_for(name, budget))
            assert index is not None
            index.validate()
            arrays.add(id(index.g_indices))
        # One splice per configuration: the budgets share membership.
        assert len(arrays) == 1


def test_select_bodies_match_freshly_built_indexes(monkeypatch):
    patched = served_bodies(boot())

    def rebuild(self, groups, touched, instance):
        return InstanceIndex.build(instance)

    def reweight(self, instance):
        return InstanceIndex.build(instance)

    monkeypatch.setattr(InstanceIndex, "patched", rebuild)
    monkeypatch.setattr(InstanceIndex, "reweighted", reweight)
    rebuilt = served_bodies(boot())
    assert len(patched) == len(rebuilt)
    for got, want in zip(patched, rebuilt):
        assert got == want


class TestFallbackCounter:
    def test_fallback_counted_after_an_ungrouped_user(self):
        service = boot()
        call = raw_client(service)

        def fallbacks():
            _, raw = call("GET", "/metrics")
            return json.loads(raw)["selection"]["fallback"]

        call("POST", "/select", {"configuration": "default"})
        assert fallbacks() == 0
        call(
            "POST",
            "/profiles/delta",
            {"upserts": {"novel": {"never-seen": 0.5}}},
        )
        call("POST", "/select", {"configuration": "default"})
        call("POST", "/select", {"configuration": "default"})
        assert fallbacks() == 2

    def test_worker_slot_mirrors_the_counter(self):
        shared = SharedPoolState(2)
        metrics = _SharedSlotMetrics(shared, 1)
        metrics.observe_fallback()
        metrics.observe_custom_fallback()
        assert shared.counter_row(1)["selection_fallbacks"] == 1
        assert shared.counter_row(1)["customization_fallbacks"] == 1
        assert metrics.snapshot()["selection"]["fallback"] == 1
        assert metrics.snapshot()["customization"]["fallback"] == 1


class TestCustomizationFallbackCounter:
    """Feedback selections off the dense-row path are counted."""

    @staticmethod
    def feedback_request(service, name):
        key = service.instance_for(name, 4).groups.keys[0]
        return {
            "configuration": name,
            "budget": 4,
            "feedback": {"priority": [[key.property_label, key.bucket_label]]},
        }

    @staticmethod
    def fallbacks(call):
        _, raw = call("GET", "/metrics")
        return json.loads(raw)["customization"]["fallback"]

    def test_dense_rows_are_not_a_fallback(self):
        service = boot()
        call = raw_client(service)
        status, raw = call(
            "POST", "/select", self.feedback_request(service, "default")
        )
        assert status == 200, raw
        assert self.fallbacks(call) == 0

    def test_ebs_configuration_takes_the_exact_path(self):
        service = boot()
        call = raw_client(service)
        status, raw = call(
            "POST", "/configurations", {"name": "ebs", "weight_scheme": "EBS"}
        )
        assert status == 201, raw
        request = self.feedback_request(service, "ebs")
        for _ in range(2):
            status, raw = call("POST", "/select", request)
            assert status == 200, raw
        assert self.fallbacks(call) == 2

    def test_user_in_no_group_takes_the_id_pool(self):
        service = boot()
        call = raw_client(service)
        request = self.feedback_request(service, "default")
        before = json.loads(call("POST", "/select", request)[1])
        assert self.fallbacks(call) == 0
        call(
            "POST",
            "/profiles/delta",
            {"upserts": {"novel": {"never-seen": 0.5}}},
        )
        status, raw = call("POST", "/select", request)
        assert status == 200, raw
        after = json.loads(raw)
        # The ungrouped user joins the pool but adds no group.
        assert after["refined_pool_size"] == before["refined_pool_size"] + 1
        assert self.fallbacks(call) == 1


@pytest.mark.parametrize("name", ["default", "lbs-prop"])
def test_constrained_select_serves_after_an_ungrouped_user(name):
    service = boot()
    call = raw_client(service)
    constrained = requests_for(service, name, 4)[3:]
    for request in constrained:  # cache the frozen buckets first
        assert call("POST", "/select", request)[0] == 200
    call(
        "POST",
        "/profiles/delta",
        {"upserts": {"novel": {"never-seen": 0.5}}},
    )
    assert "novel" not in cached_index(service.instance_for(name, 4)).user_pos
    instance = service.instance_for(name, 4)
    index = cached_index(instance)
    for request in constrained:
        status, raw = call("POST", "/select", request)
        assert status == 200, raw
        body = json.loads(raw)
        # The solvers draw from grouped users only, like their oracles.
        spec = parse_constraints(request["constraints"])
        if spec.clusters is None:
            want, _gains, _score = fair_select_oracle(instance, spec, 4)
        else:
            partition = [
                (label, [index.users[r] for r in rows])
                for label, rows in partition_rows(index, spec.clusters)
            ]
            want, _gains, _score = clustered_select_oracle(
                instance, partition, 4
            )
        assert body["selected"] == list(want)
