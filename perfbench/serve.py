"""The serve-read and serve-ingest workloads.

Untraced runs drive a fresh ``repro serve --workers 1 --data-dir <fresh>``
subprocess over loopback from this single generator process, with two
connections.  Traced runs add a short untraced HTTP phase (for the HTTP
overhead and server CPU figures) and then replay the same mix in-process
through ``make_wsgi_app(PodiumService(...))`` with every layer wrapped.
"""

from __future__ import annotations

import io
import json
import math
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import common, inputs, oracle
from .tracing import Tracer, self_seconds, window


@dataclass
class Inputs:
    """Everything generated from the seed before the program starts."""

    repository: object
    mirror: oracle.Mirror
    blocks: dict
    mix: list
    deltas: list


def make_inputs(seed: int, sizes: inputs.Sizes, n_deltas: int, ingest: bool) -> Inputs:
    from repro.core.index import instance_index

    repository = inputs.serve_population(sizes)
    mirror = oracle.Mirror(repository, inputs.config_objects())
    blocks = {
        name: inputs.request_blocks(
            instance_index(mirror.instance(name, sizes.budgets[0]))
        )
        for name in inputs.CONFIG_NAMES
    }
    return Inputs(
        repository=repository,
        mirror=mirror,
        blocks=blocks,
        mix=inputs.request_mix(
            seed, sizes, blocks,
            inputs.INGEST_COUNTS if ingest else inputs.MIX_COUNTS,
        ),
        deltas=inputs.delta_stream(
            seed,
            [profile.user_id for profile in repository],
            n_deltas,
            sizes.n_properties,
        ),
    )


# -- transports -----------------------------------------------------------------


class HttpTarget:
    """A ``repro serve`` subprocess reached over loopback."""

    def __init__(self, workdir: Path, repository) -> None:
        from repro.datasets.io import save_profiles

        profiles = workdir / "profiles.json"
        save_profiles(repository, profiles)
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--profiles", str(profiles),
                "--data-dir", str(workdir / "data"),
                "--port", "0", "--workers", "1", "--log-level", "warning",
            ],
            env=common.source_env(),
            cwd=workdir,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self.process.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", line)
        if not match:
            self.stop()
            raise RuntimeError(f"server printed no address: {line!r}")
        self.port = int(match.group(1))
        if not common.wait_until(self._healthy, 60):
            self.stop()
            raise RuntimeError("server never answered /health")
        self.boot_seconds = time.perf_counter() - started

    def _healthy(self) -> bool:
        try:
            return common.http_call(self.port, "GET", "/health", timeout=5)[0] == 200
        except OSError:
            return False

    def call(self, method: str, path: str, body=None) -> tuple[int, bytes]:
        return common.http_call(self.port, method, path, body)

    def metrics(self) -> dict:
        return common.http_json(self.port, "GET", "/metrics")

    def cpu_seconds(self) -> float:
        return common.proc_cpu_seconds(self.process.pid)

    def rss_mb(self) -> float:
        return common.proc_hwm_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class WsgiTarget:
    """``make_wsgi_app(PodiumService(...))`` called with WSGI environs."""

    def __init__(self, workdir: Path, repository) -> None:
        from repro.service.app import PodiumService, make_wsgi_app
        from repro.storage import DurableRepositoryStore

        self.store = DurableRepositoryStore(workdir / "inproc-data")
        self.service = PodiumService(store=self.store)
        self.service.load_repository(repository)
        self.app = make_wsgi_app(self.service)

    def call(self, method: str, path: str, body=None) -> tuple[int, bytes]:
        raw = b"" if body is None else json.dumps(body).encode()
        environ = {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "QUERY_STRING": "",
            "CONTENT_LENGTH": str(len(raw)),
            "wsgi.input": io.BytesIO(raw),
        }
        status: list[str] = []
        chunks = self.app(environ, lambda line, headers: status.append(line))
        return int(status[0].split()[0]), b"".join(chunks)

    def metrics(self) -> dict:
        return self.service.metrics_snapshot()

    def stop(self) -> None:
        self.store.close()


# -- phases -----------------------------------------------------------------------


def register_configs(target) -> None:
    for document in inputs.EXTRA_CONFIGS:
        status, raw = target.call("POST", "/configurations", document)
        if status != 201:
            raise RuntimeError(f"configuration rejected: {status} {raw[:200]!r}")


def cold_pass(target, sizes: inputs.Sizes, rebuild: bool) -> float:
    """First ``/select`` of every (config, budget); returns its seconds.

    With ``rebuild`` the four configurations are first re-put unchanged,
    which drops their cached artifacts, so the pass is cold again.
    """
    if rebuild:
        status, raw = target.call("GET", "/configurations")
        for document in json.loads(raw):
            if document["name"] in inputs.CONFIG_NAMES:
                target.call("POST", "/configurations", document)
    started = time.perf_counter()
    for name in inputs.CONFIG_NAMES:
        for budget in sizes.budgets:
            status, raw = target.call(
                "POST", "/select",
                {"configuration": name, "budget": budget, "explain": False},
            )
            if status != 200:
                raise RuntimeError(f"cold select {name}@{budget}: {status} {raw[:200]!r}")
    return time.perf_counter() - started


def oracle_pass(target, data: Inputs, sizes: inputs.Sizes,
                kinds=("plain", "fair")) -> tuple[int, list[str]]:
    """Served answers vs the oracle, every (config, budget) and kind."""
    attempted, mismatches = 0, []
    for name in inputs.CONFIG_NAMES:
        for budget in sizes.budgets:
            for kind in kinds:
                body = {"configuration": name, "budget": budget, "explain": False}
                if kind == "fair":
                    body["constraints"] = data.blocks[name]["fair"]
                    expected = data.mirror.expected_fair(name, budget, body["constraints"])
                else:
                    expected = data.mirror.expected(name, budget)
                attempted += 1
                status, raw = target.call("POST", "/select", body)
                if status != 200:
                    mismatches.append(f"{kind} {name}@{budget}: status {status}")
                    continue
                payload = json.loads(raw)
                problem = oracle.compare(
                    f"{kind} {name}@{budget}",
                    (payload["selected"], payload["score"]),
                    expected,
                )
                if problem:
                    mismatches.append(problem)
    return attempted, mismatches


def _probe(target, body: dict) -> dict:
    status, raw = target.call("POST", "/select", body)
    try:
        error = json.loads(raw).get("error")
    except ValueError:
        error = raw[:200].decode(errors="replace")
    return {"status": status, "error": error, "fails": status != 200}


def ebs_probe(target) -> dict:
    """One EBS ``/select``: a known failure, reported and never gating.

    EBS weights are ``(B+1)^ord(G)``; with ~325 groups the exact score
    overflows ``float`` in the response and the route answers 500.
    """
    target.call("POST", "/configurations", inputs.EBS_CONFIG)
    return _probe(target, {"configuration": inputs.EBS_CONFIG["name"], "explain": False})


def constrained_probe(target, data: Inputs, sizes: inputs.Sizes) -> dict:
    """One fair ``/select`` after the deltas: a known failure on serve-ingest.

    Once any user sits in no group, the service refuses every constrained
    selection with a 400 that blames the weights.
    """
    name = inputs.CONFIG_NAMES[0]
    return _probe(target, {"configuration": name, "budget": sizes.budgets[0],
                           "explain": False, "constraints": data.blocks[name]["fair"]})


@dataclass
class Load:
    """What one timed window observed, per request."""

    started: float = 0.0
    ended: float = 0.0
    selects: list = field(default_factory=list)  # (kind, seconds, bytes)
    deltas: list = field(default_factory=list)  # (seconds from due, late)
    acked: list = field(default_factory=list)  # delta bodies, in order
    errors: list = field(default_factory=list)
    constrained: int = 0  # fair responses received
    satisfied: int = 0  # ... of which reported every bound satisfied


def drive(target, data: Inputs, seconds: float, ingest: bool, rate: float,
          tracer: Tracer | None = None, max_ops: int | None = None) -> Load:
    """Run the timed window: two connections, closed-loop reads.

    serve-read runs the read mix on both connections; serve-ingest runs
    it on one and sends the delta stream open-loop on the other, timing
    each delta from its scheduled send time.  ``max_ops`` bounds the
    reads instead of the clock (the self-tests use it for exact counts).
    """
    load = Load()
    lock = threading.Lock()
    readers = 1 if ingest else 2
    load.started = time.perf_counter()
    deadline = load.started + seconds

    def call(method, path, body, request_id):
        if tracer is None:
            return target.call(method, path, body)
        with tracer.span("request", request_id=request_id):
            return target.call(method, path, body)

    def reader(offset: int) -> None:
        position = offset
        while True:
            if max_ops is not None:
                if position >= max_ops:
                    return
            elif time.perf_counter() >= deadline:
                return
            kind, body = data.mix[position % len(data.mix)]
            sent = time.perf_counter()
            status, raw = call("POST", "/select", body, f"select-{position}")
            elapsed = time.perf_counter() - sent
            payload = json.loads(raw) if status == 200 else None
            problem = oracle.check_response(kind, body["budget"], status, payload)
            with lock:
                if kind == "fair" and payload is not None:
                    load.constrained += 1
                    load.satisfied += bool(payload.get("constraints", {}).get("satisfied"))
                if problem:
                    load.errors.append(f"select {position}: {problem}")
                else:
                    load.selects.append((kind, elapsed, len(raw)))
            position += readers

    def writer() -> None:
        previous_ack = load.started
        for k, (kind, body) in enumerate(data.deltas):
            due = load.started + k / rate
            if max_ops is None and due >= deadline:
                return
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = time.perf_counter()
            status, raw = call("POST", "/profiles/delta", body, f"delta-{k}")
            acked = time.perf_counter()
            # The generator's own delay: how long after the delta became
            # sendable (due, and the previous one acknowledged) it left.
            late = sent - max(due, previous_ack)
            previous_ack = acked
            reply = json.loads(raw) if status == 200 else {}
            if not reply.get("durable"):
                load.errors.append(f"delta {k} ({kind}): status {status} {raw[:120]!r}")
                return
            load.deltas.append((acked - due, late))
            load.acked.append(body)

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(readers)]
    if ingest:
        threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    load.ended = time.perf_counter()
    return load


def _route_seconds(before: dict, after: dict) -> float:
    """Mean server-side ``/select`` route time between two ``/metrics`` reads.

    ``/metrics`` keeps only count and total per stage, so this is a mean;
    delta requests' time is taken out through the ingest total.
    """
    def select_count(doc):
        return doc["requests"].get("POST /select", {}).get("count", 0)

    total = after["stages"]["request"]["total_seconds"] - before["stages"]["request"]["total_seconds"]
    total -= after["ingest"]["total_seconds"] - before["ingest"]["total_seconds"]
    count = select_count(after) - select_count(before)
    return total / count if count else 0.0


# -- workloads --------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: inputs.Sizes = inputs.FULL, max_ops: int | None = None,
        n_deltas: int | None = None) -> dict:
    ingest = workload == "serve-ingest"
    if n_deltas is None:
        n_deltas = math.ceil(seconds * sizes.delta_rate) + 1 if ingest else 0
    data = make_inputs(seed, sizes, n_deltas, ingest)
    workdir = common.WORK / f"{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if trace:
            return _traced(workload, data, seconds, sizes, workdir, ingest, max_ops)
        return _timed(data, seconds, sizes, workdir, ingest, max_ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _timed(data: Inputs, seconds, sizes, workdir, ingest, max_ops) -> dict:
    target = HttpTarget(workdir, data.repository)
    try:
        register_configs(target)
        passes = [cold_pass(target, sizes, rebuild=p > 0) for p in range(sizes.setup_passes)]
        setup_s = target.boot_seconds + common.percentile(passes, 50)
        checked, mismatches = oracle_pass(target, data, sizes)
        cpu_before = target.cpu_seconds()
        load = drive(target, data, seconds, ingest, sizes.delta_rate, max_ops=max_ops)
        cpu = target.cpu_seconds() - cpu_before
        # Before the probes: the EBS artifacts are not part of the workload.
        rss = target.rss_mb()
        for body in load.acked:
            data.mirror.apply(body)
        checked_after, mismatches_after = oracle_pass(
            target, data, sizes, ("plain",) if ingest else ("plain", "fair"))
        known = {"ebs_select": ebs_probe(target)}
        if ingest:
            known["constrained_select_after_ungrouped_user"] = constrained_probe(
                target, data, sizes)
    finally:
        target.stop()

    latencies = [s for _kind, s, _bytes in load.selects]
    second = (
        [s for s, _late in load.deltas]
        if ingest
        else [s for kind, s, _b in load.selects if kind in ("feedback", "fair")]
    )
    elapsed = load.ended - load.started
    ops = len(load.selects)
    attempted = checked + checked_after + ops + len(load.errors) + len(load.deltas)
    failures = mismatches + mismatches_after + load.errors
    metrics = {
        "setup_s": (setup_s, "s"),
        "select_ms": (common.percentile(latencies, 50) * 1e3, "ms"),
        # p95, not p99: on serve-ingest about one read in 30-100 waits out
        # a delta, so a p99 flips between stalled and unstalled reads as
        # the host's speed changes the read count.
        "select_tail_ms": (common.percentile(latencies, 95) * 1e3, "ms"),
        "second_ms": (common.percentile(second, 50) * 1e3, "ms"),
        "rss_mb": (rss, "MiB"),
    }
    delta_ms = [s * 1e3 for s, _late in load.deltas]
    late_ms = [late * 1e3 for _s, late in load.deltas]
    detail = {
        "samples": {
            "selects": ops,
            "beyond_p95": common.beyond(ops, 95),
            "second": len(second),
            "beyond_second_p50": common.beyond(len(second), 50),
        },
        "named_metrics": {
            "setup_s": setup_s,
            "setup_boot_s": target.boot_seconds,
            "setup_cold_passes_s": passes,
            "select_p50_ms": metrics["select_ms"][0],
            "select_p95_ms": metrics["select_tail_ms"][0],
            "select_p99_ms": common.percentile(latencies, 99) * 1e3,
            "select_rps": ops / elapsed,
            "delta_p50_ms": common.percentile(delta_ms, 50) if ingest else None,
            "delta_p90_ms": common.percentile(delta_ms, 90) if ingest else None,
            "failed_ratio": len(failures) / attempted,
            "rss_mb": rss,
        },
        "proc.cpu_ms_per_select": cpu * 1e3 / max(ops, 1),
        "client.late_ms": {
            "p50": common.percentile(late_ms, 50) if late_ms else None,
            "max": max(late_ms) if late_ms else None,
        },
        "deltas_acked": len(load.acked),
        "known_failures": known,
        "failures": failures[:20],
    }
    return {"attempted": attempted, "failed": len(failures),
            "metrics": metrics, "detail": detail}


def _traced(workload, data: Inputs, seconds, sizes, workdir, ingest, max_ops) -> dict:
    # 1. Untraced HTTP phase: client latency against the server's own
    #    route timer, and server CPU per select.
    http_seconds = seconds / 3
    (workdir / "http").mkdir()
    target = HttpTarget(workdir / "http", data.repository)
    try:
        register_configs(target)
        cold_pass(target, sizes, rebuild=False)
        before = target.metrics()
        cpu_before = target.cpu_seconds()
        http_load = drive(target, data, http_seconds, ingest, sizes.delta_rate,
                          max_ops=max_ops)
        cpu = target.cpu_seconds() - cpu_before
        after = target.metrics()
    finally:
        target.stop()
    server_route_s = _route_seconds(before, after)
    client_mean_s = common.mean([s for _k, s, _b in http_load.selects])

    # 2. In-process traced phase.
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        inproc = WsgiTarget(workdir, data.repository)
        try:
            register_configs(inproc)
            cold_pass(inproc, sizes, rebuild=False)
            checked, mismatches = oracle_pass(inproc, data, sizes)
            metrics_before = inproc.metrics()
            wal_before = inproc.store.stats()["wal_bytes"]
            load = drive(inproc, data, seconds, ingest, sizes.delta_rate,
                         tracer=tracer, max_ops=max_ops)
            metrics_after = inproc.metrics()
            wal_after = inproc.store.stats()["wal_bytes"]
            tracer.enabled = False
            for body in load.acked:
                data.mirror.apply(body)
            checked_after, mismatches_after = oracle_pass(
                inproc, data, sizes, ("plain",) if ingest else ("plain", "fair"))
        finally:
            inproc.stop()
    finally:
        tracer.enabled = False
        tracer.uninstall()
    tracer.dump(common.OUT / f"{workload}.spans.jsonl")

    layers = serve_layers(
        tracer.spans, load, metrics_before, metrics_after,
        wal_after - wal_before,
    )
    layers["http.overhead_ms"] = ((client_mean_s - server_route_s) * 1e3, "ms")
    layers["proc.cpu_ms_per_select"] = (
        cpu * 1e3 / max(len(http_load.selects), 1), "ms")
    layers["trace.overhead_ms"] = (
        layers["trace.select_ms"][0] - server_route_s * 1e3, "ms")
    failures = mismatches + mismatches_after + load.errors + http_load.errors
    attempted = (checked + checked_after + len(load.selects) + len(load.deltas)
                 + len(http_load.selects) + len(http_load.deltas) + len(failures))
    return {"attempted": attempted, "failed": len(failures), "metrics": layers,
            "detail": {"failures": failures[:20],
                       "untraced_server_route_ms": server_route_s * 1e3,
                       "untraced_client_mean_ms": client_mean_s * 1e3}}


def serve_layers(spans, load: Load, before: dict, after: dict, wal_bytes: int) -> dict:
    """Per-layer metrics of a traced serve window."""
    steady = window(spans, load.started, load.ended)
    setup = [s for s in spans if s.start < load.started]
    own = self_seconds(spans)
    by_id = {s.span_id: s for s in spans}

    def named(name, pool=steady):
        return [s for s in pool if s.name == name]

    def parent_name(span):
        parent = by_id.get(span.parent_id)
        return parent.name if parent else None

    def mean_ms(pool):
        return common.mean([s.seconds for s in pool]) * 1e3

    selects = [s for s in named("request") if s.request_id.startswith("select")]
    plain_kinds = sum(1 for kind, *_rest in load.selects if kind in ("plain", "noexplain"))
    fallback = [s for s in named("greedy.select") if parent_name(s) == "service.select"]
    kernel = [s for s in named("greedy.index") if parent_name(s) != "greedy.select"]
    reads = [s.seconds * 1e3 for s in named("lock.read_wait")]
    cache_hits = after["cache"]["instance_hits"] - before["cache"]["instance_hits"]
    cache_misses = after["cache"]["instance_misses"] - before["cache"]["instance_misses"]
    deltas = after["ingest"]["deltas"] - before["ingest"]["deltas"]
    wal_s = after["ingest"]["wal_seconds"] - before["ingest"]["wal_seconds"]
    fair = named("constraints.fair")
    layers = {
        "app.wsgi_self_ms": (common.mean([own[s.span_id] for s in selects]) * 1e3, "ms"),
        "app.response_bytes": (common.mean([b for _k, _s, b in load.selects]), "bytes"),
        "lock.read_wait_p50_ms": (common.percentile(reads, 50) if reads else 0.0, "ms"),
        "lock.read_wait_p99_ms": (common.percentile(reads, 99) if reads else 0.0, "ms"),
        "lock.write_wait_ms": (mean_ms(named("lock.write_wait")), "ms"),
        "cache.hits": (cache_hits, "count"),
        "cache.misses": (cache_misses, "count"),
        "cache.hit_ratio": (cache_hits / max(cache_hits + cache_misses, 1), "1"),
        "groups.build_calls": (len(named("groups.build")), "count"),
        "groups.build_s": (common.mean([s.seconds for s in named("groups.build", setup)]), "s"),
        "updates.apply_ms": (mean_ms(named("updates.apply")), "ms"),
        "updates.reassign_calls": (len(named("updates.reassign")), "count"),
        "updates.reassign_ms": (mean_ms(named("updates.reassign")), "ms"),
        "updates.rebuild_calls": (len(named("updates.rebuild")), "count"),
        "updates.rebuild_ms": (mean_ms(named("updates.rebuild")), "ms"),
        "index.build_calls": (len(named("index.build")), "count"),
        "index.build_ms": (mean_ms(named("index.build")), "ms"),
        "columnar.build_s": (0.0, "s"),
        "greedy.index_calls": (len(kernel), "count"),
        "greedy.index_ms": (mean_ms(kernel), "ms"),
        "greedy.fallback_calls": (len(fallback), "count"),
        "greedy.fallback_ratio": (len(fallback) / max(plain_kinds, 1), "1"),
        "greedy.fallback_ms": (mean_ms(fallback), "ms"),
        "custom.calls": (len(named("custom")), "count"),
        "custom.ms": (mean_ms(named("custom")), "ms"),
        "constraints.fair_ms": (mean_ms(fair), "ms"),
        "constraints.clustered_ms": (mean_ms(named("constraints.clustered")), "ms"),
        "constraints.partition_ms": (mean_ms(named("constraints.partition")), "ms"),
        "constraints.satisfied_ratio": (load.satisfied / max(load.constrained, 1), "1"),
        "explain.ms": (mean_ms(named("explain")), "ms"),
        "viz.payload_ms": (mean_ms(named("viz.payload")), "ms"),
        "wal.appends": (len(named("wal.append")), "count"),
        "wal.append_ms": (mean_ms(named("wal.append")), "ms"),
        "wal.bytes_per_delta": (wal_bytes / max(deltas, 1), "bytes"),
        "store.adopt_ms": (mean_ms(named("store.adopt")), "ms"),
        "ingest.wal_ms": (wal_s * 1e3 / max(deltas, 1), "ms"),
        "client.late_p50_ms": (
            common.percentile([l * 1e3 for _s, l in load.deltas], 50) if load.deltas else 0.0, "ms"),
        "client.late_max_ms": (
            max([l * 1e3 for _s, l in load.deltas]) if load.deltas else 0.0, "ms"),
        "trace.select_ms": (mean_ms(selects), "ms"),
        "trace.unattributed_ms": (
            common.mean([own[s.span_id] for s in named("service.select")]) * 1e3, "ms"),
    }
    return layers
