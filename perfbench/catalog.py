"""Every metric the benchmark reports, with its unit.

``BENCHMARK.json`` lists the same names; the self-tests hold the two in
step.  Every workload reports every metric: a serving layer reads 0 on
offline-scale, the library-only layers read 0 on the serve workloads.
"""

#: End-to-end metrics, reported by untraced runs (``--trace 0``).  Each is
#: defined per workload in ``perfbench/README.md``.
END_TO_END = {
    "setup_s": "s",
    "select_ms": "ms",
    "select_tail_ms": "ms",
    "second_ms": "ms",
    "rss_mb": "MiB",
}

#: Per-layer metrics, reported by traced runs (``--trace 1``).  ``*_ms``
#: and ``*_s`` figures are mean inclusive span times per call unless the
#: name says otherwise.
PER_LAYER = {
    "http.overhead_ms": "ms",
    "app.wsgi_self_ms": "ms",
    "app.response_bytes": "bytes",
    "proc.cpu_ms_per_select": "ms",
    "lock.read_wait_p50_ms": "ms",
    "lock.read_wait_p99_ms": "ms",
    "lock.write_wait_ms": "ms",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "1",
    "groups.build_calls": "count",
    "groups.build_s": "s",
    "updates.apply_ms": "ms",
    "updates.reassign_calls": "count",
    "updates.reassign_ms": "ms",
    "updates.rebuild_calls": "count",
    "updates.rebuild_ms": "ms",
    "index.build_calls": "count",
    "index.build_ms": "ms",
    "columnar.build_s": "s",
    "greedy.index_calls": "count",
    "greedy.index_ms": "ms",
    "greedy.fallback_calls": "count",
    "greedy.fallback_ratio": "1",
    "greedy.fallback_ms": "ms",
    "custom.calls": "count",
    "custom.ms": "ms",
    "constraints.fair_ms": "ms",
    "constraints.clustered_ms": "ms",
    "constraints.partition_ms": "ms",
    "constraints.satisfied_ratio": "1",
    "explain.ms": "ms",
    "viz.payload_ms": "ms",
    "wal.appends": "count",
    "wal.append_ms": "ms",
    "wal.bytes_per_delta": "bytes",
    "store.adopt_ms": "ms",
    "ingest.wal_ms": "ms",
    "client.late_p50_ms": "ms",
    "client.late_max_ms": "ms",
    "trace.select_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.overhead_ms": "ms",
}

WORKLOADS = ("serve-read", "serve-ingest", "offline-scale")
