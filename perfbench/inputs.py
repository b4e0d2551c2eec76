"""Seeded workload inputs: populations, configurations, request mix, deltas.

Everything here is a pure function of ``--seed`` and :class:`Sizes`; the
program under test receives only what these functions generate.

The populations are fixed: the ``BENCH_serve`` and ``BENCH_scale``
corpora, both drawn with :data:`POPULATION_SEED`.  The seed drives the
traffic instead — the order of the read mix, the delta stream and the
offline oracle sample.  A per-seed population would redraw which
properties are 0/1-valued (30% of them), which moves group counts and
per-request cost by 10-20% from one seed to the next: more than any
regression bound could absorb.  Mix and delta compositions are exact in
every block, so the seed changes order, never proportions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Sizes:
    """Workload dimensions.  :data:`FULL` is what ``run.py`` measures."""

    #: Serving population: the ``BENCH_serve`` shape.
    users: int = 2000
    n_properties: int = 120
    mean_profile: float = 25.0
    #: Budgets the read mix cycles over; every (config, budget) stays cached.
    budgets: tuple[int, ...] = (8, 12)
    #: Cold passes over every (config, budget) during set-up; ``setup_s``
    #: reports boot time plus the median pass.
    setup_passes: int = 2
    #: Durable deltas per second in serve-ingest.  At 2k users a delta
    #: costs about 0.2 s of server time (four configurations, two budgets
    #: each rebuilt), so 1.5/s keeps the server about a third busy.
    delta_rate: float = 1.5
    #: Offline population: the ``BENCH_scale`` shape (60 properties, mean
    #: profile 8) at 20k users.  At 50k and 100k the kernel's working set
    #: spills out of the per-core cache, and on a shared host its timings
    #: turned bimodal with the other tenants' load (8 or 12 ms a solve at
    #: 50k); interleaved 20k runs stayed within 8%.
    offline_users: int = 20_000
    offline_properties: int = 60
    offline_mean: float = 8.0
    offline_budget: int = 50
    #: Plain solves per cycle of the offline loop (one fair and one
    #: clustered solve follow); enough for a p90 of the fast plain solve
    #: while the slow clustered solve still gets 50 samples a run.
    plain_per_cycle: int = 6
    #: Columnar builds during offline set-up; ``setup_s`` is their median.
    offline_builds: int = 3
    #: Users and budget of the sample the pure-Python oracles re-solve.
    oracle_users: int = 1500
    oracle_budget: int = 20


FULL = Sizes()

#: Seed of the fixed populations (the one ``BENCH_serve``/``BENCH_scale`` use).
POPULATION_SEED = 3

#: Request kinds of the read mix and their count in every block of 40
#: requests (55/15/15/15%).
MIX_KINDS = ("plain", "noexplain", "feedback", "fair")
MIX_COUNTS = (22, 6, 6, 6)
#: serve-ingest sends no ``fair`` requests: once a delta adds a user who
#: sits in no group, every constrained ``/select`` answers 400 (a known
#: defect, probed once per run by ``serve.constrained_probe``).  The
#: share moves to ``plain``.
INGEST_COUNTS = (28, 6, 6, 0)

#: Configurations registered on top of the server's built-in ``default``
#: (LBS weights, Single coverage).  ``prefix`` exercises the filtered
#: repository copy a ``property_prefixes`` configuration builds.
EXTRA_CONFIGS = (
    {"name": "lbs-prop", "coverage_scheme": "Prop"},
    {"name": "iden-single", "weight_scheme": "Iden"},
    {"name": "prefix", "property_prefixes": ["prop000"]},
)
DEFAULT_CONFIG = {"name": "default"}
CONFIG_NAMES = ("default", "lbs-prop", "iden-single", "prefix")
#: The known-failing weight scheme, probed once per serve run, never timed.
EBS_CONFIG = {"name": "ebs-probe", "weight_scheme": "EBS"}

#: Every block of ten deltas: five rescores of existing users, two new
#: users and two removals in seeded order, with a ``new_property`` upsert
#: fourth — a user whose only property is absent at load, so the user
#: joins no group.  That is what routes plain selections to the
#: id-string fallback.
DELTA_BLOCK = ("rescore",) * 5 + ("insert",) * 2 + ("remove",) * 2
NEW_PROPERTY_AT = 3


def serve_population(sizes: Sizes):
    from repro.datasets.synth import generate_profile_repository

    return generate_profile_repository(
        n_users=sizes.users,
        n_properties=sizes.n_properties,
        mean_profile_size=sizes.mean_profile,
        seed=POPULATION_SEED,
    )


def offline_columns(sizes: Sizes):
    from repro.datasets.synth import generate_profile_columns

    return generate_profile_columns(
        sizes.offline_users,
        sizes.offline_properties,
        sizes.offline_mean,
        seed=POPULATION_SEED,
    )


def oracle_offset(seed: int, sizes: Sizes) -> int:
    """First user of the offline oracle sample."""
    span = max(sizes.offline_users - sizes.oracle_users, 0)
    return int(np.random.default_rng([seed, 3]).integers(span + 1))


def config_objects():
    """The four mix configurations as library objects, by name."""
    from repro.service.config import DiversificationConfiguration

    return {
        doc["name"]: DiversificationConfiguration.from_dict(doc)
        for doc in (DEFAULT_CONFIG, *EXTRA_CONFIGS)
    }


def request_mix(seed: int, sizes: Sizes, blocks: dict, counts=MIX_COUNTS,
                n_blocks: int = 100):
    """The seeded ``POST /select`` mix, as ``(kind, body)`` pairs.

    ``blocks`` maps a configuration name to its ``feedback`` and ``fair``
    request blocks (see :func:`request_blocks`).  Every block of
    ``sum(counts)`` requests holds each kind ``counts`` times and each
    (configuration, budget) pair equally often, in seeded order.  Callers
    cycle through the list.
    """
    rng = np.random.default_rng([seed, 1])
    kinds = [kind for kind, n in zip(MIX_KINDS, counts) for _ in range(n)]
    pairs = [(name, budget) for name in CONFIG_NAMES for budget in sizes.budgets]
    pairs = pairs * (len(kinds) // len(pairs))
    if len(pairs) != len(kinds):
        raise ValueError("a mix block must hold every (config, budget) pair equally")
    mix = []
    for _ in range(n_blocks):
        for kind_id, pair_id in zip(rng.permutation(len(kinds)), rng.permutation(len(pairs))):
            kind = kinds[kind_id]
            name, budget = pairs[pair_id]
            body = {"configuration": name, "budget": budget}
            if kind == "noexplain":
                body["explain"] = False
            elif kind == "feedback":
                body["feedback"] = blocks[name]["feedback"]
            elif kind == "fair":
                body["constraints"] = blocks[name]["fair"]
            mix.append((kind, body))
    return mix


def request_blocks(index) -> dict:
    """Feedback and fair-constraint blocks valid on one configuration.

    The fair block floors the largest group of the three
    highest-membership properties at 2 and caps the next two at 1 (the
    sortition shape of ``repro bench --suite constraints``); feedback
    prioritizes the single largest group.
    """
    from repro.experiments.constraints import fair_bound_spec

    spec = fair_bound_spec(index, 3, 2, 2, 1)
    top = spec.floors[0][0]
    return {
        "feedback": {"priority": [[top.property_label, top.bucket_label]]},
        "fair": spec.to_dict(),
    }


def delta_stream(seed: int, user_ids, count: int, n_properties: int):
    """``count`` seeded delta documents, valid when applied in order.

    Tracks the live user set while generating so every rescore and
    removal names a user that exists when its delta arrives.
    """
    rng = np.random.default_rng([seed, 2])
    live = list(user_ids)
    labels = [f"prop{p:05d}" for p in range(n_properties)]
    kinds: list[str] = []
    while len(kinds) < count:
        block = [DELTA_BLOCK[i] for i in rng.permutation(len(DELTA_BLOCK))]
        block.insert(NEW_PROPERTY_AT, "new_property")
        kinds.extend(block)
    deltas = []
    for k, kind in enumerate(kinds[:count]):
        if kind == "rescore":
            user = live[int(rng.integers(len(live)))]
            picked = rng.choice(len(labels), size=4, replace=False)
            doc = {
                "upserts": {
                    user: {labels[p]: round(float(rng.random()), 4) for p in picked}
                }
            }
        elif kind == "insert":
            user = f"ingest{k:05d}"
            picked = rng.choice(len(labels), size=6, replace=False)
            doc = {
                "upserts": {
                    user: {labels[p]: round(float(rng.random()), 4) for p in picked}
                }
            }
            live.append(user)
        elif kind == "remove":
            user = live.pop(int(rng.integers(len(live))))
            doc = {"removals": [user]}
        else:
            user = f"novel{k:05d}"
            doc = {"upserts": {user: {f"novel_prop{k:05d}": 0.5}}}
            live.append(user)
        deltas.append((kind, doc))
    return deltas
