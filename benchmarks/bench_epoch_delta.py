"""Epoch-delta commits vs a cold rebuild per commit (BENCH_epoch.json).

The workload is sustained traffic against a single daemon while the
chain keeps growing: a universe of several disjoint ring clusters
(token-overlap components), hot targets spread over the *stable*
clusters, and a churn cluster that takes one block commit per round.
Every round commits a ring into the churn cluster, then re-asks every
hot target, one request at a time — each response's ``elapsed`` is one
solve.

The ``delta`` column is the production commit path: one daemon whose
commits run :meth:`~repro.service.state.ChainSnapshot.advance`, which
invalidates only the churn cluster's component, so every hot target
keeps solving against warm worlds (Thm 6.1 locality made operational).
The ``replace`` column is the cold-rebuild reference, built here in the
bench: a fresh daemon per round over the rings committed so far, so
each round re-enumerates every cluster's world set from scratch — cold
exactly when traffic is heaviest.  It is also the equivalence oracle.

Claims asserted:

* responses are byte-identical between the two columns (modulo
  execution coordinates), through every commit;
* the delta column's warm-hit rate (worlds-cache hits over lookups in
  the measured rounds) is strictly higher than the rebuild's;
* the delta column's measured p99 request latency is strictly lower.

Writes ``benchmarks/results/BENCH_epoch.json``: per-column throughput,
measured-round latency quantiles (computed from the responses' own
``elapsed`` field — window-independent), warm-hit rates, the service's
``delta.*`` retention counters, and the workload fingerprint
``tools/bench_trend.py`` keys on.  Run as a script (``make bench`` /
``make epoch-smoke``); the smoke profile (``REPRO_BENCH_EPOCH_SMOKE=1``)
shrinks the grid with its own fingerprint so trend checks skip it.
"""

from __future__ import annotations

import math
import os
import random
import time

from repro.core.ring import Ring, TokenUniverse
from repro.obs import metrics as obs_metrics
from repro.service import SelectionService, SelectRequest, ServiceConfig

from bench_common import save_json, save_text

SMOKE = os.environ.get("REPRO_BENCH_EPOCH_SMOKE") == "1"

CLUSTERS = 4 if SMOKE else 6          # stable clusters (one component each)
TOKENS_PER_CLUSTER = 14
CHURN_TOKENS = 8                      # the cluster the commits land in
HT_COUNT = 5
# Ring depth drives the cost of one cold world enumeration; 8 is the
# deepest profile that enumerates in ~100 ms — depth 9 multiplies the
# world count (and RSS) by orders of magnitude, past any useful scale.
RINGS_PER_CLUSTER = 8
RING_SPAN = 5                         # tokens per history ring (overlapping)
HOT_PER_CLUSTER = 2
ROUNDS = 4 if SMOKE else 10           # measured rounds (one commit each)
SEED = 13
C, ELL = 2.0, 2
MODES = ("replace", "delta")

WORKLOAD = {
    "clusters": CLUSTERS,
    "tokens_per_cluster": TOKENS_PER_CLUSTER,
    "churn_tokens": CHURN_TOKENS,
    "hts": HT_COUNT,
    "rings_per_cluster": RINGS_PER_CLUSTER,
    "ring_span": RING_SPAN,
    "hot_per_cluster": HOT_PER_CLUSTER,
    "rounds": ROUNDS,
    "seed": SEED,
    "c": C,
    "ell": ELL,
    "smoke": SMOKE,
}


def build_workload():
    """Universe, clustered ring history, hot targets and commit stream."""
    rng = random.Random(SEED)
    count = CLUSTERS * TOKENS_PER_CLUSTER + CHURN_TOKENS
    universe = TokenUniverse(
        {f"t{i:03d}": f"h{rng.randrange(HT_COUNT)}" for i in range(count)}
    )
    tokens = sorted(universe.tokens)
    slices = [
        tokens[b * TOKENS_PER_CLUSTER : (b + 1) * TOKENS_PER_CLUSTER]
        for b in range(CLUSTERS)
    ]
    churn = tokens[CLUSTERS * TOKENS_PER_CLUSTER :]
    rings, seq = [], 0
    for b, members in enumerate(slices):
        # Overlapping RING_SPAN-rings chain the cluster into one
        # component with a deep (expensive to re-enumerate) world set.
        for k in range(RINGS_PER_CLUSTER):
            rings.append(
                Ring(
                    f"c{b}:{k}",
                    frozenset(members[k : k + RING_SPAN]),
                    c=C,
                    ell=ELL,
                    seq=seq,
                )
            )
            seq += 1
    rings.append(Ring("churn:0", frozenset(churn[0:4]), c=C, ell=ELL, seq=seq))
    # Hot traffic goes to the stable clusters only: the realistic case
    # where most requests are not about the batch the block touched.
    hot = [members[-h - 1] for members in slices for h in range(HOT_PER_CLUSTER)]
    commits = [tuple(churn[0 : 4 + (r % 3)]) for r in range(ROUNDS)]
    return universe, rings, hot, commits


def canon(response) -> dict:
    """A response minus execution coordinates (see tests/test_service_shard)."""
    payload = response.to_dict()
    for key in ("elapsed", "batch_id", "batch_size", "warm_cache"):
        payload.pop(key, None)
    attrs = payload.get("attrs")
    if attrs is not None:
        attrs.pop("memo", None)
        if not attrs:
            payload.pop("attrs")
    return payload


def quantile(values: list[float], q: float) -> float:
    """Exact nearest-rank quantile (same rule as obs.telemetry)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def run_column(mode: str, universe, rings, hot, commits):
    """Warm-up round, then ROUNDS of (commit, re-ask every hot target).

    Requests go one at a time (every batch is one request), so each
    response's ``elapsed`` measures one solve and the installed
    recorder's ``cache.worlds_*`` counters measure real worlds-cache
    behaviour, not the whole-snapshot batch flag.  ``delta`` commits
    into one live daemon.  ``replace`` commits into a mirror daemon that
    never serves (so its caches are never built) and answers each round
    from a fresh daemon over the mirror's rings at the mirror's epoch.
    Its ``epochs_advanced`` is the mirror's, its ``caches_invalidated``
    counts the fresh daemons the loop started — each one drops all of
    the previous round's warm state — and it has no ``delta`` block.
    """
    config = ServiceConfig(telemetry=False)
    live = SelectionService(universe, rings, config)
    mirror = SelectionService(universe, rings, config)
    rebuilds = 0
    warmup, measured = [], []
    with obs_metrics.recording(obs_metrics.MemoryRecorder()) as recorder:
        with live:
            started = time.perf_counter()
            for round_no in range(ROUNDS + 1):
                service = live
                if round_no > 0 and mode == "delta":
                    live.commit_ring(tokens=commits[round_no - 1], c=C, ell=ELL)
                elif round_no > 0:
                    head = mirror.commit_ring(
                        tokens=commits[round_no - 1], c=C, ell=ELL
                    )
                    service = SelectionService(
                        universe, head.rings, config, epoch=head.epoch
                    ).start()
                    rebuilds += 1
                bucket = measured if round_no > 0 else warmup
                for i, target in enumerate(hot):
                    bucket.append(
                        service.submit_wait(
                            SelectRequest(
                                request_id=f"r{round_no}-{i}",
                                target=target,
                                c=C,
                                ell=ELL,
                                mode="exact",
                            ),
                            timeout=300.0,
                        )
                    )
                if service is not live:
                    service.stop()
                if round_no == 0:
                    warm_base = (
                        recorder.counters.get("cache.worlds_hits", 0),
                        recorder.counters.get("cache.worlds_misses", 0),
                    )
            elapsed = time.perf_counter() - started
            stats = live.stats()
        if mode == "replace":
            stats = {
                "epochs_advanced": mirror.stats()["epochs_advanced"],
                "caches_invalidated": rebuilds,
            }
        hits = recorder.counters.get("cache.worlds_hits", 0) - warm_base[0]
        misses = recorder.counters.get("cache.worlds_misses", 0) - warm_base[1]
    return warmup + measured, measured, elapsed, stats, (hits, misses)


def column_row(mode, measured, elapsed, stats, worlds) -> dict:
    latencies = [r.elapsed for r in measured if r.elapsed is not None]
    hits, misses = worlds
    return {
        "mode": mode,
        "requests": len(measured),
        "elapsed_s": round(elapsed, 6),
        "throughput_rps": round(len(measured) / elapsed, 3),
        "worlds_hits": hits,
        "worlds_misses": misses,
        "warm_hit_rate": round(hits / (hits + misses), 6) if hits + misses else None,
        "p50_ms": round(quantile(latencies, 0.50) * 1e3, 3),
        "p99_ms": round(quantile(latencies, 0.99) * 1e3, 3),
        "epochs_advanced": stats.get("epochs_advanced"),
        "caches_invalidated": stats.get("caches_invalidated"),
        "delta": stats.get("delta"),
    }


def main() -> int:
    universe, rings, hot, commits = build_workload()
    columns, baselines = [], {}
    for mode in MODES:
        responses, measured, elapsed, stats, worlds = run_column(
            mode, universe, rings, hot, commits
        )
        assert all(r.status == "ok" for r in responses), [
            r.to_dict() for r in responses if r.status != "ok"
        ][:3]
        baselines[mode] = [canon(r) for r in responses]
        columns.append(column_row(mode, measured, elapsed, stats, worlds))
        row = columns[-1]
        print(
            f"mode={mode:>7}: {row['throughput_rps']:8.1f} req/s  "
            f"warm={row['warm_hit_rate']:.0%}  p99={row['p99_ms']}ms"
        )

    # -- equivalence: delta answered every request like the cold rebuild ----
    assert baselines["delta"] == baselines["replace"], (
        "delta-commit responses diverged from the cold rebuild"
    )

    by_mode = {row["mode"]: row for row in columns}
    replace, delta = by_mode["replace"], by_mode["delta"]
    p99_speedup = round(replace["p99_ms"] / delta["p99_ms"], 3)

    table = ["# BENCH_epoch", "", "mode     req/s     warm%    p50ms    p99ms"]
    for row in columns:
        table.append(
            f"{row['mode']:>7}  {row['throughput_rps']:>8.1f}  "
            f"{row['warm_hit_rate']:>6.0%}  {row['p50_ms']!s:>7}  "
            f"{row['p99_ms']!s:>7}"
        )
    text = "\n".join(table)
    print(text)

    payload = {
        "workload": WORKLOAD,
        "columns": columns,
        "headline": {
            "warm_hit_rate": delta["warm_hit_rate"],
            "replace_warm_hit_rate": replace["warm_hit_rate"],
            "p99_ms": delta["p99_ms"],
            "replace_p99_ms": replace["p99_ms"],
            "p99_speedup": p99_speedup,
            "throughput_rps": delta["throughput_rps"],
        },
    }
    save_json("BENCH_epoch.json", payload)
    save_text("BENCH_epoch.txt", text)

    # Cross-multiplied so rounding can never turn a real improvement
    # into a tie: rate_delta > rate_replace over the raw lookup counts.
    d_total = delta["worlds_hits"] + delta["worlds_misses"]
    r_total = replace["worlds_hits"] + replace["worlds_misses"]
    assert delta["worlds_hits"] * r_total > replace["worlds_hits"] * d_total, (
        f"delta warm-hit rate {delta['warm_hit_rate']} is not above "
        f"replace's {replace['warm_hit_rate']}"
    )
    assert delta["worlds_misses"] < replace["worlds_misses"], (
        f"delta cold re-enumerations ({delta['worlds_misses']}) not below "
        f"replace's ({replace['worlds_misses']})"
    )
    assert delta["p99_ms"] < replace["p99_ms"], (
        f"delta p99 {delta['p99_ms']}ms is not below replace's "
        f"{replace['p99_ms']}ms"
    )
    print(
        f"headline: delta warm-hit {delta['warm_hit_rate']:.0%} vs "
        f"{replace['warm_hit_rate']:.0%}, p99 {delta['p99_ms']}ms vs "
        f"{replace['p99_ms']}ms ({p99_speedup}x)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
