"""End-to-end benchmark of the selection service over its real socket.

Usage (from the repository root)::

    python3 perfbench/run.py --workload monero-exact --seed 1 --seconds 45 --trace 0

Starts ``python -m repro.cli serve --socket ... --journal ...
--epoch-mode delta`` on a chain generated from ``--seed`` and written
through ``Journal.append_genesis``, drives one workload through the
socket, checks every answer, and prints one JSON object as the last
line of standard output.

``--trace 0`` reports the end-to-end metrics (``E2E``).  ``--trace 1``
reports the per-layer metrics (``layers.PER_LAYER``): it drives the
workload for half the time against the plain daemon, then replays
exactly the same requests against a daemon started by ``launcher.py``
(spans around each layer), and compares the two: tracing overhead,
response digests and the program's own counts.

A full record of each run goes to ``.perfbench_run/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback

if not os.path.isdir(os.path.join("src", "repro")):
    sys.exit("error: src/repro not found; run from the repository root")
sys.path.insert(0, "src")

import workloads as w  # noqa: E402 - needs src on the path
from checks import (ChainModel, response_digest, verify_recovery,  # noqa: E402
                    verify_served)
from layers import PER_LAYER, count_mismatches, per_layer, quantile  # noqa: E402
from loadgen import Daemon, closed_loop, launcher_argv  # noqa: E402
from repro.service.journal import Journal  # noqa: E402

#: (name, unit) — every end-to-end metric, in report order.
E2E = (
    ("setup_s", "s"),
    ("select_p50_ms", "ms"),
    ("selects_per_s", "1/s"),
    ("commit_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("commits_per_s", "1/s"),
    ("rss_peak_mb", "MB"),
    ("ring_size_mean", "tokens"),
)

#: Daemon start-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 9

RUN_ROOT = ".perfbench_run"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_manifest() -> None:
    """BENCHMARK.json must list exactly the metrics this script prints."""
    if not os.path.exists("BENCHMARK.json"):
        return
    with open("BENCHMARK.json") as handle:
        manifest = json.load(handle)
    listed = ([(m["name"], m["unit"]) for m in manifest["end_to_end"]],
              [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]])
    if listed != (list(E2E), list(PER_LAYER)):
        raise SystemExit("error: BENCHMARK.json metrics differ from perfbench's")


class Run:
    """One benchmark invocation: its work directory and daemons."""

    def __init__(self, args) -> None:
        self.args = args
        self.dir = os.path.join(RUN_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.daemons = []
        # Traced runs drive half the time but use the same chain.
        self.chain = w.build_chain(args.workload, args.seed, args.seconds)
        self.fingerprint = self.chain.fingerprint()

    def journal(self, name: str) -> str:
        """A fresh journal holding only the generated chain's genesis."""
        path = os.path.join(self.dir, name)
        with Journal(path) as journal:
            journal.append_genesis(self.chain.universe, self.chain.rings,
                                   self.chain.batches)
        return path

    def daemon(self, journal: str, spans: str | None = None) -> Daemon:
        daemon = Daemon(launcher_argv(spans), journal,
                        os.path.join(self.dir, "s.sock"),
                        os.path.join(self.dir, "serve.log"))
        self.daemons.append(daemon)
        return daemon

    def close(self) -> None:
        for daemon in self.daemons:
            daemon.kill()
        shutil.rmtree(self.dir, ignore_errors=True)


def drive(run: Run, client, seconds: float):
    """Run the workload for at most ``seconds``.

    Returns every record in send order, the timed ones among them, and
    the seconds over which selects and commits are counted for
    ``selects_per_s`` / ``commits_per_s``.  Untimed requests (warm-up
    selects, monero-exact's commit prefix) are still checked.
    """
    chain, seed = run.chain, run.args.seed
    if run.args.workload == "monero-exact":
        start = time.perf_counter()
        deadline = start + seconds
        selects = closed_loop(client, w.monero_selects(chain), deadline)
        middle = time.perf_counter()
        commits = w.monero_commits(chain, seed)
        prefix = closed_loop(client, commits[:w.MONERO_COMMITS_UNTIMED], deadline)
        begin = time.perf_counter()
        timed = closed_loop(client, commits[w.MONERO_COMMITS_UNTIMED:], deadline)
        end = time.perf_counter()
        return (selects + prefix + timed, selects + timed,
                {"select": middle - start, "commit": end - begin})
    warm = closed_loop(client, w.warmup(chain, seed), None)
    start = time.perf_counter()
    records = closed_loop(client, w.growth_ops(chain, seed), start + seconds)
    window = time.perf_counter() - start
    return warm + records, records, {"select": window, "commit": window}


def timed_pass(run: Run, daemon, seconds: float | None, previous=None):
    """Drive (or send exactly the requests of ``previous`` again) once;
    returns all and timed records, rate windows, ``stats`` and the
    daemon's peak RSS."""
    with daemon.client() as client:
        if previous is None:
            ops, timed, windows = drive(run, client, seconds)
        else:
            ops = closed_loop(client, [r.line for r in previous], None)
            timed = windows = None
        rss = daemon.vm_hwm_mb()
        stats = client.stats()
        daemon.shutdown(client)
    return ops, timed, windows, stats, rss


def correctness(run: Run, records, journal: str) -> dict:
    """Re-verify served rings, recovery and the stream; count failures."""
    model = ChainModel(run.chain, records)
    served = verify_served(model, records)
    recovery = verify_recovery(run.daemon(journal), model, journal)
    not_ok = sum(r.response.get("status") != "ok" for r in records)
    return {
        "not_ok": not_ok,
        "distinct_rings_verified": served["distinct_rings"],
        "violations": served["violations"][:20],
        "recovery_problems": recovery,
        "failed": not_ok + served["bad_responses"] + len(recovery),
        "response_digest": response_digest(records),
    }


def inputs(run: Run, ops) -> dict:
    """Fingerprint of what the daemon was given: chain, mix, digest."""
    kinds = [r.line["op"] for r in ops]
    return {
        "chain": run.fingerprint,
        "selects": kinds.count("select"),
        "commits": kinds.count("commit"),
        # Fixed work monero-exact plans; 0 fresh tokens left means
        # chain-growth's stream ran dry before the deadline.
        "planned": {"selects": w.MONERO_SELECTS,
                    "commits": w.MONERO_COMMITS_UNTIMED + w.MONERO_COMMITS}
        if run.args.workload == "monero-exact" else None,
        "fresh_tokens_left": sum(len(pool) for pool in run.chain.fresh),
        "input_digest": w.ops_digest(r.line for r in ops),
    }


def end_to_end(run: Run) -> tuple[dict, dict]:
    args = run.args
    journal = run.journal("journal")
    daemon = run.daemon(journal)
    setups = []
    for repeat in range(SETUP_REPEATS):
        setups.append(daemon.start())
        if repeat < SETUP_REPEATS - 1:
            daemon.shutdown()
    everything, records, windows, stats, rss = timed_pass(run, daemon, args.seconds)
    check = correctness(run, everything, journal)

    def latencies(op):
        return [r.latency for r in records
                if r.line["op"] == op and r.response.get("status") == "ok"]

    selects, commits = latencies("select"), latencies("commit")
    rings = [len(r.response["tokens"]) for r in records
             if r.line["op"] == "select" and r.response.get("status") == "ok"]
    metrics = {
        "setup_s": statistics.median(setups),
        "select_p50_ms": quantile(selects, 0.50) * 1e3,
        "selects_per_s": len(selects) / windows["select"],
        "commit_p50_ms": quantile(commits, 0.50) * 1e3,
        "commit_p99_ms": quantile(commits, 0.99) * 1e3,
        "commits_per_s": len(commits) / windows["commit"],
        "rss_peak_mb": rss,
        "ring_size_mean": statistics.fmean(rings) if rings else 0.0,
    }
    # A metric with no samples would read as 0, an "improvement": the
    # run fails instead (a slow enough regression can crowd out the
    # monero-exact commit tail).
    empty = [name for name, values in (("select", selects), ("commit", commits))
             if not values]
    failed = check["failed"] + len(empty)
    details = {
        "inputs": inputs(run, everything),
        "setups_s": setups,
        "samples": {
            "select": len(selects), "commit": len(commits),
            # Samples beyond each p99: a percentile is well supported
            # only with at least ten.
            "beyond_select_p99": len(selects) - math.ceil(0.99 * len(selects)),
            "beyond_commit_p99": len(commits) - math.ceil(0.99 * len(commits)),
            # Recorded, not an end-to-end metric: too unsteady between
            # runs to carry a regression bound.
            "select_p99_ms": quantile(selects, 0.99) * 1e3,
            "without_samples": empty,
        },
        "rate_windows_s": windows,
        "checks": check,
        "fail_share": failed / len(everything),
        "stats": stats,
    }
    return metrics, {"correct": failed == 0, "attempted": len(everything),
                     "failed": failed, "details": details}


def traced(run: Run) -> tuple[dict, dict]:
    args = run.args
    first = run.daemon(run.journal("journal-untraced"))
    first.start()
    untraced, _, _, stats_untraced, _ = timed_pass(run, first, args.seconds / 2)

    spans_path = os.path.join(run.dir, "spans.json")
    journal = run.journal("journal-traced")
    second = run.daemon(journal, spans=spans_path)
    second.start()
    everything, _, _, stats, _ = timed_pass(run, second, None, previous=untraced)
    with open(spans_path) as handle:
        trace = json.load(handle)
    check = correctness(run, everything, journal)
    same_stream = response_digest(untraced) == response_digest(everything)
    mismatches = count_mismatches(stats_untraced, stats)
    values, breakdown = per_layer(
        args.workload, trace["spans"], stats,
        sum(r.latency for r in untraced),
        sum(r.latency for r in everything),
        mismatches,
    )
    details = {
        "inputs": inputs(run, everything),
        "checks": check,
        "same_response_stream": same_stream,
        "count_mismatches": mismatches,
        "unpatched": trace["unpatched"],
        "breakdown": breakdown,
        "stats": stats,
    }
    # An entry point that could not be patched would report its layer
    # as 0 calls and 0 ms, which reads as a gain: it fails the run.
    failed = check["failed"] + (not same_stream) + len(trace["unpatched"])
    return values, {"correct": failed == 0, "attempted": len(everything),
                    "failed": failed, "details": details}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in w.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    check_manifest()
    run = Run(args)
    try:
        if args.trace:
            values, outcome = traced(run)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            values, outcome = end_to_end(run)
            units = dict(E2E)
    except Exception:  # noqa: BLE001 - report, then fail without a result
        traceback.print_exc()
        return 1
    finally:
        run.close()
    details = outcome.pop("details")
    os.makedirs(os.path.join(RUN_ROOT, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RUN_ROOT, "results", name), "w") as handle:
        json.dump({"args": vars(args), **outcome, "metrics": values,
                   "details": details}, handle, indent=1, default=str)
    print(f"{args.workload} seed {args.seed}: correct={outcome['correct']} "
          f"attempted={outcome['attempted']} failed={outcome['failed']}; "
          f"details in {RUN_ROOT}/results/{name}", file=sys.stderr)
    print(json.dumps({
        **outcome,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
