"""Correctness checks run after the timed part of every run.

* every distinct served ring is re-verified against the chain at the
  epoch it was served from, with the exact Definition 5 check
  (:func:`repro.resilience.ladder.verify_ring`, built on the
  ``core.problem`` constraint checks);
* the journal is recovered by a restarted daemon, and the recovered
  ring count, epoch and last ring id must match the acknowledged
  commits;
* the response stream is reduced to a digest of its deterministic
  fields, so two runs of the same inputs compare byte for byte.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.problem import DamsInstance
from repro.core.ring import Ring, TokenUniverse
from repro.resilience.ladder import ConstraintViolation, verify_ring
from repro.service.journal import Journal

from loadgen import Daemon, Record
from workloads import Chain

#: Response fields that depend on timing (micro-batch boundaries, solve
#: time, cache warmth), left out of the stream digest.
TIMING_FIELDS = ("elapsed", "batch_id", "batch_size", "warm_cache", "attrs")


def response_digest(records: list[Record]) -> str:
    digest = hashlib.sha256()
    for record in records:
        kept = {k: v for k, v in record.response.items() if k not in TIMING_FIELDS}
        digest.update(json.dumps(kept, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()[:16]


class ChainModel:
    """The chain as the client's acknowledged commits built it, by epoch."""

    def __init__(self, chain: Chain, records: list[Record]) -> None:
        self.chain = chain
        self.commits: list[tuple[int, Ring]] = []
        seq = 1 + max((ring.seq for ring in chain.rings), default=-1)
        for record in records:
            line, response = record.line, record.response
            if line["op"] != "commit" or response.get("status") != "ok":
                continue
            ring = Ring(rid=line["rid"], tokens=frozenset(line["tokens"]),
                        c=line["c"], ell=line["ell"], seq=seq)
            seq += 1
            self.commits.append((response["epoch"], ring))
        self._batch_of: dict[str, int] = {}
        for batch, tokens in enumerate(chain.batch_tokens):
            for token in tokens:
                self._batch_of[token] = batch
        # Batch -> (genesis rings, [(epoch, committed ring)]).
        self._local: dict[int | None, tuple[list[Ring], list]] = {}
        for ring in chain.rings:
            self._slot(ring)[0].append(ring)
        for epoch, ring in self.commits:
            self._slot(ring)[1].append((epoch, ring))
        self._universes: dict[int, TokenUniverse] = {}

    def _slot(self, ring: Ring) -> tuple[list[Ring], list]:
        batch = self._batch_of.get(next(iter(ring.tokens)))
        return self._local.setdefault(batch, ([], []))

    def instance(self, target: str, epoch: int, c: float, ell: int) -> DamsInstance:
        """The DA-MS instance ``target`` was solved in at ``epoch``.

        Partitioned chains solve batch-locally: the target's batch
        universe and the rings inside it (batches are disjoint, so no
        other ring can be related to a candidate).
        """
        batch = self._batch_of.get(target)
        genesis, committed = self._local.get(batch, ([], []))
        rings = genesis + [ring for e, ring in committed if e <= epoch]
        if batch is None:
            return DamsInstance(self.chain.universe, rings, target, c=c, ell=ell)
        universe = self._universes.get(batch)
        if universe is None:
            universe = TokenUniverse(
                {t: self.chain.universe.ht_of(t) for t in self.chain.batch_tokens[batch]}
            )
            self._universes[batch] = universe
        return DamsInstance(universe, rings, target, c=c, ell=ell)


def verify_served(model: ChainModel, records: list[Record]) -> dict:
    """Re-check every distinct served ring against its epoch's chain.

    Returns the number of distinct rings checked, the number of served
    responses carrying a violating ring, and the violations themselves.
    """
    verdicts: dict[tuple, bool] = {}
    violations: list[str] = []
    bad_responses = 0
    for record in records:
        response = record.response
        if record.line["op"] != "select" or response.get("status") != "ok":
            continue
        key = (response["epoch"], record.line["target"], tuple(response["tokens"]),
               response["claimed_c"], response["claimed_ell"])
        if key not in verdicts:
            instance = model.instance(record.line["target"], key[0], key[3], key[4])
            try:
                verify_ring(instance, frozenset(response["tokens"]))
                verdicts[key] = True
            except ConstraintViolation as exc:
                verdicts[key] = False
                violations.append(f"{response['id']}: {exc}")
        bad_responses += not verdicts[key]
    return {"distinct_rings": len(verdicts), "bad_responses": bad_responses,
            "violations": violations}


def verify_recovery(daemon: Daemon, model: ChainModel, journal_dir: str) -> list[str]:
    """Restart ``serve`` on the run's journal and check what it recovered."""
    problems = []
    expected_rings = len(model.chain.rings) + len(model.commits)
    expected_epoch = model.commits[-1][0] if model.commits else 0
    daemon.start()
    try:
        with daemon.client() as client:
            stats = client.stats()
            got = (stats.get("rings"), stats.get("epoch"))
            if got != (expected_rings, expected_epoch):
                problems.append(
                    f"recovered {got[0]} rings at epoch {got[1]}, acknowledged "
                    f"{expected_rings} at epoch {expected_epoch}"
                )
            if model.commits:
                # Re-committing a recovered rid is an idempotent no-op.
                last = model.commits[-1][1]
                again = client.commit(sorted(last.tokens), last.c, last.ell, rid=last.rid)
                if (again.get("rings"), again.get("epoch")) != got:
                    problems.append(f"last acknowledged rid {last.rid} was not recovered")
            daemon.shutdown(client)
    finally:
        daemon.kill()
    recovered = Journal(journal_dir).recover(truncate=False)
    last_rid = model.commits[-1][1].rid if model.commits else model.chain.rings[-1].rid
    if recovered is None or recovered.rings[-1].rid != last_rid:
        problems.append(f"journal does not end with the last acknowledged rid {last_rid}")
    return problems
