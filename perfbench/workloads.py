"""Seeded inputs for the benchmark workloads.

Every workload is a pure function of its seed: the chain the daemon
recovers at start-up (written as a journal genesis frame) and the
stream of JSONL request lines the load generator sends.  The daemon
sees nothing else — no seed, no workload name.

* ``monero-exact`` — the paper's Sec 7.1 real-data shape (633 tokens,
  57 disjoint super RSs of 11, 6 fresh tokens), unpartitioned; a fixed
  list of closed-loop ``mode="exact"`` selects at (c=2, l=2), then a
  closed-loop tail of seeded commits.
* ``chain-growth`` — a 30k-ring chain in 100 batches; closed-loop
  commits of fresh batch-local rings, a ladder select of a fresh token
  in a recently touched batch after every 2nd commit.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from itertools import accumulate

from repro.core.ring import Ring, TokenUniverse
from repro.data.monero import OUTPUT_COUNT_DISTRIBUTION, generate_monero_hour

WORKLOADS = ("monero-exact", "chain-growth")

C, ELL = 2.0, 2

# monero-exact: the paper's data set is one fixed hour of blocks, so
# every seed uses the same hour.  The timed selects are one fixed list:
# an exact solve costs 0.1-0.7 s depending on the target and on which
# components earlier solves left in the solver cache, so a seeded
# subset of targets moved select_p50_ms by a third between seeds.  The
# seed picks the commit tail.  Both phases are fixed work (about 30 s
# on a 2-core x86 host, so a 1.5x slower host still fits), capped by
# --seconds.  The first commits go untimed: every 64th commit writes a
# full-chain snapshot, so commit_p99_ms is a snapshot, and on a chain
# growing from 57 rings that snapshot's size moved it by a third
# between runs; from 2557 rings on, the snapshots near the p99 are of
# much the same size.
MONERO_HOUR_SEED = 0
MONERO_SELECTS = 32
MONERO_COMMITS_UNTIMED = 2500
MONERO_COMMITS = 3500

# chain-growth: 100 batches, 300 disjoint 2-token rings each (30k
# rings), plus fresh tokens for commits and selects: enough for
# GROWTH_HEADROOM_PER_S commits/s over the whole run (about ten times
# today's rate), so a faster commit path does not run dry.
GROWTH_BATCHES = 100
GROWTH_RINGS_PER_BATCH = 300
GROWTH_RING_SIZE = 2
GROWTH_HEADROOM_PER_S = 600
GROWTH_SELECT_EVERY = 2
GROWTH_RECENT = 4  # selects target one of the last few touched batches


@dataclass
class Chain:
    """The genesis state the daemon recovers, plus generator-side indexes."""

    universe: TokenUniverse
    rings: list[Ring]
    batches: int | None
    #: batch -> token names, in partition order (partitioned chains).
    batch_tokens: list[list[str]] = field(default_factory=list)
    #: batch -> tokens no ring uses yet (consumed by commits).
    fresh: list[list[str]] = field(default_factory=list)

    def fingerprint(self) -> dict:
        digest = hashlib.sha256()
        for token in sorted(self.universe.tokens):
            digest.update(f"{token}={self.universe.ht_of(token)};".encode())
        for ring in self.rings:
            digest.update(f"{ring.rid}:{','.join(sorted(ring.tokens))};".encode())
        return {
            "tokens": len(self.universe.tokens),
            "rings": len(self.rings),
            "batches": self.batches,
            "fresh": sum(len(f) for f in self.fresh),
            "digest": digest.hexdigest()[:16],
        }


def _output_counts(rng: random.Random, total: int) -> list[int]:
    """Monero output counts per transaction (Fig 3 shape) summing to ``total``."""
    values = list(OUTPUT_COUNT_DISTRIBUTION)
    cum = list(accumulate(OUTPUT_COUNT_DISTRIBUTION.values()))
    counts: list[int] = []
    while sum(counts) < total:
        roll = rng.random() * cum[-1]
        counts.append(values[min(bisect.bisect(cum, roll), len(values) - 1)])
    counts[-1] -= sum(counts) - total
    return counts


def _batched_chain(
    rng: random.Random,
    prefix: str,
    batches: int,
    batch_tokens: int,
    rings_per_batch: int,
    ring_size: int,
) -> Chain:
    """A partitioned chain: disjoint batch-local rings with >= 2 HTs each.

    Token names sort batch by batch, so the daemon's
    :class:`~repro.service.partition.TokenPartition` (sorted tokens,
    ceil(n / batches) per batch) puts batch ``b`` exactly on the tokens
    generated for it here.
    """
    width = len(str(batch_tokens - 1))
    mapping: dict[str, str] = {}
    chain = Chain(TokenUniverse(), [], batches)
    for b in range(batches):
        names = [f"{prefix}{b:03d}.{i:0{width}d}" for i in range(batch_tokens)]
        position = 0
        for tx, count in enumerate(_output_counts(rng, batch_tokens)):
            for name in names[position : position + count]:
                mapping[name] = f"{prefix}tx{b:03d}.{tx}"
            position += count
        chain.batch_tokens.append(names)
    chain.universe = TokenUniverse(mapping)
    for b, names in enumerate(chain.batch_tokens):
        pool = names[:]
        rng.shuffle(pool)
        for _ in range(rings_per_batch):
            members = _diverse_pick(pool, ring_size, chain.universe)
            chain.rings.append(
                Ring(rid=f"{prefix}{b:03d}.r{len(chain.rings)}",
                     tokens=frozenset(members), c=C, ell=ELL,
                     seq=len(chain.rings))
            )
        chain.fresh.append(pool)
    return chain


def _diverse_pick(pool: list[str], size: int, universe: TokenUniverse) -> list[str]:
    """Pop ``size`` tokens off ``pool`` spanning at least two HTs."""
    picked = [pool.pop()]
    for index in range(len(pool) - 1, -1, -1):
        if universe.ht_of(pool[index]) != universe.ht_of(picked[0]):
            picked.append(pool.pop(index))
            break
    while len(picked) < size:
        picked.append(pool.pop())
    return picked


def build_chain(workload: str, seed: int, seconds: float) -> Chain:
    rng = random.Random(f"{workload}:{seed}:chain")
    if workload == "monero-exact":
        hour = generate_monero_hour(MONERO_HOUR_SEED)
        return Chain(hour.universe, list(hour.rings), None)
    if workload == "chain-growth":
        fresh = math.ceil(GROWTH_HEADROOM_PER_S * seconds * GROWTH_RING_SIZE
                          / GROWTH_BATCHES)
        return _batched_chain(
            rng, "g", GROWTH_BATCHES,
            GROWTH_RINGS_PER_BATCH * GROWTH_RING_SIZE + fresh,
            GROWTH_RINGS_PER_BATCH, GROWTH_RING_SIZE,
        )
    raise ValueError(f"unknown workload {workload!r}")


# -- request streams ----------------------------------------------------------


def select_op(op_id: str, target: str, mode: str) -> dict:
    return {"op": "select", "id": op_id, "target": target, "c": C, "ell": ELL,
            "mode": mode}


def commit_op(op_id: str, rid: str, tokens: list[str]) -> dict:
    return {"op": "commit", "id": op_id, "rid": rid, "tokens": sorted(tokens),
            "c": C, "ell": ELL}


def _fresh_ring(chain: Chain, rng: random.Random, size: int) -> tuple[int, list[str]] | None:
    """A seeded batch with fresh tokens left, and a new ring over them
    (``None`` once every batch has run dry)."""
    open_batches = [b for b, pool in enumerate(chain.fresh) if len(pool) >= size]
    if not open_batches:
        return None
    batch = rng.choice(open_batches)
    return batch, _diverse_pick(chain.fresh[batch], size, chain.universe)


def warmup(chain: Chain, seed: int) -> list[dict]:
    """One untimed select per batch, so no timed request pays the
    once-per-daemon build of a batch's solver state."""
    rng = random.Random(f"warmup:{seed}")
    return [select_op(f"w{b}", rng.choice(pool), "ladder")
            for b, pool in enumerate(chain.fresh)]


def monero_selects(chain: Chain) -> list[dict]:
    """The fixed list of distinct targets, exact mode."""
    targets = sorted(chain.universe.tokens)
    random.Random("monero-exact:targets").shuffle(targets)
    return [select_op(f"s{index}", target, "exact")
            for index, target in enumerate(targets[:MONERO_SELECTS])]


def monero_commits(chain: Chain, seed: int) -> list[dict]:
    """New rings over the existing super-RS token sets (several rings per
    super RS, the recursive structure the paper analyses)."""
    rng = random.Random(f"monero-exact:{seed}:commits")
    return [commit_op(f"c{index}", f"bench.{index}", list(rng.choice(chain.rings).tokens))
            for index in range(MONERO_COMMITS_UNTIMED + MONERO_COMMITS)]


def growth_ops(chain: Chain, seed: int):
    """Back-to-back commits; a ladder select into a recently touched
    batch after every GROWTH_SELECT_EVERY-th commit.  The select spends
    a token no ring uses yet (a wallet's own fresh output).  Ends when
    the fresh tokens run out."""
    rng = random.Random(f"chain-growth:{seed}:ops")
    recent: list[int] = []
    commits = 0
    while (picked := _fresh_ring(chain, rng, GROWTH_RING_SIZE)) is not None:
        batch, tokens = picked
        yield commit_op(f"c{commits}", f"bench.{commits}", tokens)
        commits += 1
        recent = (recent + [batch])[-GROWTH_RECENT:]
        if commits % GROWTH_SELECT_EVERY == 0:
            touched = [b for b in recent if chain.fresh[b]]
            if touched:
                target = rng.choice(chain.fresh[rng.choice(touched)])
                yield select_op(f"s{commits}", target, "ladder")


def ops_digest(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(json.dumps(line, sort_keys=True).encode())
    return digest.hexdigest()[:16]
