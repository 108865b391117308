"""Equivalence of the columnar batch kernels.

The kernel contract: verdicts are exact and per-candidate — the
batched big-int mask pre-filter and batching turned off entirely must
both leave ``bfs_select`` (and the per-candidate event stream it emits)
byte-identical to the frozen seed reference.  These tests pin that
contract, the factorized ``extend_batch`` against the materializing
``WorldSet.extend``, the verdict semantics against the seed feasibility
check, the batching switch, and the deadline-abort path.
"""

import random

import pytest

from repro.core.bfs import SearchBudgetExceeded, bfs_select
from repro.core.perf import kernels
from repro.core.perf.cache import SolverCache
from repro.core.perf.kernels import (
    KERNEL_BATCH_SIZE,
    KernelState,
    batching,
    prefilter_chunk,
)
from repro.core.perf.reference import (
    _candidate_feasible_reference,
    bfs_select_reference,
)
from repro.core.perf.worlds import WorldSet
from repro.core.problem import DamsInstance, InfeasibleError
from repro.core.ring import Ring, TokenUniverse
from repro.obs import events, metrics

def random_instance(seed, token_count=8, ht_count=4, history=2):
    rng = random.Random(seed)
    tokens = [f"t{i}" for i in range(token_count)]
    universe = TokenUniverse(
        {token: f"h{rng.randrange(ht_count)}" for token in tokens}
    )
    rings = []
    for i in range(rng.randint(0, history)):
        size = rng.randint(2, 4)
        rings.append(
            Ring(
                rid=f"r{i}",
                tokens=frozenset(rng.sample(tokens, size)),
                c=1.0,
                ell=1,
                seq=i,
            )
        )
    target = tokens[rng.randrange(token_count)]
    c = rng.choice([1.0, 2.0])
    ell = rng.choice([2, 3])
    return DamsInstance(universe, rings, target, c=c, ell=ell)


def outcomes_of(solver, instance, **kwargs):
    try:
        result = solver(instance, **kwargs)
    except InfeasibleError:
        return ("infeasible", None)
    return (
        "ok",
        (result.ring.tokens, result.mixins, result.candidates_checked),
    )


class TestBatchingSwitch:
    def test_batching_switch_restores_previous(self):
        assert kernels._BATCHING
        with batching(False):
            assert not kernels._BATCHING
        assert kernels._BATCHING

    def test_off_disables_prefiltering(self):
        instance = random_instance(0)
        cache = SolverCache(instance.universe, instance.rings)
        with batching(False):
            assert prefilter_chunk(instance, cache, [("t1",)]) is None


def make_ring(rid, tokens, seq=0):
    return Ring(rid=rid, tokens=frozenset(tokens), c=1.0, ell=1, seq=seq)


class TestExtendBatch:
    @pytest.mark.parametrize("seed", range(10))
    def test_counts_match_materialized_extend(self, seed):
        rng = random.Random(seed)
        tokens = [f"t{i}" for i in range(9)]
        universe = TokenUniverse({t: f"h{i % 4}" for i, t in enumerate(tokens)})
        rings = [
            make_ring(f"r{i}", rng.sample(tokens, rng.randint(2, 4)), seq=i)
            for i in range(rng.randint(1, 3))
        ]
        worlds = WorldSet(rings)
        state = KernelState(worlds, universe)
        candidates = [
            frozenset(rng.sample(tokens, rng.randint(1, 4))) for _ in range(8)
        ]
        extensions = state.extend_batch(candidates)
        for cand_tokens, extension in zip(candidates, extensions):
            candidate = make_ring("r_tau", cand_tokens, seq=99)
            assert extension.count == len(worlds.extend(candidate)), (
                f"extension count diverged for {sorted(cand_tokens)}"
            )


class TestVerdictSemantics:
    @pytest.mark.parametrize("seed", range(10))
    def test_resolved_verdicts_match_seed_feasibility(self, seed):
        # Large histories force closures of 4+ rings: the sweep has no
        # size bound, so every verdict must be exact even there.
        instance = random_instance(1000 + seed, token_count=9, history=4)
        cache = SolverCache(instance.universe, instance.rings)
        sigma = sorted(instance.candidate_mixins())
        from itertools import combinations

        chunk = [combo for combo in combinations(sigma, 2)][:KERNEL_BATCH_SIZE]
        verdicts = prefilter_chunk(instance, cache, chunk)
        assert verdicts is not None and len(verdicts) == len(chunk)
        for mixin_tuple, verdict in zip(chunk, verdicts):
            candidate = instance.make_ring(mixin_tuple)
            truth = _candidate_feasible_reference(instance, candidate)
            if verdict == "feasible":
                assert truth, f"kernel feasible but seed rejects {mixin_tuple}"
            else:
                assert verdict in ("ht", "eliminated", "dtrs")
                assert not truth, (
                    f"kernel filtered at {verdict} but seed accepts {mixin_tuple}"
                )

    def test_every_candidate_resolves(self):
        # The sweep is complete at any closure size — no candidate is
        # ever deferred to the per-candidate tail.
        instance = random_instance(7, history=2)
        cache = SolverCache(instance.universe, instance.rings)
        sigma = sorted(instance.candidate_mixins())
        from itertools import combinations

        chunk = list(combinations(sigma, 2))[:KERNEL_BATCH_SIZE]
        verdicts = prefilter_chunk(instance, cache, chunk)
        assert verdicts is not None
        assert set(verdicts) <= {"ht", "eliminated", "dtrs", "feasible"}


class TestBfsEquivalence:
    @pytest.mark.parametrize("batched", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("seed", range(8))
    def test_batching_equals_reference(self, batched, seed):
        instance = random_instance(seed, history=3)
        with batching(batched):
            ours = outcomes_of(bfs_select, instance)
        assert ours == outcomes_of(bfs_select_reference, instance), (
            f"batching={batched} diverged on seed {seed}"
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_parallel_equals_serial(self, seed):
        instance = random_instance(40 + seed, history=3)
        serial = outcomes_of(bfs_select, instance)
        parallel = outcomes_of(bfs_select, instance, workers=2)
        assert parallel == serial

    @pytest.mark.parametrize("seed", range(6))
    def test_sequential_chain_identical_across_backends(self, seed):
        # Fig-4-style chains: each accepted ring joins the next
        # instance's history, compounding any verdict bug.  Batching on
        # and off must produce identical chains.
        def run_chain(batched):
            rng = random.Random(2000 + seed)
            universe = TokenUniverse(
                {f"t{i:02d}": f"h{rng.randrange(5)}" for i in range(12)}
            )
            rings, out, consumed = [], [], set()
            with batching(batched):
                for index in range(3):
                    free = sorted(universe.tokens - consumed)
                    target = free[rng.randrange(len(free))]
                    instance = DamsInstance(
                        universe, list(rings), target, c=2.0, ell=3
                    )
                    outcome = outcomes_of(bfs_select, instance)
                    out.append(outcome)
                    if outcome[0] != "ok":
                        break
                    tokens = outcome[1][0]
                    rings.append(
                        Ring(
                            rid=f"g{index}", tokens=tokens, c=2.0, ell=3,
                            seq=index,
                        )
                    )
                    consumed.add(target)
            return out

        assert run_chain(True) == run_chain(False), "batched chain diverged"

    @pytest.mark.parametrize("seed", range(4))
    def test_candidate_events_identical_across_backends(self, seed):
        # The replay emits CandidateScanned with the same gate the
        # per-candidate path reports, so the bfs.* counters — part of
        # the deterministic view — must match with batching on or off.
        instance = random_instance(90 + seed, history=3)

        def bfs_counters(batched):
            with batching(batched):
                with metrics.recording() as rec:
                    outcomes_of(bfs_select, instance)
            return {
                name: value
                for name, value in events.deterministic_view(
                    rec.counters
                ).items()
                if name.startswith("bfs.")
            }

        baseline = bfs_counters(False)
        assert baseline.get("bfs.candidates")
        assert bfs_counters(True) == baseline, "batched event stream diverged"


class TestDeadlines:
    def blowup_instance(self):
        # 11 rings over 12 fully-shared tokens: the first candidate's
        # closure world enumeration is astronomically large.
        tokens = {f"t{i}" for i in range(12)}
        universe = TokenUniverse({t: f"h{t[1:]}" for t in tokens})
        rings = [
            Ring(rid=f"r{i}", tokens=frozenset(tokens), c=1.0, ell=1, seq=i)
            for i in range(11)
        ]
        return DamsInstance(universe, rings, "t0", c=1.0, ell=1)

    def test_prefilter_returns_none_on_expired_deadline(self):
        instance = self.blowup_instance()
        cache = SolverCache(instance.universe, instance.rings)
        verdicts = prefilter_chunk(instance, cache, [("t1",)], deadline=0.0)
        assert verdicts is None  # state build aborted, caller falls back

    def test_budget_trips_inside_candidate(self):
        import time as time_module

        instance = self.blowup_instance()
        start = time_module.perf_counter()
        with pytest.raises(SearchBudgetExceeded):
            bfs_select(instance, time_budget=0.3)
        assert time_module.perf_counter() - start < 5.0
