"""Tests for the pure-integer fault decision functions."""

import itertools

import pytest

from repro.faults import PROTO_TAG, FaultInjector, FaultPlan, unit_hash


class TestUnitHash:
    def test_deterministic(self):
        assert unit_hash(1, 2, 3) == unit_hash(1, 2, 3)

    def test_in_unit_interval(self):
        for i in range(200):
            u = unit_hash(42, i)
            assert 0.0 <= u < 1.0

    def test_sensitive_to_every_coordinate(self):
        base = unit_hash(1, 2, 3, 4)
        assert base != unit_hash(2, 2, 3, 4)
        assert base != unit_hash(1, 3, 3, 4)
        assert base != unit_hash(1, 2, 4, 4)
        assert base != unit_hash(1, 2, 3, 5)

    def test_roughly_uniform(self):
        n = 2000
        mean = sum(unit_hash(7, i) for i in range(n)) / n
        assert 0.45 < mean < 0.55


class TestDropAndDuplicate:
    def test_zero_rate_never_fires(self):
        inj = FaultInjector(FaultPlan(seed=1), nprocs=4)
        assert not any(
            inj.drop(0, 1, 0, seq) or inj.duplicate(0, 1, 0, seq)
            for seq in range(100)
        )

    def test_rate_matches_frequency(self):
        inj = FaultInjector(FaultPlan(seed=1, drop_rate=0.3), nprocs=4)
        n = 2000
        dropped = sum(inj.drop(0, 1, 0, seq) for seq in range(n))
        assert 0.25 < dropped / n < 0.35

    def test_decisions_are_reproducible(self):
        a = FaultInjector(FaultPlan(seed=5, drop_rate=0.5), nprocs=4)
        b = FaultInjector(FaultPlan(seed=5, drop_rate=0.5), nprocs=4)
        for seq in range(50):
            assert a.drop(0, 1, 0, seq) == b.drop(0, 1, 0, seq)

    def test_seed_changes_decisions(self):
        a = FaultInjector(FaultPlan(seed=1, drop_rate=0.5), nprocs=4)
        b = FaultInjector(FaultPlan(seed=2, drop_rate=0.5), nprocs=4)
        fates_a = [a.drop(0, 1, 0, seq) for seq in range(64)]
        fates_b = [b.drop(0, 1, 0, seq) for seq in range(64)]
        assert fates_a != fates_b

    def test_drop_and_duplicate_are_independent_channels(self):
        plan = FaultPlan(seed=3, drop_rate=0.5, dup_rate=0.5)
        inj = FaultInjector(plan, nprocs=4)
        fates = [
            (inj.drop(0, 1, 0, s), inj.duplicate(0, 1, 0, s))
            for s in range(64)
        ]
        # the two Bernoulli streams disagree somewhere (salts differ)
        assert any(d != p for d, p in fates)

    def test_retransmits_get_fresh_fates(self):
        # seq is part of the coordinates: a retransmitted message (new seq)
        # is not doomed to repeat the original's fate
        inj = FaultInjector(FaultPlan(seed=1, drop_rate=0.5), nprocs=4)
        fates = [inj.drop(0, 1, 0, seq) for seq in range(32)]
        assert True in fates and False in fates


class TestDecisionsMatchUnitHash:
    """Golden check: each per-message decision continues a cached
    ``(seed, channel)`` hash prefix, and must stay bit-identical to the
    one-shot ``unit_hash(seed, channel, src, dst, tag, seq)``."""

    #: channel salts of the drop, duplicate and jitter streams
    DROP, DUP, JITTER = 1, 2, 3
    COORDS = list(itertools.product(
        range(3), range(3), (0, 1, 7, 2**20 + 5, PROTO_TAG), (0, 1, 2, 977),
    ))

    @pytest.mark.parametrize("seed", [0, 1, 2002, 2**63 + 11])
    def test_jitter_equals_unit_hash(self, seed):
        inj = FaultInjector(FaultPlan(seed=seed, jitter=1.0), nprocs=3)
        for src, dst, tag, seq in self.COORDS:
            assert inj.extra_delay(src, dst, tag, seq) == unit_hash(
                seed, self.JITTER, src, dst, tag, seq
            )

    @pytest.mark.parametrize("seed", [0, 1, 2002, 2**63 + 11])
    @pytest.mark.parametrize("rate", [0.05, 0.5, 0.95])
    def test_drop_and_duplicate_threshold_unit_hash(self, seed, rate):
        plan = FaultPlan(seed=seed, drop_rate=rate, dup_rate=rate)
        inj = FaultInjector(plan, nprocs=3)
        for src, dst, tag, seq in self.COORDS:
            assert inj.drop(src, dst, tag, seq) == (
                unit_hash(seed, self.DROP, src, dst, tag, seq) < rate
            )
            assert inj.duplicate(src, dst, tag, seq) == (
                unit_hash(seed, self.DUP, src, dst, tag, seq) < rate
            )


class TestLinksAndRanks:
    def test_link_factor_defaults_to_one(self):
        inj = FaultInjector(FaultPlan(seed=1), nprocs=4)
        assert inj.link_factor(0, 1) == 1.0

    def test_all_links_slow_at_rate_one(self):
        plan = FaultPlan(seed=1, slow_link_rate=1.0, slow_link_factor=3.0)
        inj = FaultInjector(plan, nprocs=3)
        for src in range(3):
            for dst in range(3):
                if src != dst:
                    assert inj.link_factor(src, dst) == 3.0

    def test_stragglers_at_rate_extremes(self):
        none = FaultInjector(FaultPlan(seed=1), nprocs=6)
        assert none.straggler_ranks() == ()
        assert none.compute_factors(6) == [1.0] * 6
        every = FaultInjector(
            FaultPlan(seed=1, straggler_rate=1.0, straggler_factor=2.5),
            nprocs=6,
        )
        assert every.straggler_ranks() == tuple(range(6))
        assert every.compute_factors(6) == [2.5] * 6

    def test_pause_intervals(self):
        inert = FaultInjector(FaultPlan(seed=1, pause_rate=1.0), nprocs=3)
        # zero duration -> no pause machinery at all
        assert inert.pause_intervals(3) is None
        plan = FaultPlan(
            seed=1, pause_rate=1.0, pause_start=0.5, pause_duration=0.25
        )
        paused = FaultInjector(plan, nprocs=3)
        assert paused.pause_intervals(3) == [[(0.5, 0.75)]] * 3
