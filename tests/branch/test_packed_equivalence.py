"""Differential property test: the packed indirect predictor vs its
reference.

The XBC's XiBTB and ``BuildEngine`` run the packed-array
:class:`IndirectPredictor`; the original dict implementation,
:class:`ReferenceIndirectPredictor`, is kept as its behavioural
oracle.  The test drives both with the same pseudo-random operation
stream and checks every return value and every statistics counter
along the way, so any divergence is pinned to the first operation that
caused it.

Addresses are drawn from a small pool on purpose: the interesting
behaviour (history-indexed slot collisions) only happens under
contention.
"""

import random

import pytest

from repro.branch.indirect import IndirectPredictor, ReferenceIndirectPredictor

SEEDS = (0, 1, 2, 3, 4)
OPS = 4000


def _ip_pool(rng, size):
    """Even (instruction-aligned) addresses, small enough to alias."""
    return [rng.randrange(0x1000, 0x40000) & ~1 for _ in range(size)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("table_entries,history_bits", [(256, 8), (64, 4), (128, 0)])
class TestIndirectEquivalence:
    def test_random_stream(self, seed, table_entries, history_bits):
        rng = random.Random(seed)
        pool = _ip_pool(rng, 48)
        targets = _ip_pool(rng, 8)
        packed = IndirectPredictor(
            table_entries=table_entries, history_bits=history_bits
        )
        ref = ReferenceIndirectPredictor(
            table_entries=table_entries, history_bits=history_bits
        )
        for step in range(OPS):
            ip = rng.choice(pool)
            roll = rng.random()
            if roll < 0.3:
                assert packed.predict(ip) == ref.predict(ip), f"step {step}"
            elif roll < 0.8:
                actual = rng.choice(targets)
                assert packed.update(ip, actual, actual) == ref.update(
                    ip, actual, actual
                ), f"step {step}"
            else:
                actual = rng.choice(targets)
                packed.train(ip, actual, actual)
                ref.train(ip, actual, actual)
            assert packed.history == ref.history
            assert packed.predictions == ref.predictions
            assert packed.mispredictions == ref.mispredictions
        assert packed.accuracy == ref.accuracy
