"""The hot path's shortcut draws are the library's draws, draw for draw.

``repro.sim.batch`` and ``repro.core.strategies`` draw below
``random.Random``'s public wrappers (see the "Bit-identity" paragraph
of :mod:`repro.sim.batch`).  Each test here pins one shortcut to the
wrapper it replaces, so a CPython whose ``random`` changes those draws
fails with the cause named, not only in the kernel-equivalence matrix.
"""

from __future__ import annotations

import random

import pytest

SEEDS = [0, 1, 7, 1992, 2**32 + 3]


def test_randbelow_is_the_getrandbits_rejection_loop():
    # The depletion draw inlines this method's body.
    assert (
        random.Random._randbelow
        is random.Random._randbelow_with_getrandbits
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_inlined_depletion_draw_picks_what_randrange_picks(seed):
    """The run loop's rejection loop over a list shrinking 25 -> 1."""
    inlined = random.Random(seed)
    library = random.Random(seed)
    getrandbits = inlined.getrandbits
    unfinished = list(range(25))
    expected = list(unfinished)
    left = len(unfinished)
    bits = left.bit_length()
    while left:
        for _ in range(3):
            pick = getrandbits(bits)
            while pick >= left:
                pick = getrandbits(bits)
            assert pick == library.randrange(len(expected))
        run = unfinished[pick]
        unfinished.remove(run)
        expected.remove(run)
        left -= 1
        bits = left.bit_length()
    assert inlined.getstate() == library.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_randbelow_is_randrange_for_positive_bounds(seed):
    """The RANDOM victim draw: ``_randbelow(n)`` for ``randrange(n)``."""
    direct = random.Random(seed)
    library = random.Random(seed)
    for n in [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 100] * 5:
        assert direct._randbelow(n) == library.randrange(n)
    assert direct.getstate() == library.getstate()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("period", [1e-9, 0.5, 8.33, 16.67, 1e6])
def test_scaled_random_is_uniform_from_zero(seed, period):
    """The rotation draw: ``p * random()`` for ``uniform(0.0, p)``."""
    direct = random.Random(seed)
    library = random.Random(seed)
    for _ in range(200):
        value = period * direct.random()
        reference = library.uniform(0.0, period)
        assert value == reference
        assert value.hex() == reference.hex()
