"""Elimination-protocol guarantees across the full strategy/size matrix.

The acceptance module checks the same bounds at 10^5 trials on a reduced
matrix; here every (size, strategy) pair is exercised at a lighter trial
count.
"""

import math

import numpy as np

from shapsim import (
    BlockAttackAdversary,
    Budget,
    DPAdversary,
    EagerAbortAdversary,
    PassiveAdversary,
    dp_build,
    make_lb_game,
    make_pair_game,
    rand_elim,
    seq_perm,
    substream,
)

TRIALS = 20_000
_TABLES: dict = {}


def all_strategies(n):
    lb = make_lb_game(n) if n % 2 == 0 and n >= 4 else None
    yield "passive", PassiveAdversary(), None
    yield "eager", EagerAbortAdversary(Budget.known(1)), None
    if n not in _TABLES:
        _TABLES[n] = dp_build(make_pair_game(n), 0, R=1, C=1, decisions=True)
    yield "dp", DPAdversary(_TABLES[n], Budget.known(1)), None
    if lb is not None:
        yield "block", BlockAttackAdversary(Budget.known(1), 1, greedy=True), lb


def test_single_round_elimination_bound_full_matrix():
    for size in range(2, 7):
        pool = tuple(range(size))
        for name, adv, lb in all_strategies(size):
            adv.reset(n=size, honest=0, rng=substream(200 + size, "adversary", name),
                      game=lb if lb is not None else make_pair_game(size))
            rng = substream(200 + size, "honest", name)
            floats = rng.random(TRIALS)
            hits = 0
            for i in range(TRIALS):
                adv.budget.reset()
                adv.begin_sample(0)
                eliminated, _ = rand_elim(pool, 0, adv, rng,
                                          honest_draw=int(floats[i] * size))
                hits += eliminated == 0
            bound = 1 / size
            sigma = math.sqrt(bound * (1 - bound) / TRIALS)
            assert hits / TRIALS <= bound + 3 * sigma, (size, name, hits / TRIALS)


def test_top_rank_bound_full_matrix():
    for n in range(3, 7):
        for name, adv, lb in all_strategies(n):
            adv.reset(n=n, honest=0, rng=substream(210 + n, "adversary", name),
                      game=lb if lb is not None else make_pair_game(n))
            rng = substream(210 + n, "honest", name)
            rank_counts = np.zeros(n + 1, dtype=np.int64)
            for i in range(TRIALS):
                adv.budget.reset()
                adv.begin_sample(0)
                rank_counts[seq_perm(range(n), 0, adv, rng).rank_of(0)] += 1
            top = np.cumsum(rank_counts[::-1])[1:]
            for k in range(1, n + 1):
                freq = top[k - 1] / TRIALS
                bound = k / n
                sigma = math.sqrt(bound * (1 - bound) / TRIALS) if 0 < bound < 1 else 0.0
                assert freq >= bound - 3 * sigma, (n, name, k, freq)
