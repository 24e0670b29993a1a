import math
from types import MappingProxyType

import numpy as np
import pytest

from shapsim import (
    BlockAttackAdversary,
    Budget,
    CyclicShiftAdversary,
    DPAdversary,
    EagerAbortAdversary,
    PassiveAdversary,
    PhaseView,
    ProtocolInfeasible,
    StoppingRule,
    dp_build,
    make_lb_game,
    make_pair_game,
    run_allocation,
    seq_perm,
    substream,
)
from shapsim.protocols import _Record
from oracles import spend


# --- budgets -------------------------------------------------------------------

def test_budget_known_cap():
    b = Budget.known(2)
    assert b.allows()
    spend(b)
    spend(b)
    assert not b.allows()
    with pytest.raises(RuntimeError):
        spend(b)


def test_budget_rate_prefix():
    b = Budget.rate(0.5)
    b.samples_seen = 1
    assert not b.allows()  # 1 > 0.5 * 1
    b.samples_seen = 2
    assert b.allows()
    spend(b)
    assert not b.allows()
    b.samples_seen = 4
    assert b.allows()


def test_budget_rate_rejects_bad_fraction():
    with pytest.raises(ValueError):
        Budget.rate(1.5)


def test_budget_reset_clears_counters():
    b = Budget.known(1)
    spend(b)
    b.reset()
    assert b.used == 0 and b.allows()


# --- passive ---------------------------------------------------------------------

def test_passive_never_violates():
    g = make_lb_game(4)
    rec = run_allocation(g, "seq", PassiveAdversary(), StoppingRule.fixed(50),
                         honest=0, seed=3)
    assert rec.violations == 0
    assert all(not dev for _, _, dev in rec.per_sample)


# --- eager spender -----------------------------------------------------------------

def test_eager_spends_whole_budget():
    g = make_lb_game(4)
    adv = EagerAbortAdversary(Budget.known(3))
    rec = run_allocation(g, "seq", adv, StoppingRule.fixed(50), honest=0, seed=4)
    assert rec.violations == 3
    assert adv.budget.used == 3


# --- block attack -------------------------------------------------------------------

def run_block(n, C, block_len, samples, seed, greedy=False):
    g = make_lb_game(n)
    adv = BlockAttackAdversary(Budget.known(C), block_len, greedy=greedy)
    rec = run_allocation(g, "seq", adv, StoppingRule.fixed(samples),
                         honest=0, seed=seed, punish="perpetual")
    return g, adv, rec


def test_block_needs_core_group():
    adv = BlockAttackAdversary(Budget.known(1), 5)
    from shapsim import Game

    with pytest.raises(ProtocolInfeasible):
        adv.reset(n=4, honest=0, rng=substream(1, "a"),
                  game=Game(n=4, utility=lambda m: 0.0))


def test_block_at_most_one_violation_per_block():
    _, adv, rec = run_block(n=6, C=10, block_len=10, samples=100, seed=5)
    assert rec.violations <= 10
    # per-block accounting: spread violations over disjoint blocks
    spent_blocks = set()
    for j, (_, _, dev) in enumerate(rec.per_sample):
        if dev:
            block = j // 10
            assert block not in spent_blocks
            spent_blocks.add(block)


def test_block_no_opportunity_no_violation():
    # with block length 1 and few samples, some samples see no opportunity
    _, adv, rec = run_block(n=6, C=100, block_len=1, samples=200, seed=6)
    assert adv.opportunities_seen >= rec.violations
    assert rec.violations < 200  # opportunities are rare events


def test_block_greedy_seizes_every_opportunity():
    _, adv, rec = run_block(n=6, C=100, block_len=50, samples=200, seed=7, greedy=True)
    assert rec.violations == min(adv.opportunities_seen, 100)


def test_block_opportunity_frequency_matches_uniform_orders():
    # the trigger event depends only on the uniform elimination order: the
    # last three players are {honest, core member, outsider} with the
    # outsider drawn first; estimate via direct order sampling at n = 100
    n = 100
    p0 = 2 * (n / 2) * (n / 2 - 1) / (n * (n - 1) * (n - 2))
    assert p0 == pytest.approx(0.0050505, abs=1e-6)
    rng = np.random.default_rng(8)
    trials = 100_000
    hits = 0
    core = set(range(1, n // 2 + 1))
    for _ in range(0, trials, 10_000):
        block = np.argsort(rng.random((10_000, n)), axis=1)
        last3 = block[:, -3:]
        first = last3[:, 0]
        rest = np.sort(last3[:, 1:], axis=1)
        outsider_first = first > n // 2
        honest_in = rest[:, 0] == 0
        core_in = (rest[:, 1] >= 1) & (rest[:, 1] <= n // 2)
        hits += int(np.sum(outsider_first & honest_in & core_in))
    freq = hits / trials
    sigma = math.sqrt(p0 * (1 - p0) / trials)
    assert abs(freq - p0) < 4 * sigma


def test_block_damage_half_alpha_when_seized():
    # when an opportunity is seized the honest player wins the final duel
    # with probability 1/2 for a reward of alpha, instead of a sure alpha
    g = make_lb_game(6)
    alpha = g.extras["alpha"]
    seized_rewards = []
    for seed in range(400):
        adv = BlockAttackAdversary(Budget.known(1), 1, greedy=True)
        rec = run_allocation(g, "seq", adv, StoppingRule.fixed(60),
                             honest=0, seed=seed, punish="perpetual")
        for (y, z, dev) in rec.per_sample:
            if dev:
                seized_rewards.append(y - z)  # realized honest reward
    assert len(seized_rewards) > 50
    mean = float(np.mean(seized_rewards))
    sigma = float(np.std(seized_rewards) / math.sqrt(len(seized_rewards)))
    assert abs(mean - alpha / 2) < 4 * sigma


def test_block_infeasible_without_eliminations_is_fine_smoke():
    # n=4 pool hits size 3 immediately after one elimination; smoke-check
    g, adv, rec = run_block(n=4, C=2, block_len=5, samples=10, seed=9)
    assert rec.samples_used == 10


# --- the one abort rule ---------------------------------------------------------------

def _open_once(strategy: str, budget: int, chance: bool):
    """One open-hook call of ``strategy`` on a 4-player game.

    With ``chance`` the honest opening gives the strategy a reason to abort;
    without, it has none (the cyclic shift needs no drop, or the honest
    player is drawn, which is no block opportunity either).
    """
    if strategy == "cyclic":
        game, honest = make_pair_game(4, 3, 2), 3
        adv = CyclicShiftAdversary(Budget.known(budget))
    else:
        game, honest = make_lb_game(4), 0
        adv = {"eager": lambda b: EagerAbortAdversary(b),
               "block": lambda b: BlockAttackAdversary(b, 1),
               "dp": lambda b: DPAdversary(dp_build(game, 0, 1, 1, decisions=True), b),
               }[strategy](Budget.known(budget))
    adv.reset(n=4, honest=honest, rng=substream(1, "adversary"), game=game, planned_samples=1)
    adv.begin_sample(0)
    if strategy == "cyclic":
        pool, susceptible = (0, 1, 2, 3), (0, 1, 2)
        rows = adv.commit_permutations(PhaseView(pool, None), susceptible, 4).tolist()
        record = MappingProxyType({p: tuple(row) for p, row in zip(susceptible, rows)})
        honest_perm = (0, 1, 2, 3) if chance else (1, 0, 2, 3)  # drop 1, or drop 0
        return adv, susceptible, record, adv.open_permutations(
            PhaseView(pool, honest_perm), susceptible, record, 4)
    # core member 1 and outsider 3 left with the honest player: draw 2 picks
    # the outsider, which every strategy here answers by aborting player 1;
    # draw 0 picks the honest player
    pool, susceptible = (0, 1, 3), (1, 3)
    record = _Record((1, 3), (0, 0))  # what rand_elim hands an open hook
    return adv, susceptible, record, adv.open_draws(
        PhaseView(pool, 2 if chance else 0), susceptible, record, 3)


@pytest.mark.parametrize("budget, chance", [(0, True), (1, False), (1, True)],
                         ids=["budget-0", "no-reason", "aborts"])
@pytest.mark.parametrize("strategy", ["cyclic", "eager", "block", "dp"])
def test_a_strategy_that_does_not_abort_returns_the_record_it_got(strategy, budget, chance):
    adv, susceptible, record, opened = _open_once(strategy, budget, chance)
    if not (budget and chance):
        assert opened is record
        assert adv.budget.used == 0
        return
    aborted = [p for p in susceptible if opened[p] is None]
    assert len(aborted) == 1
    assert {p: v for p, v in opened.items() if p not in aborted} == {
        p: v for p, v in record.items() if p not in aborted}
    assert adv.budget.used == 1
