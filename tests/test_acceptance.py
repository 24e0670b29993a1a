"""End-to-end acceptance checks.

Each test exercises one exit criterion at its stated tolerance and prints a
``[acceptance N] PASS`` line (run with ``pytest -s`` to see them inline).
"""

import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest
from scipy import stats as sps

from shapsim import (
    BlockAttackAdversary,
    Budget,
    CyclicShiftAdversary,
    DPAdversary,
    EagerAbortAdversary,
    PassiveAdversary,
    StoppingRule,
    dp_build,
    make_lb_game,
    make_max_gamma_game,
    make_pair_game,
    make_synergy_game,
    naive_perm,
    parallel_runs,
    rand_elim,
    run_adaptive,
    run_allocation,
    seq_perm,
    shapley_exact,
    shapley_via_permutations,
    substream,
)
from shapsim.hypergraph import Hypergraph
from oracles import (
    lockstep_reference,
    pinned_rank1_expectation,
    random_monotone_game,
    random_simple_graph,
    random_supermodular_game,
    shapley_exhaustive,
    worst_case_value,
)


def _pass(num: int, message: str) -> None:
    print(f"\n[acceptance {num:2d}] PASS  {message}")


def test_c01_shapley_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(20):
        n = int(rng.integers(3, 9))
        game = random_monotone_game(rng, n)
        subset_form = shapley_exact(game).phi
        permutation_form = shapley_via_permutations(game)
        np.testing.assert_allclose(subset_form, permutation_form, rtol=1e-9, atol=1e-12)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 20
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _pass(1, f"20 random monotone games, subset form == n! enumeration ({elapsed:.1f}s)")


def test_c02_gamma_laws():
    rng = np.random.default_rng(102)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        game = make_synergy_game(random_simple_graph(rng, n))
        assert shapley_exact(game).gamma == pytest.approx(2.0, rel=1e-12)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        game = random_supermodular_game(rng, n)
        assert shapley_exact(game).gamma <= n + 1e-9
    for n in (3, 5, 7):
        bound = n * math.comb(n - 1, (n - 1) // 2)
        got = shapley_exhaustive(make_max_gamma_game(n)).gamma
        assert got == pytest.approx(bound, rel=1e-12)
    _pass(2, "simple graphs at 2 exactly; supermodular <= n; pivot game meets the cap")


def test_c03_uniformity_and_rank_one_attack():
    n, trials = 4, 100_000
    adv = PassiveAdversary()
    adv.reset(n=n, honest=n - 1, rng=substream(103, "adversary"))
    rng = substream(103, "honest")
    counts = Counter()
    for _ in range(trials):
        counts[naive_perm(range(n), n - 1, adv, rng).order] += 1
    observed = [counts[p] for p in itertools.permutations(range(n))]
    assert len(observed) == 24
    p_value = sps.chisquare(observed).pvalue
    assert p_value > 0.001, f"chi-square p={p_value}"

    cyc = CyclicShiftAdversary(Budget.unlimited())
    cyc.reset(n=n, honest=n - 1, rng=substream(104, "adversary"))
    rng = substream(104, "honest")
    rank_one = 0
    for _ in range(trials):
        out = naive_perm(range(n), n - 1, cyc, rng)
        if out.rank_of(n - 1) == 1 and out.violations_used <= 1:
            rank_one += 1
    assert rank_one == trials
    _pass(3, f"chi-square p={p_value:.3f} on 10^5 passive samples; "
             f"rank 1 in {rank_one}/{trials} shift attacks with <=1 violation")


def _claim_adversaries(n: int, game, table_cache: dict):
    """Built-in strategies applicable to elimination rounds."""
    yield "passive", lambda: PassiveAdversary()
    yield "eager", lambda: EagerAbortAdversary(Budget.known(1))
    if n not in table_cache:
        table_cache[n] = dp_build(make_pair_game(n), 0, R=1, C=1, decisions=True)
    yield "dp", lambda: DPAdversary(table_cache[n], Budget.known(1))
    if game is not None:
        yield "block", lambda: BlockAttackAdversary(Budget.known(1), 1, greedy=True)


def test_c04_elimination_claims():
    # every built-in strategy is exercised at the largest size n = 6, where
    # aborts have the most room; the passive baseline covers every n <= 6
    t0 = time.perf_counter()
    trials = 100_000
    tables: dict = {}

    def combos(n, claim_tag):
        lb = make_lb_game(n) if n % 2 == 0 and n >= 4 else None
        for name, factory in _claim_adversaries(n, lb, tables):
            if n < 6 and name != "passive":
                continue
            adv = factory()
            adv.reset(n=n, honest=0, rng=substream(1040 + n, "adversary", name, claim_tag),
                      game=lb if name == "block" else make_pair_game(n))
            yield name, adv, substream(1040 + n, "honest", name, claim_tag)

    # honest elimination probability at most 1/|S| in a single round
    for size in range(2, 7):
        pool = tuple(range(size))
        for name, adv, rng in combos(size, "elim"):
            floats = rng.random(trials)
            hits = 0
            for i in range(trials):
                adv.budget.reset()
                adv.begin_sample(0)
                eliminated, _ = rand_elim(pool, 0, adv, rng, honest_draw=int(floats[i] * size))
                hits += eliminated == 0
            bound = 1 / size
            sigma = math.sqrt(bound * (1 - bound) / trials)
            assert hits / trials <= bound + 3 * sigma, (size, name, hits / trials)

    # honest player in the top k most preferable ranks w.p. at least k/n
    for n in range(3, 7):
        for name, adv, rng in combos(n, "rank"):
            rank_counts = np.zeros(n + 1, dtype=np.int64)
            for _ in range(trials):
                adv.budget.reset()
                adv.begin_sample(0)
                out = seq_perm(range(n), 0, adv, rng)
                rank_counts[out.rank_of(0)] += 1
            top = np.cumsum(rank_counts[::-1])[1:]  # top-k counts, k = 1..n
            for k in range(1, n + 1):
                freq = top[k - 1] / trials
                bound = k / n
                sigma = math.sqrt(bound * (1 - bound) / trials) if 0 < bound < 1 else 0.0
                assert freq >= bound - 3 * sigma, (n, name, k, freq)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _pass(4, f"elimination and top-k bounds hold for every strategy ({elapsed:.1f}s)")


def test_c05_optimal_attack_value():
    game = make_pair_game(3)
    table = dp_build(game, 0, R=1, C=2, decisions=True)
    assert table.worst_value() == pytest.approx(2 / 3, abs=1e-9)

    stats = parallel_runs(game, 0, R=1, C=2, M=100_000, seed=105, table=table)
    assert abs(stats.mean - 2 / 3) <= 3 * stats.stderr

    for g in (make_pair_game(2), make_pair_game(3), make_pair_game(4), make_lb_game(4)):
        for R in (1, 2):
            for C in (0, 1, 2):
                oracle = worst_case_value(g, 0, R, C)
                value = dp_build(g, 0, R, C).worst_value()
                assert value == pytest.approx(oracle, abs=1e-9), (g.name, R, C)
    _pass(5, f"table value 2/3 exact; Monte Carlo {stats.mean:.4f} +- {stats.stderr:.4f}; "
             "game-tree oracle matched on all tiny instances")


def test_c06_dp_closed_forms():
    game = make_lb_game(8)
    R, C = 50, 5
    table = dp_build(game, 0, R, C)
    phi, umax = 1.0, game.extras["alpha"]
    for T in range(R):
        expect = (T + 1) * phi
        assert table.rows[T, 0] == pytest.approx(expect, rel=1e-6)
        floor = expect - np.arange(C + 1) * umax
        assert np.all(table.rows[T] >= floor - 1e-6 * max(1.0, expect))
    _pass(6, "zero-budget column equals (T+1)*phi; damage floor holds on all entries")


def test_c07_high_probability_security_desk_scale():
    t0 = time.perf_counter()
    game = make_lb_game(8)
    eps, delta, C, M = 0.2, 0.1, 2, 1000
    rule = StoppingRule.known_budget(eps, delta, C, game.protocol_gamma)
    assert rule.R == 3685
    table = dp_build(game, 0, rule.R, C, decisions=True)
    stats = parallel_runs(game, 0, rule.R, C, M, seed=107, table=table)
    phi = 1.0
    failures = int(np.sum(stats.x_honest < (1 - eps) * phi))
    elapsed = time.perf_counter() - t0
    assert failures / M <= delta, f"{failures}/{M} runs failed"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    # the published full-scale variant (n=100, R=8e5, M=1000) is not a desk
    # workload; the drivers refuse it without --full-scale
    from shapsim.cli import EXIT_CONFIG, main

    rc = main(["cdf", "--game", "lb", "--n", "100", "--protocol", "seq",
               "--adversary", "passive", "--stopping", "known", "--budget", "200",
               "--eps", "0.05", "--delta", "0.082", "--M", "1000", "--out", "-"])
    assert rc == EXIT_CONFIG
    _pass(7, f"known-budget run R={rule.R}: {failures}/{M} failures <= delta={delta} "
             f"({elapsed:.1f}s); full-scale variant gated")


def test_c08_sample_complexity_bracket_and_trends():
    from shapsim.cli import min_samples_scan

    game = make_lb_game(10)
    min_r = min_samples_scan(game, 0, C=2, eps=0.05, r_max=600)
    n_c_over_10eps = 10 * 2 / (10 * 0.05)
    gamma_c_over_eps = 10 * 2 / 0.05
    assert n_c_over_10eps == 40 and gamma_c_over_eps == 400
    assert 40 <= min_r <= 400, min_r

    grid_c = (1, 2, 4)
    grid_eps = (0.1, 0.05, 0.025)
    table = {}
    for c in grid_c:
        for e in grid_eps:
            table[c, e] = min_samples_scan(game, 0, C=c, eps=e, r_max=3000)
    for e in grid_eps:
        rs = [table[c, e] for c in grid_c]
        assert rs == sorted(rs), f"not monotone in budget at eps={e}: {rs}"
    for c in grid_c:
        rs = [table[c, e] for e in grid_eps]
        assert rs == sorted(rs), f"not monotone in 1/eps at C={c}: {rs}"
    _pass(8, f"min sample count {min_r} inside [40, 400]; 3x3 grid trends hold")


def test_c09_adaptive_rate_bound():
    h = Hypergraph(n=4, edges=((frozenset({0, 1, 2, 3}), 4.0),))
    game = make_synergy_game(h)
    gamma = float(shapley_exact(game).gamma)
    assert gamma == pytest.approx(4.0, rel=1e-12)
    eps, delta = 0.25, 0.5
    runs_per_rate = 1000
    for f in (0.0, 0.01, 0.1):
        bound = max(eps, 4 * f * gamma)
        for m in range(runs_per_rate):
            adv = CyclicShiftAdversary(Budget.rate(f))
            rec = run_adaptive(game, adv, eps=eps, delta=delta, gamma=gamma,
                               honest=3, seed=109, stream_labels=("run", f, m))
            assert rec.epsilon_hat <= bound + 1e-12, (f, m, rec.epsilon_hat)
            assert rec.violations <= f * rec.samples_used + 1e-9
    _pass(9, f"adaptive eps-hat <= max(eps, 4*f*gamma) in {3 * runs_per_rate}/"
             f"{3 * runs_per_rate} runs for f in (0, 0.01, 0.1)")


def test_c10_perpetual_punishment_by_enumeration():
    rng = np.random.default_rng(110)
    games = 0
    while games < 10:
        n = int(rng.integers(3, 7))
        game = random_supermodular_game(rng, n)
        phi = shapley_exact(game).phi
        for honest in range(n):
            for pinned in range(n):
                if pinned == honest:
                    continue
                restricted = pinned_rank1_expectation(game, honest, pinned)
                assert restricted >= phi[honest] - 1e-12, (games, honest, pinned)
        games += 1
    _pass(10, "rank-1 pinning never lowers the honest expectation (10 games, all pins)")


def test_c11_two_pass_storage_equivalence():
    # the row pass stores R*(C+1) reals and one abort record per sample
    # index; the run pass plays the records and reproduces, on 100 seeds, a
    # replay that reads values from slices rebuilt out of the boundary rows
    game = make_lb_game(4)
    R, C, M = 3, 2, 1
    table = dp_build(game, 0, R, C, decisions=True)
    assert table.rows.shape == (R, C + 1)
    assert len(table.decisions) == R
    aborts = 0
    for seed in range(100):
        run = parallel_runs(game, 0, R, C, M=M, seed=seed, table=table)
        x, violations, _ = lockstep_reference(table, R, C, seed)
        assert run.x_honest[0] == x
        assert run.violations[0] == violations
        aborts += violations
    assert aborts > 0
    _pass(11, "decision-record replay reproduces the value-slice rule on 100 seeds; "
              f"stored table is {R}x{C + 1} reals plus {R} abort records")
