import itertools
import math

import numpy as np
import pytest

from shapsim import (
    Budget,
    DPAdversary,
    Game,
    PassiveAdversary,
    PhaseView,
    StateCapExceeded,
    StoppingRule,
    dp_build,
    dp_two_pass,
    make_collab_game,
    make_lb_game,
    make_max_gamma_game,
    make_pair_game,
    parallel_runs,
    run_allocation,
    shapley_exact,
    substream,
)
from oracles import abort_class, worst_case_value


def strip_classes(game: Game) -> Game:
    return Game(n=game.n, utility=game.utility, name=game.name + "-bitset",
                closed_forms=game.closed_forms,
                declared_monotone=game.declared_monotone,
                declared_supermodular=game.declared_supermodular,
                extras=dict(game.extras))


# --- recurrence values -----------------------------------------------------------

def test_pair3_optimal_value_exact():
    table = dp_build(make_pair_game(3), 0, R=1, C=2)
    assert table.worst_value() == pytest.approx(2 / 3, abs=1e-12)
    assert table.boundary[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_pair3_two_samples_one_budget_hand_value():
    # one abort spent on whichever sample offers more damage: 13/9
    table = dp_build(make_pair_game(3), 0, R=2, C=1)
    assert table.boundary[1, 1] == pytest.approx(13 / 9, abs=1e-12)


def test_pair_game_single_sample_attack_value_is_two_over_n():
    # with budget n-1 the single-sample worst case drops from 1 to 2/n
    for n in (3, 4, 5, 6):
        value = dp_build(make_pair_game(n), 0, R=1, C=n - 1).worst_value()
        assert value == pytest.approx(2 / n, abs=1e-12)


def test_base_case_honest_alone():
    g = make_pair_game(3)
    table = dp_build(g, 0, R=1, C=0, store_slices=True)
    sl = table.slice_at(0)
    lone = table.space.state_of([0])
    # the last player banks its marginal over everyone else
    assert sl[lone, 0] == pytest.approx(2.0, abs=1e-12)


def test_zero_budget_column_is_phi_per_sample():
    for game, honest in [(make_pair_game(4), 0), (make_lb_game(6), 0)]:
        table = dp_build(game, honest, R=20, C=3)
        phi = float(shapley_exact(game).phi[honest])
        for T in range(20):
            assert table.boundary[T, 0] == pytest.approx((T + 1) * phi, rel=1e-9)


def test_boundary_monotone_in_budget_and_floor():
    g = make_lb_game(8)
    table = dp_build(g, 0, R=50, C=5)
    phi = 1.0
    umax = g.extras["alpha"]
    b = table.boundary
    assert np.all(np.diff(b, axis=1) <= 1e-9)
    for T in range(50):
        floor = (T + 1) * phi - np.arange(6) * umax
        assert np.all(b[T] >= floor - 1e-6)


def test_matches_game_tree_oracle_everywhere_tiny():
    games = [make_pair_game(2), make_pair_game(3), make_pair_game(4), make_lb_game(4)]
    for g in games:
        for R in (1, 2):
            for C in (0, 1, 2):
                oracle = worst_case_value(g, 0, R, C)
                got = dp_build(g, 0, R, C).worst_value()
                assert got == pytest.approx(oracle, abs=1e-9), (g.name, R, C)


def test_abort_drawn_variant_changes_nothing():
    for g in (make_pair_game(3), make_lb_game(4)):
        for C in (1, 2):
            a = worst_case_value(g, 0, 2, C)
            b = worst_case_value(g, 0, 2, C, allow_abort_drawn=True)
            assert a == pytest.approx(b, abs=1e-12)


def test_compressed_equals_bitset_states():
    for g in (make_pair_game(6), make_lb_game(8), make_max_gamma_game(5)):
        compressed = dp_build(g, 0, R=4, C=2).boundary
        bitset = dp_build(strip_classes(g), 0, R=4, C=2).boundary
        assert np.allclose(compressed, bitset, rtol=0, atol=1e-12)


def test_state_cap_reports_required_size():
    g = strip_classes(make_pair_game(16))
    with pytest.raises(StateCapExceeded) as exc:
        dp_build(g, 0, R=1, C=0, state_cap=1000)
    assert "32768" in str(exc.value)


def test_needs_classes_beyond_bitset_range():
    g = Game(n=25, utility=lambda m: 0.0)
    with pytest.raises(ValueError):
        dp_build(g, 0, R=1, C=0)


# --- table storage -----------------------------------------------------------------

def test_boundary_memory_is_r_by_budget():
    table = dp_build(make_lb_game(6), 0, R=17, C=3)
    assert table.boundary.shape == (17, 4)
    assert table.slices is None


def test_slice_rebuild_equals_stored():
    g = make_lb_game(6)
    stored = dp_build(g, 0, R=6, C=2, store_slices=True)
    lean = dp_build(g, 0, R=6, C=2)
    for T in range(6):
        assert np.array_equal(stored.slice_at(T), lean.slice_at(T))


def test_extend_to_continues_in_place():
    g = make_pair_game(4)
    table = dp_build(g, 0, R=3, C=1)
    first = table.boundary.copy()
    table.extend_to(8)
    assert table.R == 8
    assert np.array_equal(table.boundary[:3], first)
    reference = dp_build(g, 0, R=8, C=1)
    assert np.allclose(table.boundary, reference.boundary, rtol=0, atol=0)


# --- sequential adversary -----------------------------------------------------------

def test_dp_adversary_zero_budget_matches_passive_transcript():
    g = make_pair_game(4)
    table = dp_build(g, 0, R=5, C=0, store_slices=True)
    recs = []
    for adv in (DPAdversary(table, Budget.known(0)), PassiveAdversary()):
        recs.append(run_allocation(g, "seq", adv, StoppingRule.fixed(5), honest=0, seed=21))
    assert np.array_equal(recs[0].x, recs[1].x)
    assert [d for _, _, d in recs[0].per_sample] == [d for _, _, d in recs[1].per_sample]


def test_dp_adversary_adopts_planned_run_length():
    # a table built for a longer horizon plays the shorter announced run
    # exactly as a table built for that run
    g = make_pair_game(3)
    big = dp_build(g, 0, R=6, C=2, store_slices=True)
    tight = dp_build(g, 0, R=2, C=2, store_slices=True)
    for m in range(500):
        recs = []
        for table in (big, tight):
            adv = DPAdversary(table, Budget.known(2))
            recs.append(run_allocation(g, "seq", adv, StoppingRule.fixed(2),
                                       honest=0, seed=55, stream_labels=("run", m)))
        assert np.array_equal(recs[0].x, recs[1].x)
        assert recs[0].violations == recs[1].violations


def test_dp_adversary_rejects_run_beyond_table():
    g = make_pair_game(3)
    table = dp_build(g, 0, R=2, C=1, store_slices=True)
    adv = DPAdversary(table, Budget.known(1))
    with pytest.raises(ValueError):
        run_allocation(g, "seq", adv, StoppingRule.fixed(5), honest=0, seed=56)


def test_dp_adversary_budget_soundness():
    g = make_lb_game(6)
    table = dp_build(g, 0, R=30, C=2, store_slices=True)
    adv = DPAdversary(table, Budget.known(2))
    rec = run_allocation(g, "seq", adv, StoppingRule.fixed(30), honest=0, seed=22)
    assert rec.violations <= 2
    assert adv.budget.used == rec.violations


def test_dp_adversary_rejects_full_permutation_protocol():
    g = make_pair_game(3)
    table = dp_build(g, 0, R=1, C=1, store_slices=True)
    adv = DPAdversary(table, Budget.known(1))
    with pytest.raises(ValueError):
        run_allocation(g, "naive", adv, StoppingRule.fixed(1), honest=0, seed=23)


def test_dp_adversary_sequential_mc_matches_value():
    g = make_pair_game(3)
    table = dp_build(g, 0, R=1, C=2, store_slices=True)
    vals = []
    for m in range(4000):
        adv = DPAdversary(table, Budget.known(2))
        rec = run_allocation(g, "seq", adv, StoppingRule.fixed(1), honest=0,
                             seed=24, stream_labels=("run", m))
        vals.append(rec.x_honest)
    mean = float(np.mean(vals))
    sigma = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert abs(mean - 2 / 3) < 3 * sigma


# --- parallel engine ------------------------------------------------------------------

def test_parallel_mc_matches_value_pair3():
    g = make_pair_game(3)
    table = dp_build(g, 0, R=1, C=2, store_slices=True)
    stats = parallel_runs(g, 0, R=1, C=2, M=50_000, seed=25, table=table)
    assert abs(stats.mean - 2 / 3) < 3 * stats.stderr


def test_parallel_passive_matches_phi():
    g = make_lb_game(6)
    stats = parallel_runs(g, 0, R=20, C=0, M=5_000, seed=26, adversary="passive")
    assert abs(stats.mean - 1.0) < 3 * stats.stderr


def test_parallel_dp_value_longer_run():
    g = make_lb_game(6)
    R, C = 12, 2
    table = dp_build(g, 0, R, C, store_slices=True)
    stats = parallel_runs(g, 0, R, C, M=30_000, seed=27, table=table)
    expect = table.worst_value() / R
    assert abs(stats.mean - expect) < 3 * stats.stderr


def test_two_pass_equals_full_table_transcripts():
    g = make_lb_game(4)
    R, C, M = 3, 2, 100
    full = dp_build(g, 0, R, C, store_slices=True)
    for seed in range(100):
        lean_stats, lean_table = dp_two_pass(g, 0, R, C, M=1, seed=seed,
                                             record_transcript=True)
        full_stats = parallel_runs(g, 0, R, C, M=1, seed=seed, table=full,
                                   record_transcript=True)
        assert lean_table.slices is None  # boundary-only storage
        assert lean_table.boundary.shape == (R, C + 1)
        assert len(lean_stats.transcript) == len(full_stats.transcript)
        for (t1, r1, u1, a1), (t2, r2, u2, a2) in zip(lean_stats.transcript,
                                                      full_stats.transcript):
            assert (t1, r1) == (t2, r2)
            assert np.array_equal(u1, u2) and np.array_equal(a1, a2)
        assert np.array_equal(lean_stats.x_honest, full_stats.x_honest)


def test_parallel_m1_matches_reference_loop():
    # plain-Python replay of the engine's randomness contract
    g = make_lb_game(4)
    R, C = 3, 2
    table = dp_build(g, 0, R, C, store_slices=True)
    space = table.space
    for seed in range(20):
        stats = parallel_runs(g, 0, R, C, M=1, seed=seed, table=table)
        floats = substream(seed, "run", 0).random(R * g.n)
        x = 0.0
        c = C
        for t in range(R):
            sl = table.slice_at(R - 1 - t)
            counts = list(space.totals)
            sid = space.full_state
            for r in range(g.n):
                m_pool = g.n - r
                u = int(floats[t * g.n + r] * m_pool)
                if u == 0:
                    x += space.mu_star[sid]
                    break
                idx = u - 1
                d = 0
                acc = counts[0]
                while idx >= acc:
                    d += 1
                    acc += counts[d]
                abort_d = abort_class(space, sl, sid, counts, d, c)
                if abort_d >= 0:
                    counts[abort_d] -= 1
                    sid -= space.strides[abort_d]
                    c -= 1
                else:
                    counts[d] -= 1
                    sid -= space.strides[d]
        assert stats.x_honest[0] == pytest.approx(x / R, abs=1e-12)


def test_dp_adversary_plays_the_lockstep_abort_rule():
    # every (T, pool, drawn, c) cell of a game whose classes (2, 5) and
    # (3, 4) tie: the aborter is the smallest pool member, other than the
    # drawn one, of the lowest-index class among the tied minima
    g = Game(n=6, utility=make_pair_game(6).utility,
             symmetry_classes=((0,), (1,), (2, 5), (3, 4)))
    R, C = 3, 2
    table = dp_build(g, 0, R, C, store_slices=True)
    space = table.space
    for T in range(R):
        sl = table.slice_at(T)
        for size in range(1, 6):
            for rest in itertools.combinations(range(1, 6), size):
                pool = (0, *rest)
                sid = space.state_of(pool)
                counts = [sum(p in members for p in pool) for members in space.classes]
                for drawn in rest:
                    d_drawn = int(space.class_of[drawn])
                    for c in range(C + 1):
                        adv = DPAdversary(table, Budget.known(c))
                        adv.reset(n=g.n, honest=0, rng=substream(0, "adversary"),
                                  planned_samples=R)
                        adv.begin_sample(R - 1 - T, pool)
                        view = PhaseView(0, 0, pool, pool.index(drawn))
                        opened = adv.open_draws(view, rest, dict.fromkeys(rest, 0), len(pool))
                        d = abort_class(space, sl, sid, counts, d_drawn, c)
                        expected = [] if d < 0 else [
                            min(p for p in space.classes[d] if p in pool and p != drawn)]
                        assert [p for p in rest if opened[p] is None] == expected, (
                            T, pool, drawn, c)


def test_parallel_rejects_budget_beyond_table():
    g = make_pair_game(3)
    table = dp_build(g, 0, R=1, C=1)
    with pytest.raises(ValueError):
        parallel_runs(g, 0, R=1, C=2, M=1, seed=0, table=table)


# --- dominance --------------------------------------------------------------------------

def test_dp_value_below_every_builtin_strategy():
    from shapsim import BlockAttackAdversary, EagerAbortAdversary

    g = make_lb_game(4)
    R, C = 2, 1
    table = dp_build(g, 0, R, C, store_slices=True)
    dp_mean = parallel_runs(g, 0, R, C, M=60_000, seed=28, table=table).mean

    def mean_of(factory, M=4000):
        vals = []
        for m in range(M):
            rec = run_allocation(g, "seq", factory(), StoppingRule.fixed(R),
                                 honest=0, seed=29, stream_labels=("run", m))
            vals.append(rec.x_honest)
        return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(M))

    for factory in (PassiveAdversary,
                    lambda: EagerAbortAdversary(Budget.known(C)),
                    lambda: BlockAttackAdversary(Budget.known(C), 1, greedy=True)):
        mean, sigma = mean_of(factory)
        assert dp_mean <= mean + 3 * sigma


def _tied_minima(space, sl) -> int:
    """(state, budget) cells whose neighbour states tie for the smallest value."""
    ties = 0
    for sid in range(space.n_states):
        digits = [sid // int(s) % (int(t) + 1) for s, t in zip(space.strides, space.totals)]
        near = np.sort([sl[sid - space.strides[d]] for d, k in enumerate(digits) if k], axis=0)
        if len(near) > 1:
            ties += int(np.sum(near[0] == near[1]))
    return ties


def test_vectorized_builder_matches_reference_bitwise():
    from oracles import _build_slice_reference
    from shapsim.dp import StateSpace, _build_slice

    # one symmetry class besides the honest player, so D = 1
    single = Game(n=5, utility=lambda m: float(bin(m).count("1") ** 2), name="square",
                  symmetry_classes=((0, 1, 2, 3, 4),))
    # players 2..5 are interchangeable singleton classes: neighbour values tie
    # for the minimum, and a tied class can be the drawn one with one member
    tied = strip_classes(make_pair_game(6))
    games = (make_pair_game(5), make_lb_game(8), make_max_gamma_game(5),
             make_collab_game(20), single, tied)
    for g in games:
        space = StateSpace.build(g, 0)
        # a row rising in budget: when values fall in budget, as every
        # boundary row does, aborting in place of a draw from the best class
        # never beats accepting, so a wrong abort value there would not show
        prev = np.array([0.0, 3.0, 1.0, 4.0])
        for _ in range(3 if space.n_states < 1000 else 1):  # chain a few sample indices
            a = _build_slice(space, prev, 3)
            b = _build_slice_reference(space, prev, 3)
            assert np.array_equal(a, b)
            prev = a[space.full_state]
        if g is tied:
            assert _tied_minima(space, a) > 0
    assert len(StateSpace.build(make_collab_game(20), 0).classes) > 2
    assert len(StateSpace.build(single, 0).classes) == 1


def test_collab_game_compressed_dp_builds():
    g = make_collab_game(20)
    table = dp_build(g, 0, R=3, C=1)
    assert table.boundary.shape == (3, 2)
    assert table.boundary[0, 0] == pytest.approx(38 / 15, rel=1e-9)
