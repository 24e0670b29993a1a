import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from shapsim import (
    Budget,
    DPAdversary,
    DPTable,
    Game,
    Hypergraph,
    PassiveAdversary,
    PhaseView,
    StateCapExceeded,
    StoppingRule,
    dp_build,
    make_collab_game,
    make_lb_game,
    make_max_gamma_game,
    make_pair_game,
    make_synergy_game,
    parallel_runs,
    run_allocation,
    shapley_exact,
    substream,
)
import shapsim.dp as dp
from shapsim.dp import LOCKSTEP_CHUNK, StateSpace
from oracles import _counts_of, abort_class, lockstep_reference, worst_case_value


def strip_classes(game: Game) -> Game:
    # no bulk oracle either: state spaces of these games take the scalar fallback
    return Game(n=game.n, utility=game.utility, name=game.name + "-bitset",
                closed_forms=game.closed_forms,
                declared_monotone=game.declared_monotone,
                extras=dict(game.extras))


# --- recurrence values -----------------------------------------------------------

def test_pair3_optimal_value_exact():
    table = dp_build(make_pair_game(3), 0, R=1, C=2)
    assert table.worst_value() == pytest.approx(2 / 3, abs=1e-12)
    assert table.rows[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_pair3_two_samples_one_budget_hand_value():
    # one abort spent on whichever sample offers more damage: 13/9
    table = dp_build(make_pair_game(3), 0, R=2, C=1)
    assert table.rows[1, 1] == pytest.approx(13 / 9, abs=1e-12)


def test_pair_game_single_sample_attack_value_is_two_over_n():
    # with budget n-1 the single-sample worst case drops from 1 to 2/n
    for n in (3, 4, 5, 6):
        value = dp_build(make_pair_game(n), 0, R=1, C=n - 1).worst_value()
        assert value == pytest.approx(2 / n, abs=1e-12)


def test_base_case_honest_alone():
    g = make_pair_game(3)
    table = dp_build(g, 0, R=1, C=0)
    sl = table.slice_at(0)
    lone = table.space.state_of([0])
    # the last player banks its marginal over everyone else
    assert sl[lone, 0] == pytest.approx(2.0, abs=1e-12)


def test_one_player_game_builds_decisions_and_never_aborts():
    # no class to abort from: every record is empty, and a run driven by the
    # table is the passive run
    g = Game(n=1, utility=lambda mask: float(mask))
    table = dp_build(g, 0, 70, 1, decisions=True)
    assert table.R == 70 and table.worst_value() == pytest.approx(70.0)
    assert all(len(cells) == 1 for cells, classes in table.decisions)  # the sentinel only
    played = parallel_runs(g, 0, 70, 1, 5, seed=3, table=table)
    passive = parallel_runs(g, 0, 70, 1, 5, seed=3)
    assert np.array_equal(played.x_honest, passive.x_honest)
    assert not played.violations.any()


def test_zero_budget_column_is_phi_per_sample():
    for game, honest in [(make_pair_game(4), 0), (make_lb_game(6), 0)]:
        table = dp_build(game, honest, R=20, C=3)
        phi = float(shapley_exact(game).phi[honest])
        for T in range(20):
            assert table.rows[T, 0] == pytest.approx((T + 1) * phi, rel=1e-9)


def test_boundary_monotone_in_budget_and_floor():
    g = make_lb_game(8)
    table = dp_build(g, 0, R=50, C=5)
    phi = 1.0
    umax = g.extras["alpha"]
    b = table.rows
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
        compressed = dp_build(g, 0, R=4, C=2).rows
        bitset = dp_build(strip_classes(g), 0, R=4, C=2).rows
        assert np.allclose(compressed, bitset, rtol=0, atol=1e-12)


def test_state_cap_reports_required_size():
    # 21 singleton classes besides the honest player: 2^21 states, over the
    # 2,000,000 cap, counted before any state is laid out
    h = Hypergraph(n=22, edges=((frozenset({0, 1}), 1.0),))
    g = make_synergy_game(h, symmetry_classes=tuple((p,) for p in range(22)))
    with pytest.raises(StateCapExceeded) as exc:
        dp_build(g, 0, R=1, C=0)
    assert "2097152" in str(exc.value)


def test_needs_classes_beyond_bitset_range():
    g = Game(n=25, utility=lambda m: 0.0)
    with pytest.raises(ValueError):
        dp_build(g, 0, R=1, C=0)


def test_state_of_is_the_class_stride_sum():
    rng = np.random.default_rng(31)
    for g, honest in [(make_lb_game(8), 0), (make_lb_game(100), 3),
                      (strip_classes(make_pair_game(6)), 2), (make_max_gamma_game(5), 4)]:
        space = dp_build(g, honest, R=1, C=0).space
        for _ in range(50):
            pool = rng.choice(g.n, size=int(rng.integers(1, g.n + 1)), replace=False)
            expect = sum(int(space.strides[space.class_of[p]]) for p in pool if p != honest)
            assert space.state_of(pool) == space.state_of(pool.tolist()) == expect


# --- table storage -----------------------------------------------------------------

def test_boundary_memory_is_r_by_budget():
    g = make_lb_game(6)
    table = dp_build(g, 0, R=17, C=3)
    assert table.rows.shape == (17, 4)
    assert table.decisions is None  # a values-only table keeps R * (C + 1) reals
    played = dp_build(g, 0, R=17, C=3, decisions=True)
    assert np.array_equal(played.rows, table.rows)
    assert len(played.decisions) == 17
    # consecutive equal records are one object, and the policy settles
    for earlier, later in zip(played.decisions, played.decisions[1:]):
        same = all(map(np.array_equal, earlier, later))
        assert (earlier is later) == same
    assert played.decisions[-2] is played.decisions[-1]
    assert len({id(record) for record in played.decisions}) < 17


def test_row_storage_is_one_array_of_r_by_budget():
    # grown one row at a time, as min-samples does: the rows share one
    # buffer that at most doubles past R
    g = make_lb_game(8)
    R, C = 4000, 2
    table = dp_build(g, 0, R=1, C=C)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for r in range(2, R + 1):
            table.extend_to(r)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert table.R == R
    assert held <= 2 * R * (C + 1) * 8 + 4096, held
    rows = table.rows
    assert rows.shape == (R, C + 1) and not rows.flags.writeable
    assert np.shares_memory(rows, table.rows)  # a view of one buffer, no copy


def test_check_row_rejects_each_broken_boundary(monkeypatch):
    g = make_lb_game(8)
    C = 2
    table = dp_build(g, 0, R=1, C=C)
    on_floor = dp_build(g, 0, R=1, C=C)
    phi, umax = table._phi_star, table._umax_star
    expect = 2 * phi  # the zero-budget value of row T = 1
    assert umax > 0
    table._phi_star = 1.5 * phi
    with pytest.raises(AssertionError, match="zero-budget boundary at T=1"):
        table.extend_to(2)
    assert table.R == 1
    table._phi_star = phi

    def returning(row):
        def build(table, T, decisions=False):
            space = table.space
            sl = np.zeros((space.n_states, table.C + 1))  # in work order: the full pool last
            sl[space.work_row[space.full_state]] = row
            return sl, None
        return build

    broken = {
        "not non-increasing in budget": [expect, expect - umax, expect - umax + 1e-6],
        "below the budget-damage floor": [expect, expect - umax, expect - 2 * umax - 1e-3],
    }
    for message, row in broken.items():
        monkeypatch.setattr(DPTable, "_row", returning(np.array(row)))
        with pytest.raises(AssertionError, match=message):
            table.extend_to(2)
        assert table.R == 1
    # a row on the floor at every budget passes
    monkeypatch.setattr(DPTable, "_row", returning(expect - umax * np.arange(C + 1)))
    on_floor.extend_to(2)
    assert on_floor.R == 2
    # the same checks let the true row through
    monkeypatch.undo()
    table.extend_to(2)
    assert table.rows[1, 0] == pytest.approx(expect, rel=1e-9)


def test_dp_adversary_refuses_a_rate_budget():
    # the table's budget axis counts violations; a rate's limit is a fraction
    table = dp_build(make_lb_game(8), 0, R=20, C=4, decisions=True)
    for f in (0.5, 1.0):
        with pytest.raises(ValueError, match="not a rate"):
            DPAdversary(table, Budget.rate(f))
    assert DPAdversary(table, Budget.known(4)).budget.limit == 4


def test_worst_value_refuses_a_run_length_or_budget_outside_the_table():
    table = dp_build(make_pair_game(4), 0, R=5, C=1)
    assert table.worst_value() == table.worst_value(5, 1) == table.rows[4, 1]
    assert table.worst_value(1, 0) == table.rows[0, 0]
    for R in (0, -2, 6):
        with pytest.raises(ValueError, match="run length"):
            table.worst_value(R)
    for c in (-1, 2):
        with pytest.raises(ValueError, match="budget"):
            table.worst_value(3, c)


def test_slice_rebuild_equals_stored():
    # a slice rebuilt from the previous boundary row reproduces the stored
    # boundary row bit for bit
    g = make_lb_game(6)
    table = dp_build(g, 0, R=6, C=2)
    for T in range(6):
        assert np.array_equal(table.slice_at(T)[table.space.full_state], table.rows[T])


def test_extend_to_continues_in_place():
    g = make_pair_game(4)
    table = dp_build(g, 0, R=3, C=1)
    first = table.rows.copy()
    table.extend_to(8)
    assert table.R == 8
    assert np.array_equal(table.rows[:3], first)
    reference = dp_build(g, 0, R=8, C=1)
    assert np.allclose(table.rows, reference.rows, rtol=0, atol=0)


# --- sequential adversary -----------------------------------------------------------

def test_dp_adversary_zero_budget_matches_passive_transcript():
    g = make_pair_game(4)
    table = dp_build(g, 0, R=5, C=0, decisions=True)
    recs = []
    for adv in (DPAdversary(table, Budget.known(0)), PassiveAdversary()):
        recs.append(run_allocation(g, "seq", adv, StoppingRule.fixed(5), honest=0, seed=21))
    assert np.array_equal(recs[0].x, recs[1].x)
    assert [d for _, _, d in recs[0].per_sample] == [d for _, _, d in recs[1].per_sample]


def test_dp_adversary_adopts_planned_run_length():
    # a table built for a longer horizon plays the shorter announced run
    # exactly as a table built for that run
    g = make_pair_game(3)
    big = dp_build(g, 0, R=6, C=2, decisions=True)
    tight = dp_build(g, 0, R=2, C=2, decisions=True)
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
    table = dp_build(g, 0, R=2, C=1, decisions=True)
    adv = DPAdversary(table, Budget.known(1))
    with pytest.raises(ValueError):
        run_allocation(g, "seq", adv, StoppingRule.fixed(5), honest=0, seed=56)


def test_dp_adversary_budget_soundness():
    g = make_lb_game(6)
    table = dp_build(g, 0, R=30, C=2, decisions=True)
    adv = DPAdversary(table, Budget.known(2))
    rec = run_allocation(g, "seq", adv, StoppingRule.fixed(30), honest=0, seed=22)
    assert rec.violations <= 2
    assert adv.budget.used == rec.violations


def test_dp_adversary_rejects_full_permutation_protocol():
    g = make_pair_game(3)
    table = dp_build(g, 0, R=1, C=1, decisions=True)
    adv = DPAdversary(table, Budget.known(1))
    with pytest.raises(ValueError):
        run_allocation(g, "naive", adv, StoppingRule.fixed(1), honest=0, seed=23)


def test_dp_adversary_sequential_mc_matches_value():
    g = make_pair_game(3)
    table = dp_build(g, 0, R=1, C=2, decisions=True)
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
    table = dp_build(g, 0, R=1, C=2, decisions=True)
    stats = parallel_runs(g, 0, R=1, C=2, M=50_000, seed=25, table=table)
    assert abs(stats.mean - 2 / 3) < 3 * stats.stderr


def test_parallel_passive_matches_phi():
    g = make_lb_game(6)
    stats = parallel_runs(g, 0, R=20, C=0, M=5_000, seed=26)
    assert abs(stats.mean - 1.0) < 3 * stats.stderr


def test_parallel_dp_value_longer_run():
    g = make_lb_game(6)
    R, C = 12, 2
    table = dp_build(g, 0, R, C, decisions=True)
    stats = parallel_runs(g, 0, R, C, M=30_000, seed=27, table=table)
    expect = table.worst_value() / R
    assert abs(stats.mean - expect) < 3 * stats.stderr


def test_longer_table_replays_without_reading_values(monkeypatch):
    # a record depends on T only, so a table built for more samples plays an
    # R-sample run exactly as the R-sample table does; and neither engine
    # reads table values on the way
    g = make_lb_game(4)
    R, C = 3, 2
    tight = dp_build(g, 0, R, C, decisions=True)
    long = dp_build(g, 0, 2 * R, C, decisions=True)
    assert long.rows.shape == (2 * R, C + 1)
    for T in range(R):
        assert all(map(np.array_equal, tight.decisions[T], long.decisions[T]))

    def no_values(table, T):
        raise AssertionError("a run read table values")

    monkeypatch.setattr(DPTable, "slice_at", no_values)
    aborts = 0
    for seed in range(100):
        tight_stats = parallel_runs(g, 0, R, C, M=1, seed=seed, table=tight)
        long_stats = parallel_runs(g, 0, R, C, M=1, seed=seed, table=long)
        assert np.array_equal(tight_stats.x_honest, long_stats.x_honest)
        assert np.array_equal(tight_stats.violations, long_stats.violations)
        aborts += int(tight_stats.violations.sum())
    assert aborts > 0
    rec = run_allocation(g, "seq", DPAdversary(long, Budget.known(C)), StoppingRule.fixed(R),
                         honest=0, seed=30)
    assert rec.violations <= C


def _refusal(play) -> str:
    with pytest.raises(ValueError) as refused:
        play()
    return str(refused.value)


def test_engines_reject_a_table_without_decisions():
    # one check, one message, for both engines; even where no run could abort
    g = make_pair_game(3)
    table = dp_build(g, 0, R=1, C=1)
    refusals = {_refusal(lambda: DPAdversary(table, Budget.known(c))) for c in (0, 1)}
    refusals |= {_refusal(lambda: parallel_runs(g, 0, R=1, C=c, M=1, seed=0, table=table))
                 for c in (0, 1)}
    assert len(refusals) == 1 and "decisions" in refusals.pop()


def test_parallel_m1_matches_reference_loop():
    # plain-Python replay of the engine's randomness contract
    g = make_lb_game(4)
    R, C = 3, 2
    table = dp_build(g, 0, R, C, decisions=True)
    for seed in range(20):
        stats = parallel_runs(g, 0, R, C, M=1, seed=seed, table=table)
        x, violations, _ = lockstep_reference(table, R, C, seed)
        assert stats.x_honest[0] == x
        assert stats.violations[0] == violations


@pytest.mark.parametrize("g, R, C, table_R, table_C, held", [
    (make_pair_game(6), 150, 3, 150, 3, False),
    (strip_classes(make_pair_game(6)), 150, 3, 150, 3, False),
    (make_pair_game(6), 150, 3, 190, 5, False),
    (make_lb_game(20), 200, 6, 200, 6, True),
], ids=["classes", "singletons", "longer-wider-table", "lb20-held-budget"])
def test_parallel_matches_reference_across_chunk_boundaries(g, R, C, table_R, table_C, held,
                                                            monkeypatch):
    # more than two chunks, with aborts past the first chunk and samples that
    # hold two aborts: the speculative replay must give every run the
    # sample-by-sample play bit for bit, with two classes and with five; on
    # a table built for more samples and a larger budget than the run, each
    # chunk's lookup covers only the run's own sample indices and is asked
    # only within the run's budget; and every replay plays only the pending
    # rows of its chunk, gathered (where runs hold budget across three
    # chunks, a few of them)
    M, seed = 40, 7
    assert R > 2 * LOCKSTEP_CHUNK
    table = dp_build(g, 0, table_R, table_C, decisions=True)
    passes, lookups = [], []
    play, lookup = dp._play_rows, DPTable.abort_rule

    def counting(space, places, rule=None, *args):
        if rule is not None:  # a pass with the rule: the chunk's first, or a replay
            passes.append((len(lookups), places.shape[1]))
        return play(space, places, rule, *args)

    def recording(table, lo, hi):
        lookups.append(hi - lo)
        rule = lookup(table, lo, hi)

        def asked(T, sid, d, c):
            assert np.all((lo <= T) & (T < hi) & (c <= C))
            return rule(T, sid, d, c)
        return asked

    monkeypatch.setattr(dp, "_play_rows", counting)
    monkeypatch.setattr(DPTable, "abort_rule", recording)
    stats = parallel_runs(g, 0, R, C, M, seed, table=table)
    assert lookups and max(lookups) <= LOCKSTEP_CHUNK
    replays = [(rows, M * lookups[chunk - 1]) for i, (chunk, rows) in enumerate(passes)
               if i and passes[i - 1][0] == chunk]
    assert replays and all(rows < batch for rows, batch in replays), replays
    late = double = spread = 0
    for m in range(M):
        x, violations, aborted = lockstep_reference(table, R, C, seed, run=m)
        assert stats.x_honest[m] == x, m
        assert stats.violations[m] == violations, m
        late += any(t >= LOCKSTEP_CHUNK for t in aborted)
        double += any(aborted.count(t) >= 2 for t in set(aborted))
        spread += len({t // LOCKSTEP_CHUNK for t in aborted}) >= 3
    assert late > 0
    assert double > 0
    if held:
        assert spread > 0
        assert min(rows / batch for rows, batch in replays) < 0.05


@pytest.mark.parametrize("C", [0, 3], ids=["no-budget", "spends-out"])
def test_parallel_plays_a_chunk_as_one_first_pass_then_pending_replays(C, monkeypatch):
    # a chunk's first pass plays all its k*M rows in place, each at its run's
    # budget, so runs that spent out play passively inside it; each replay
    # plays only the rows pending after the pass before, which for a run left
    # with no budget are its later rows that aborted; and a chunk where no
    # run holds budget (every chunk at C=0, the last ones at C=3, where some
    # chunk also holds runs with and without budget) builds no lookup and
    # ends with its first pass
    g, R, M, seed = make_lb_game(8), 200, 16, 7
    table = dp_build(g, 0, R, C, decisions=True)
    events = []
    play, lookup = dp._play_rows, DPTable.abort_rule

    def playing(space, places, rule, T, budget):
        start = budget.copy()
        sid = play(space, places, rule, T, budget)
        events.append((rule is not None, places, T.copy(), start, budget.copy()))
        return sid

    def looking_up(table, lo, hi):
        events.append((lo, hi))
        rule = lookup(table, lo, hi)

        def asked(T, sid, d, c):
            assert np.all(c > 0)  # a row without budget is never asked
            return rule(T, sid, d, c)
        return asked

    monkeypatch.setattr(dp, "_play_rows", playing)
    monkeypatch.setattr(DPTable, "abort_rule", looking_up)
    stats = parallel_runs(g, 0, R, C, M, seed, table=table)

    c_rem, firsts, mixed, quiet = np.full(M, C), [], 0, 0
    for t in range(0, R, LOCKSTEP_CHUNK):
        k = min(LOCKSTEP_CHUNK, R - t)
        lo, hi = R - t - k, R - t
        chunk_T = np.repeat(np.arange(hi - 1, lo - 1, -1), M)  # sample-major rows
        held = bool(c_rem.any())
        if held:
            assert events.pop(0) == (lo, hi)
        mixed += held and not c_rem.all()
        quiet += not held
        rows = np.arange(k * M)  # the first pass: every row, in place
        while len(rows):
            ruled, places, T, start, left = events.pop(0)
            assert ruled == held and places.shape[1] == len(rows)
            if len(rows) == k * M:
                firsts.append(places)
            else:  # a replay, gathered
                assert not np.shares_memory(places, firsts[-1])
            assert np.array_equal(T, chunk_T[rows])
            assert np.array_equal(start, np.tile(c_rem, k)[rows])
            spent = np.zeros(k * M, dtype=np.int64)
            spent[rows] = start - left
            spent = spent.reshape(k, M)
            runs = np.flatnonzero(spent.any(axis=0))
            first = (spent[:, runs] > 0).argmax(axis=0)
            c_rem[runs] -= spent[first, runs]
            later = np.zeros((k, M), dtype=bool)  # of a spent run, only the rows that aborted
            later[:, runs] = (np.arange(k)[:, None] > first) & ((spent[:, runs] > 0)
                                                                | (c_rem[runs] > 0))
            rows = np.flatnonzero(later)
    assert not events
    assert all(np.shares_memory(places, firsts[0]) for places in firsts)  # one chunk buffer
    assert np.array_equal(stats.violations, C - c_rem)
    assert quiet > 0 and (C == 0 or mixed > 0)


@pytest.mark.parametrize("game, D", [(make_lb_game(20), 2), (strip_classes(make_pair_game(6)), 5)],
                         ids=["lb20", "singletons6"])
def test_parallel_passive_is_exact(game, D):
    # the class search with two classes and with five singleton classes
    R, M, seed = 100, 30, 12
    table = dp_build(game, 0, R, 0, decisions=True)
    assert len(table.space.classes) == D
    passive = parallel_runs(game, 0, R, 0, M, seed)
    assert not passive.violations.any()
    for m in range(M):
        assert passive.x_honest[m] == lockstep_reference(table, R, 0, seed, run=m)[0], m


@pytest.mark.parametrize("g, C, M, distinct", [(make_lb_game(8), 2, 200, False),
                                                (make_lb_game(20), 200, 20, True)],
                         ids=["lb8-C2", "lb20-C200"])
def test_parallel_working_set_does_not_grow_with_R(g, C, M, distinct, monkeypatch):
    # the engine holds one chunk of rows and one abort lookup at a time, and
    # a lookup holds at most twice the bytes of the records it merges (its
    # cells may take the next wider dtype).  At lb20, C=200 every T has its
    # own record, and the play holds no more than its largest lookup beside
    # a passive play's working set
    table = dp_build(g, 0, 512, C, decisions=True)
    assert (len({id(record) for record in table.decisions}) == 512) == distinct
    held, lookup = [], DPTable.abort_rule

    def measured(table, lo, hi):
        merged = {id(record): record for record in table.decisions[lo:hi]}.values()
        before = tracemalloc.get_traced_memory()[0]
        rule = lookup(table, lo, hi)
        held.append((tracemalloc.get_traced_memory()[0] - before,
                     2 * sum(cells.nbytes + classes.nbytes for cells, classes in merged)))
        return rule

    monkeypatch.setattr(DPTable, "abort_rule", measured)
    peaks = []
    for R, played in ((128, table), (512, table), (512, None)):
        tracemalloc.start()
        try:
            parallel_runs(g, 0, R, C if played else 0, M=M, seed=3, table=played)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] * 1.05, peaks
    assert held and all(size <= bound + 4096 for size, bound in held), held
    if distinct:
        assert peaks[1] <= max(bound for _, bound in held) + peaks[2], (peaks, held)


def test_row_working_set_does_not_grow_with_T():
    # one row's build holds the same arrays at T = 10 and T = 1000; the
    # least peak of a few consecutive steps leaves out the steps where the
    # row buffer or the list of records grows
    g = make_lb_game(8)
    peaks = []
    for T in (10, 1000):
        table = dp_build(g, 0, T, 2, decisions=True)
        steps = []
        for _ in range(8):
            tracemalloc.start()
            try:
                table.extend_to(table.R + 1)
                steps.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        peaks.append(min(steps))
    assert peaks[1] <= peaks[0] * 1.05, peaks


def test_dp_adversary_plays_the_lockstep_abort_rule():
    # every (T, pool, drawn, c) cell of a game whose classes (2, 5) and
    # (3, 4) tie: the aborter is the smallest pool member, other than the
    # drawn one, of the lowest-index class among the tied minima
    g = Game(n=6, utility=make_pair_game(6).utility,
             symmetry_classes=((0,), (1,), (2, 5), (3, 4)))
    R, C = 3, 2
    table = dp_build(g, 0, R, C, decisions=True)
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
                        adv.begin_sample(R - 1 - T)
                        view = PhaseView(pool, pool.index(drawn))
                        opened = adv.open_draws(view, rest, dict.fromkeys(rest, 0), len(pool))
                        d = abort_class(space, sl, sid, counts, d_drawn, c)
                        expected = [] if d < 0 else [
                            min(p for p in space.classes[d] if p in pool and p != drawn)]
                        assert [p for p in rest if opened[p] is None] == expected, (
                            T, pool, drawn, c)


def _abort_rule_at(space, sl: np.ndarray, sid, d, c) -> np.ndarray:
    """``abort_class`` at each (state, drawn class, c) cell; -1 where class d is empty."""
    expect = np.full(len(sid), -1)
    for i, (s, dd, cc) in enumerate(zip(sid.tolist(), d.tolist(), c.tolist())):
        counts = _counts_of(space, s)
        if counts[dd]:
            expect[i] = abort_class(space, sl, s, counts, dd, cc)
    return expect


def _every_cell(space, C: int):
    """(state, drawn class, c) of every cell, as three flat arrays."""
    return tuple(np.indices((space.n_states, len(space.classes), C + 1)).reshape(3, -1))


def _abort_rule_everywhere(space, sl: np.ndarray, C: int) -> np.ndarray:
    return _abort_rule_at(space, sl, *_every_cell(space, C))


def _record_everywhere(table: DPTable, T: int) -> np.ndarray:
    """``table.abort_rule`` at every cell of ``T``, in one vectorised lookup."""
    return table.abort_rule(T, T + 1)(T, *_every_cell(table.space, table.C))


def _class_count_game(n: int, classes, f, name: str) -> Game:
    """A game whose value depends on how many members of each class a coalition holds."""
    masks = [sum(1 << p for p in members) for members in classes]
    return Game(n=n, utility=lambda mask: float(f(*(bin(mask & cm).count("1") for cm in masks))),
                name=name, symmetry_classes=classes)


# multi-member classes beside singletons, D = 4: a wide game
FOUR = _class_count_game(8, ((0, 1), (2, 3), (4,), (5, 6, 7)),
                         lambda h, a, b, e: (h + a) * (b + e) + 2 * a * e + (h + b) ** 2, "four")


@pytest.mark.parametrize("game", [
    # classes (2, 5) and (3, 4) tie for the minimum
    Game(n=6, utility=make_pair_game(6).utility, name="tied",
         symmetry_classes=((0,), (1,), (2, 5), (3, 4))),
    make_lb_game(8),
    # wide games, whose classes come from the budget-major kernel: tied
    # singleton classes (D = 5), and FOUR (D = 4)
    strip_classes(make_pair_game(6)),
    FOUR,
], ids=["tied", "lb8", "pair6-bitset", "four"])
def test_decision_record_is_the_abort_rule_in_every_cell(game):
    R, C = 20, 2
    table = dp_build(game, 0, R, C, decisions=True)
    aborts = 0
    for T in range(R):
        got = _record_everywhere(table, T)
        assert np.array_equal(got, _abort_rule_everywhere(table.space, table.slice_at(T), C)), T
        aborts += int(np.sum(got >= 0))
        cells, classes = table.decisions[T]
        assert np.all(np.diff(cells.astype(np.int64)) > 0)
        assert cells.dtype == np.min_scalar_type(cells[-1])
    assert aborts > 0


def test_parallel_rejects_budget_beyond_table():
    # and so does DPAdversary, with the same message: a budget above the
    # table's C at construction (it used to clip it and spend past C), and
    # at reset a planned run longer than the table's R
    g = make_pair_game(3)
    table = dp_build(g, 0, R=1, C=1, decisions=True)

    def reset(adversary, planned):
        adversary.reset(n=3, honest=0, rng=substream(0, "adversary"), game=g,
                        planned_samples=planned)

    refusals = {
        _refusal(lambda: parallel_runs(g, 0, R=1, C=2, M=1, seed=0, table=table)),
        _refusal(lambda: parallel_runs(g, 0, R=2, C=1, M=1, seed=0, table=table)),
        _refusal(lambda: DPAdversary(table, Budget.known(2))),
        _refusal(lambda: DPAdversary(table, Budget.unlimited())),
        _refusal(lambda: reset(DPAdversary(table, Budget.known(1)), 2)),
    }
    assert len(refusals) == 1 and "decisions" in refusals.pop()
    for planned in (None, 1):  # within the table
        reset(DPAdversary(table, Budget.known(1)), planned)


# --- dominance --------------------------------------------------------------------------

def test_dp_value_below_every_builtin_strategy():
    from shapsim import BlockAttackAdversary, EagerAbortAdversary

    g = make_lb_game(4)
    R, C = 2, 1
    table = dp_build(g, 0, R, C, decisions=True)
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


# Games for the builder-against-reference test, with D = 1, 2, 3, 4, 5 and 14
# classes besides the honest player, so both row kernels run.
BITWISE_GAMES = (
    make_pair_game(5), make_lb_game(8), make_max_gamma_game(5),
    make_lb_game(100),  # 2,550 states: the published-scale shape
    # one symmetry class besides the honest player, so D = 1
    Game(n=5, utility=lambda m: float(bin(m).count("1") ** 2), name="square",
         symmetry_classes=((0, 1, 2, 3, 4),)),
    # classes (3, 4) and (5, 6) play the same part, so their values tie
    _class_count_game(7, ((0, 1, 2), (3, 4), (5, 6)),
                      lambda h, a, b: (h + 1) ** 2 * (a + b) + a * b + 3 * min(a, b), "three"),
    FOUR,
    # players 2..5 are interchangeable singleton classes: neighbour values tie
    # for the minimum, and a tied class can be the drawn one with one member
    strip_classes(make_pair_game(6)),
    make_collab_game(20),  # 57,344 states
)


def test_bitwise_games_cover_both_kernels():
    from shapsim.dp_kernels import FLAT_MAX_CLASSES

    # the widest game of each kernel, and one wider
    widths = {len(StateSpace.build(g, 0).classes) for g in BITWISE_GAMES}
    assert {1, 2, 3, FLAT_MAX_CLASSES} <= widths, widths
    assert any(width > FLAT_MAX_CLASSES for width in widths), widths


def test_slot_plan_lists_each_pools_classes_in_class_order():
    from shapsim.dp_kernels import slot_plan

    # a state's slots are its occupied classes in ascending class order, then
    # padding: the order that keeps each state's sum the reference's
    space = StateSpace.build(make_collab_game(20), 0)
    assert len(space.classes) == 14
    for m, lo, hi, cls, nbr, k, empty in slot_plan(space):
        sid = space.order[lo:hi]
        counts = sid // space.strides[:, None] % (space.totals[:, None] + 1)  # (D, g)
        held = np.count_nonzero(counts, axis=0)
        assert np.all(1 + counts.sum(axis=0) == m)
        assert len(cls) == held.max()  # J
        real = np.arange(len(cls))[:, None] < held  # (J, g): slot j lists a class
        cls = cls.astype(np.intp)
        assert np.all(np.diff(cls, axis=0)[real[1:]] > 0)
        held_counts = np.take_along_axis(counts, cls, axis=0)
        assert np.all(held_counts[real] > 0)
        assert np.array_equal(k, np.where(real, held_counts, 0))
        assert np.array_equal(empty, ~real)
        # a listed class's neighbour is the pool with one member fewer; padding
        # reads the inf sentinel column
        assert np.all(nbr[~real] == space.n_states)
        rows = np.broadcast_to(sid, cls.shape)[real]
        assert np.array_equal(space.order[nbr[real]], rows - space.strides[cls[real]])


@pytest.mark.parametrize("game, plan", [(make_lb_game(8), "build_flat_plan"),
                                        (FOUR, "slot_plan")], ids=["flat", "wide"])
def test_each_table_builds_its_row_plan_once(game, plan, monkeypatch):
    from shapsim import dp_kernels

    built = []

    def counting(name):
        real = getattr(dp_kernels, name)

        def build(*args):
            built.append(name)
            return real(*args)
        return build

    for name in ("build_flat_plan", "slot_plan"):
        monkeypatch.setattr(dp_kernels, name, counting(name))
    StateSpace.build(game, 0)
    parallel_runs(game, 0, R=5, C=2, M=3, seed=1)  # passive: no rows
    assert built == []
    table = dp_build(game, 0, R=5, C=2)
    table.extend_to(12)
    table.slice_at(3)
    assert built == [plan]


def test_wide_plan_refuses_a_neighbour_outside_the_work_array(monkeypatch):
    # rows gather with mode="clip", which would read the sentinel column for
    # an index past it, so the plan build refuses one
    from shapsim import dp_kernels

    space = StateSpace.build(FOUR, 0)
    groups = list(dp_kernels.slot_plan(space))
    m, lo, hi, cls, nbr, k, empty = groups[-1]
    nbr = nbr.astype(np.intp)
    nbr[0, 0] = space.n_states + 1
    groups[-1] = dp_kernels.SizeGroup(m, lo, hi, cls, nbr, k, empty)
    monkeypatch.setattr(dp_kernels, "slot_plan", lambda space: tuple(groups))
    with pytest.raises(ValueError, match="outside the work array"):
        dp_kernels.row_kernel(space, 2)


@pytest.mark.parametrize("decisions", [False, True], ids=["values", "decisions"])
@pytest.mark.parametrize("game", [make_lb_game(8), FOUR], ids=["flat", "wide"])
def test_a_rows_output_is_never_overwritten_by_later_rows(game, decisions):
    # a kernel may reuse its scratch from row to row, but not what it returns
    from shapsim.dp_kernels import row_kernel

    def as_bytes(values, record):
        return [values.tobytes()] + [part.tobytes() for part in record or ()]

    row = row_kernel(StateSpace.build(game, 0), 2)
    values, record = row(np.zeros(3), decisions)
    first = as_bytes(values, record)
    prev = values[-1]
    for _ in range(2):
        later = row(prev, decisions)
        assert as_bytes(*later)[0] != first[0]  # rows that differ, so an overwrite shows
        prev = later[0][-1]
    assert as_bytes(values, record) == first


def test_a_wide_row_gathers_into_its_plans_scratch():
    # a row after the first allocates its slice and small per-group arrays,
    # but no gather: the largest group's alone would break the bound
    from shapsim.dp_kernels import row_kernel, slot_plan

    space, C = StateSpace.build(make_collab_game(20), 0), 2
    gather = max((C + 1) * nbr.size * 8 for *_, nbr, _, _ in slot_plan(space))
    row = row_kernel(space, C)
    prev = row(np.zeros(C + 1))[0][-1]
    tracemalloc.start()
    try:
        values, _ = row(prev)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - values.nbytes < gather, (peak, values.nbytes, gather)


@pytest.mark.parametrize("game", BITWISE_GAMES, ids=lambda g: g.name)
def test_vectorized_builder_matches_reference_bitwise(game):
    from oracles import _build_slice_reference
    from shapsim.dp_kernels import row_kernel

    space = StateSpace.build(game, 0)
    full = space.n_states <= 2550  # every cell's decision; else a fixed sample of cells
    chained = 3 if space.n_states < 1000 else 1
    for C in (0, 1, 3):
        row = row_kernel(space, C)
        # boundary rows chained from T = 0, as a table feeds them, then at
        # C = 3 a hand-made row that falls in budget with ties
        prev = np.zeros(C + 1)
        for step in range(chained + (C == 3)):
            if step == chained:
                prev = np.array([2.0, 2.0, 0.5, 0.5])
            work, record = row(prev, decisions=True)
            assert work.shape == (space.n_states, C + 1)
            a = work[space.work_row]
            assert np.array_equal(a, _build_slice_reference(space, prev, C)), (game.name, C)
            values_only = row(prev)
            assert values_only[1] is None and np.array_equal(values_only[0], work)
            played = DPTable(space=space, C=C, decisions=[record])
            if full:
                cells = _every_cell(space, C)
            else:
                rng = np.random.default_rng(13)
                cells = tuple(rng.integers(0, top, 3000)
                              for top in (space.n_states, len(space.classes), C + 1))
            got = played.abort_rule(0, 1)(0, *cells)
            assert np.array_equal(got, _abort_rule_at(space, a, *cells)), (game.name, C)
            # with one class an abort leaves the pool an accept leaves, one unit poorer
            assert np.any(got >= 0) == (C >= 1 and len(space.classes) > 1), (game.name, C)
            prev = a[space.full_state]
    if game.name in ("three", "pair(n=6)-bitset"):
        assert _tied_minima(space, a) > 0


def _chained_rows(space, C: int, R: int):
    """Each ``(work, record)`` of ``T = 0..R-1``, each row fed the last one's full pool."""
    from shapsim.dp_kernels import row_kernel

    row, prev = row_kernel(space, C), np.zeros(C + 1)
    for _ in range(R):
        work, record = row(prev, decisions=True)
        yield work, record
        prev = work[-1]


@pytest.mark.parametrize("game", BITWISE_GAMES, ids=lambda g: g.name)
def test_every_chained_slice_falls_in_budget_bit_for_bit(game):
    # the precondition of the best-neighbour abort rule (see shapsim.dp)
    space = StateSpace.build(game, 0)
    for work, _ in _chained_rows(space, 3, 4 if space.n_states < 1000 else 2):
        assert np.all(work[:, 1:] <= work[:, :-1]), game.name


@pytest.mark.parametrize("game", BITWISE_GAMES, ids=lambda g: g.name)
def test_row_refuses_a_prev_row_that_rises_in_budget(game):
    from shapsim.dp_kernels import row_kernel

    row = row_kernel(StateSpace.build(game, 0), 2)
    for rising in ([0.0, 3.0, 1.0], [1.0, 1.0, np.nextafter(1.0, 2.0)]):  # by one ulp, too
        with pytest.raises(ValueError):
            row(np.array(rising))
        with pytest.raises(ValueError):
            row(np.array(rising), decisions=True)
    row(np.array([1.0, 1.0, 0.0]), decisions=True)  # a flat step is no rise


@pytest.mark.parametrize("game", BITWISE_GAMES, ids=lambda g: g.name)
def test_hits_of_one_state_and_budget_abort_from_one_class(game):
    # a hit's abort class is the lowest class attaining the best neighbour,
    # whichever class was drawn
    space = StateSpace.build(game, 0)
    C, shared = 3, 0
    for _, (cells, classes) in _chained_rows(space, C, 4 if space.n_states < 1000 else 2):
        w, _, c = np.unravel_index(cells[:-1], (space.n_states, len(space.classes), C + 1))
        first, cell = np.unique(w * (C + 1) + c, return_index=True, return_inverse=True)[1:]
        hit_classes = classes[:-1]
        assert np.array_equal(hit_classes, hit_classes[first][cell]), game.name
        shared += len(cell) - len(first)  # hits beyond the first of their (state, budget)
    if game.name in ("three", "four", "synergy(n=20,m=14)"):  # else no two hits share one
        assert shared > 0


# frozen sha256 digests of a table's boundary rows and of all its decision
# records, dtypes included: a change to any value or record byte fails here
TABLE_DIGESTS = [
    (make_lb_game(8), 40, 2,
     "e7e90ad0515982c7a7b2285a298578d7e149b2aeb3afeac0b291f617b1fa5b05",
     "646c933c8b92d77587478b875cbead74f74ffdfcd57f65072fc5efe0216ee55f"),
    (make_lb_game(100), 40, 4,
     "f9b79a0bb555feaff2c980548c1bf256ce7cff8181d179ff499face899128e7d",
     "a846d7038ffaaa655915f05864098d76f1a52531f1b0cb216e2188dfcfff0901"),
    (make_lb_game(100), 6, 200,
     "e524ac70c03954d75d8e511e45b48dbad1b413ad33a3b96a0f277266deb102b0",
     "c791bcc08f8985024e935b07605861bff30830a5811c718f4980cf056daf8965"),
    (make_collab_game(20), 6, 2,
     "17a8d54e6040f675582464f03dab669925102469180bf4e629892719a402479a",
     "1902713ffad97a848f8dd3e24728155c874494815357687abff6749234690277"),
    (make_pair_game(5), 40, 0,
     "0197d89ad18a25ffe21d413669aff4a09ae5c389f075c838d1ea64ef04168593",
     "08c8deb8626b988e902c72dc711e5d3038d8d773ff47c362e1cec080a3db58b2"),
]


@pytest.mark.parametrize("game, R, C, rows_sha, records_sha", TABLE_DIGESTS,
                         ids=["lb8-C2", "lb100-C4", "lb100-C200", "collab20-C2", "pair5-C0"])
def test_tables_match_their_golden_digests(game, R, C, rows_sha, records_sha):
    table = dp_build(game, 0, R, C, decisions=True)
    rows = table.rows
    assert hashlib.sha256(rows.dtype.str.encode() + rows.tobytes()).hexdigest() == rows_sha
    records = hashlib.sha256()
    for record in table.decisions:
        for part in record:
            records.update(part.dtype.str.encode())
            records.update(part.tobytes())
    assert records.hexdigest() == records_sha
    assert dp_build(game, 0, R, C).rows.tobytes() == rows.tobytes()  # values only


def _scalar_mu_star(space: StateSpace) -> np.ndarray:
    """Each pool state's mu* from two scalar oracle calls, the pool keeping
    the first members of each class that its counts name."""
    v, hbit = space.game.utility, 1 << space.honest
    out = np.empty(space.n_states)
    for sid in range(space.n_states):
        comp = 0
        for members, k in zip(space.classes, _counts_of(space, sid).tolist()):
            for p in members[k:]:
                comp |= 1 << p
        out[sid] = v(comp | hbit) - v(comp)
    return out


def test_mu_star_is_the_scalar_oracle_bit_for_bit():
    # 70 players: the bulk oracle runs on object masks; vertex 69 is a class
    # of its own and 5..68 are isolated, so one class
    wide = make_synergy_game(
        Hypergraph(n=70, edges=(
            (frozenset({0, 1}), 1.0), (frozenset({0, 2, 69}), 0.5), (frozenset({1, 3}), 2.0),
            (frozenset({0, 3, 4}), 0.75), (frozenset({4, 69}), 1.25), (frozenset({0, 69}), 0.3))),
        symmetry_classes=tuple((p,) for p in range(5)) + ((69,), tuple(range(5, 69))))
    for game, n_states in ((make_collab_game(20), 57_344), (wide, 2 ** 5 * 65),
                           (make_lb_game(8), 5 * 4), (make_lb_game(100), 51 * 50)):
        space = StateSpace.build(game, 0)
        assert space.n_states == n_states
        assert space.mu_star.tobytes() == _scalar_mu_star(space).tobytes(), game.name
        assert space.mu_star.any()


def test_building_the_collab20_state_space_makes_no_scalar_oracle_calls():
    game = make_collab_game(20)
    calls = []
    utility = game.utility

    def counted(mask):
        calls.append(mask)
        return utility(mask)

    game.utility = counted
    space = StateSpace.build(game, 0)
    assert space.n_states == 57_344 and calls == []
    # the wrapper counts: without the bulk oracle each state costs two calls
    game.bulk_utility = None
    assert StateSpace.build(game, 0).mu_star.tobytes() == space.mu_star.tobytes()
    assert len(calls) == 2 * space.n_states


def test_collab_game_compressed_dp_builds():
    g = make_collab_game(20)
    table = dp_build(g, 0, R=3, C=1)
    assert table.rows.shape == (3, 2)
    assert table.rows[0, 0] == pytest.approx(38 / 15, rel=1e-9)


def test_abort_rule_reads_every_recorded_cell_of_a_wide_table():
    # collab20 (57,344 states, 14 classes): a cell's key passes the range of
    # the work-row dtype, and scalar cells, as DPAdversary asks them, must
    # read the same keys as arrays of cells
    table = dp_build(make_collab_game(20), 0, R=2, C=1, decisions=True)
    space, D = table.space, len(table.space.classes)
    rule = table.abort_rule(0, 2)
    for T in range(2):
        cells, classes = table.decisions[T]
        wd, c = np.divmod(cells[:-1].astype(np.int64), table.C + 1)
        work, d = np.divmod(wd, D)
        sid = space.order[work]
        assert len(sid) and work.max() * D > np.iinfo(space.work_row.dtype).max
        assert np.array_equal(rule(np.full(len(sid), T), sid, d, c), classes[:-1])
        picks = list(range(0, len(sid), max(1, len(sid) // 50)))
        assert ([int(rule(T, int(sid[i]), int(d[i]), int(c[i]))) for i in picks]
                == classes[picks].tolist())


def test_parallel_plays_a_wide_table_in_full_chunks():
    # collab20 at C=2: one int8 per (T, state, drawn class, budget) cell
    # over the run's 30 sample indices would take 72 MB; the merged records
    # take a small share of that, and the play matches the sample-by-sample
    # play bit for bit
    g, R, C, M, seed = make_collab_game(20), 30, 2, 2, 4
    table = dp_build(g, 0, R, C, decisions=True)
    space = table.space
    assert R * space.n_states * len(space.classes) * (C + 1) > 64 << 20
    tracemalloc.start()
    try:
        stats = parallel_runs(g, 0, R, C, M, seed, table=table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak
    assert stats.violations.any()
    for m in range(M):
        x, violations, _ = lockstep_reference(table, R, C, seed, run=m)
        assert stats.x_honest[m] == x, m
        assert stats.violations[m] == violations, m
