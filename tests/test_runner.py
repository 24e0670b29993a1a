import math

import numpy as np
import pytest

from shapsim import (
    Budget,
    CyclicShiftAdversary,
    DPAdversary,
    EagerAbortAdversary,
    Game,
    PassiveAdversary,
    RunRecord,
    SampleCapExceeded,
    StoppingRule,
    dp_build,
    make_lb_game,
    make_pair_game,
    make_synergy_game,
    rank_expectation,
    run_adaptive,
    run_allocation,
    run_many,
    shapley_exact,
)
from shapsim.hypergraph import Hypergraph
from oracles import ScriptedAdversary, random_supermodular_game, pinned_rank1_expectation


def single_edge_game(n=4, weight=4.0):
    h = Hypergraph(n=n, edges=((frozenset(range(n)), weight),))
    return make_synergy_game(h)


# --- stopping rules ----------------------------------------------------------------

def test_fixed_rule():
    rule = StoppingRule.fixed(7)
    assert rule.planned_R == 7
    assert not rule.satisfied(6, 0) and rule.satisfied(7, 99)


def test_known_budget_formula_published_scale():
    # terms chosen equal at delta = e^-2.5 (quoted as 0.082)
    delta = math.exp(-2.5)
    assert StoppingRule.known_budget(0.05, delta, 200, 100.0).R == 800_000
    assert StoppingRule.known_budget(0.1, delta, 100, 60 / 19).R == 6316
    # with the rounded delta = 0.082 the ceiling lands slightly higher
    assert StoppingRule.known_budget(0.05, 0.082, 200, 100.0).R == 800_332
    assert StoppingRule.known_budget(0.2, 0.1, 2, 8.0).R == 3685


def test_known_budget_keeps_formula_values():
    rule = StoppingRule.known_budget(0.2, 0.1, 2, 8.0)
    a, b = rule.formula_values
    assert a == pytest.approx(8 * 8 / 0.04 * math.log(10.0))
    assert b == pytest.approx(2 * 2 * 8 / 0.2)
    assert rule.R == max(math.ceil(a), math.ceil(b))


def test_unknown_budget_rule():
    rule = StoppingRule.unknown_budget(0.5, 0.5, 2.0)
    r0 = 8 * 2 / 0.25 * (math.log(16 * 2 / 0.25) + math.log(2.0))
    assert rule.R == math.ceil(r0)
    assert not rule.satisfied(rule.R - 1, 0)
    assert rule.satisfied(rule.R, 0)
    # violating fraction above eps/(2 gamma) blocks termination
    bad_v = int(0.5 / 4.0 * rule.R) + 1
    assert not rule.satisfied(rule.R, bad_v)


@pytest.mark.parametrize("eps, delta", [
    (0.0, 0.1), (-0.5, 0.5), (1.0, 0.5), (1.5, 0.5), (math.nan, 0.5),
    (0.1, 0.0), (0.1, 1.0), (0.1, 1.5), (0.1, -1.0), (0.1, math.nan),
])
@pytest.mark.parametrize("rule", ["known_budget", "unknown_budget", "adaptive"])
def test_eps_and_delta_outside_the_open_unit_interval_raise(rule, eps, delta):
    calls = {
        "known_budget": lambda: StoppingRule.known_budget(eps, delta, 1, 2.0),
        "unknown_budget": lambda: StoppingRule.unknown_budget(eps, delta, 2.0),
        "adaptive": lambda: run_adaptive(single_edge_game(), PassiveAdversary(), eps, delta,
                                         4.0, honest=0, seed=0),
    }
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        calls[rule]()


@pytest.mark.parametrize("gamma", [0.0, -2.0, 0.5, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("rule", ["known_budget", "unknown_budget", "adaptive"])
def test_gamma_that_is_not_a_finite_ratio_of_at_least_1_raises(rule, gamma):
    calls = {
        "known_budget": lambda: StoppingRule.known_budget(0.2, 0.1, 1, gamma),
        "unknown_budget": lambda: StoppingRule.unknown_budget(0.2, 0.1, gamma),
        "adaptive": lambda: run_adaptive(single_edge_game(), PassiveAdversary(), 0.2, 0.1,
                                         gamma, honest=0, seed=0),
    }
    with pytest.raises(ValueError, match="finite and at least 1"):
        calls[rule]()


# --- allocation loop --------------------------------------------------------------------

def test_allocation_efficiency_every_run():
    for game, honest in [(make_pair_game(4), 0), (make_lb_game(4), 0), (single_edge_game(), 0)]:
        for protocol in ("naive", "seq"):
            rec = run_allocation(game, protocol, PassiveAdversary(),
                                 StoppingRule.fixed(40), honest=honest, seed=31)
            assert float(np.sum(rec.x)) == pytest.approx(game.grand_value(), rel=1e-9)


def test_allocation_efficiency_with_violations_and_perpetual():
    g = make_lb_game(4)
    adv = EagerAbortAdversary(Budget.known(5))
    rec = run_allocation(g, "seq", adv, StoppingRule.fixed(30), honest=0,
                         seed=32, punish="perpetual")
    assert float(np.sum(rec.x)) == pytest.approx(g.grand_value(), rel=1e-9)
    # perpetual removal strands the spender once only a duel pool remains:
    # n - 2 pins exhaust its abort candidates
    assert rec.violations == 2

    adv = EagerAbortAdversary(Budget.known(5))
    rec = run_allocation(g, "seq", adv, StoppingRule.fixed(30), honest=0,
                         seed=32, punish="count_only")
    assert float(np.sum(rec.x)) == pytest.approx(g.grand_value(), rel=1e-9)
    assert rec.violations == 5


def test_passive_converges_to_phi():
    g = make_pair_game(3)
    rec = run_allocation(g, "seq", PassiveAdversary(), StoppingRule.fixed(20_000),
                         honest=0, seed=33)
    assert abs(rec.x_honest - 1.0) < 0.02
    assert rec.violations == 0


def test_decomposition_soundness():
    g = make_lb_game(4)
    umax = g.extras["alpha"]
    adv = EagerAbortAdversary(Budget.known(4))
    rec = run_allocation(g, "seq", adv, StoppingRule.fixed(25), honest=0, seed=34)
    z_total = sum(z for _, z, _ in rec.per_sample)
    assert z_total <= rec.violations * umax + 1e-9
    for y, z, _ in rec.per_sample:
        assert z >= 0.0
        assert y == pytest.approx((y - z) + z)


def test_perpetual_pins_dev_to_least_preferable():
    g = make_lb_game(6)
    adv = ScriptedAdversary({(0, 0): {3}, (2, 1): {5}})
    rec = run_allocation(g, "seq", adv, StoppingRule.fixed(5), honest=0,
                         seed=35, punish="perpetual")
    assert rec.violations == 2
    # pinned players keep absorbing the lowest ranks after detection; their
    # allocation contribution comes from the modified game
    assert rec.samples_used == 5


class OrderSpy(PassiveAdversary):
    """Records each P-sample's active set: the pool of its first commit view."""

    def __init__(self):
        super().__init__()
        self.active_sets = []
        self._first_commit = False

    def begin_sample(self, index):
        super().begin_sample(index)
        self._first_commit = True

    def commit_draws(self, view, susceptible, k):
        if self._first_commit:
            self.active_sets.append(view.active_set)
            self._first_commit = False
        return super().commit_draws(view, susceptible, k)


def test_perpetual_shrinks_active_set():
    g = make_lb_game(6)

    class SpyScripted(ScriptedAdversary, OrderSpy):
        pass

    adv = SpyScripted({(0, 0): {3}})
    adv.active_sets = []
    rec = run_allocation(g, "seq", adv, StoppingRule.fixed(3), honest=0,
                         seed=36, punish="perpetual")
    assert adv.active_sets[0] == tuple(range(6))
    assert 3 not in adv.active_sets[1]
    assert 3 not in adv.active_sets[2]


def test_count_only_keeps_everyone_active():
    g = make_lb_game(6)

    class SpyScripted(ScriptedAdversary, OrderSpy):
        pass

    adv = SpyScripted({(0, 0): {3}})
    adv.active_sets = []
    run_allocation(g, "seq", adv, StoppingRule.fixed(3), honest=0, seed=37,
                   punish="count_only")
    assert all(s == tuple(range(6)) for s in adv.active_sets)


def test_perpetual_effective_game_expectation():
    # once player 1 is pinned, the honest expectation under further passive
    # sampling is the rank-1-restricted value, computed here by enumeration
    g = make_lb_game(4)
    expect = pinned_rank1_expectation(g, honest=0, pinned=1)
    adv = ScriptedAdversary({(0, 0): {1}})
    vals = []
    for m in range(3000):
        rec = run_allocation(g, "seq", adv, StoppingRule.fixed(2), honest=0,
                             seed=38, punish="perpetual", stream_labels=("run", m))
        vals.append(rec.per_sample[1][0])  # Y of the post-pin sample (Z = 0)
    mean = float(np.mean(vals))
    sigma = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert abs(mean - expect) < 3.5 * sigma


def test_run_rejects_bad_inputs():
    g = make_pair_game(3)
    with pytest.raises(ValueError):
        run_allocation(g, "bogus", PassiveAdversary(), StoppingRule.fixed(1), honest=0, seed=1)
    with pytest.raises(ValueError):
        run_allocation(g, "seq", PassiveAdversary(), StoppingRule.fixed(1), honest=9, seed=1)
    bad = Game(n=3, utility=lambda m: 0.0, declared_monotone=False)
    with pytest.raises(ValueError):
        run_allocation(bad, "seq", PassiveAdversary(), StoppingRule.fixed(1), honest=0, seed=1)


def test_hard_cap_diagnostic():
    g = make_pair_game(3, i_star=2, j_star=0)
    adv = CyclicShiftAdversary(Budget.rate(0.9))
    rule = StoppingRule.unknown_budget(0.1, 0.5, 2.0, cap=200)
    with pytest.raises(SampleCapExceeded) as exc:
        run_allocation(g, "naive", adv, rule, honest=2, seed=39)
    assert "violation rate" in str(exc.value)


def test_the_unknown_budget_rule_gives_up_at_ten_times_r0_by_default():
    rule = StoppingRule.unknown_budget(0.5, 0.5, 2.0)
    assert rule.cap == 10 * rule.R
    assert StoppingRule.unknown_budget(0.5, 0.5, 2.0, cap=7).cap == 7


@pytest.mark.parametrize("rule", [StoppingRule.fixed(40),
                                  StoppingRule.known_budget(0.5, 0.5, 0, 2.0)],
                         ids=["fixed", "known_budget"])
def test_a_count_rule_never_gives_up(rule):
    # against an adversary that aborts nearly every sample, a count rule
    # stops at its R, which is its cap
    g = make_pair_game(3, i_star=2, j_star=0)
    adv = CyclicShiftAdversary(Budget.rate(0.9))
    assert rule.cap == rule.R
    rec = run_allocation(g, "naive", adv, rule, honest=2, seed=39)
    assert rec.samples_used == rule.R and rec.violations > rule.R // 2


def test_unknown_budget_terminates_within_bound():
    # a finite-budget adversary cannot stall the violating-fraction rule
    eps, delta, gamma, C = 0.5, 0.5, 2.0, 2
    g = make_pair_game(3)
    rule = StoppingRule.unknown_budget(eps, delta, gamma)
    bound = max(rule.R, math.ceil(2 * C * gamma / eps))
    table = dp_build(g, 0, R=bound, C=C, decisions=True)
    for m in range(20):
        adv = DPAdversary(table, Budget.known(C))
        rec = run_allocation(g, "seq", adv, rule, honest=0, seed=40,
                             stream_labels=("run", m))
        assert rec.samples_used <= bound


def test_sample_count_upper_bound_for_expected_security():
    # with R = Gamma*C/eps samples, every budget-C strategy leaves the mean
    # within eps of the Shapley value
    g = make_pair_game(3, i_star=2, j_star=0)
    gamma, C, eps = 2.0, 2, 0.2
    R = math.ceil(gamma * C / eps)
    phi = 1.0
    for factory in (PassiveAdversary, lambda: CyclicShiftAdversary(Budget.known(C))):
        vals = []
        for m in range(2500):
            rec = run_allocation(g, "naive", factory(), StoppingRule.fixed(R),
                                 honest=2, seed=41, stream_labels=("run", m))
            vals.append(rec.x_honest)
        mean = float(np.mean(vals))
        sigma = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        assert mean >= (1 - eps) * phi - 3 * sigma


# --- adaptive loop -----------------------------------------------------------------------

def test_adaptive_passive_reaches_target():
    g = single_edge_game()
    rec = run_adaptive(g, PassiveAdversary(), eps=0.25, delta=0.5, gamma=4.0,
                       honest=0, seed=42)
    assert rec.epsilon_hat <= 0.25
    assert rec.violations == 0
    assert float(np.sum(rec.x)) == pytest.approx(g.grand_value(), rel=1e-9)


def test_adaptive_snapshot_semantics():
    # the returned allocation is the last threshold-passing average, not the
    # final running average
    g = single_edge_game()
    trace = []

    class TraceAdversary(PassiveAdversary):
        def begin_sample(self, index):
            super().begin_sample(index)
            trace.append(index)

    rec = run_adaptive(g, TraceAdversary(), eps=0.25, delta=0.5, gamma=4.0,
                       honest=0, seed=43)
    # threshold for eps_{k+1} = 0.25 is 512 * ln(8/\delta)... recompute
    k2 = 8 * 4.0 / 0.25**2 * math.log(4 / 0.5)
    assert rec.samples_used == math.ceil(k2)


def test_adaptive_always_violating_breaks_at_level_zero():
    g = single_edge_game()

    class AlwaysAbort(CyclicShiftAdversary):
        pass

    adv = AlwaysAbort(Budget.unlimited())
    rec = run_adaptive(g, adv, eps=0.25, delta=0.5, gamma=4.0, honest=3, seed=44)
    assert rec.epsilon_hat == 1.0
    assert np.all(rec.x == 0.0)  # snapshot never taken


def test_adaptive_rate_bound():
    g = single_edge_game()
    for f in (0.0, 0.01, 0.1):
        adv = CyclicShiftAdversary(Budget.rate(f))
        rec = run_adaptive(g, adv, eps=0.25, delta=0.5, gamma=4.0, honest=3, seed=45)
        assert rec.epsilon_hat <= max(0.25, 4 * f * 4.0) + 1e-12
        assert rec.violations <= f * rec.samples_used + 1e-9


# --- estimates -----------------------------------------------------------------------------

def test_expected_reward_estimate_passive():
    g = make_pair_game(3)
    x = run_many(g, "seq", PassiveAdversary, StoppingRule.fixed(50), range(200),
                 honest=0, seed=46)
    stderr = np.std(x, ddof=1) / math.sqrt(len(x))
    assert abs(np.mean(x) - 1.0) < 4 * stderr + 0.05


def test_cyclic_single_sample_forces_rank_one_reward():
    g = make_lb_game(4)  # supermodular; rank 1 reward is mu over empty set
    u1 = rank_expectation(g, 3, 1)
    x = run_many(g, "naive", lambda: CyclicShiftAdversary(Budget.known(1)),
                 StoppingRule.fixed(1), range(100), honest=3, seed=47)
    assert np.mean(x) == pytest.approx(u1, abs=1e-12)


# --- records --------------------------------------------------------------------------------

def test_run_record_csv_shape():
    g = make_pair_game(3)
    rec = run_allocation(g, "seq", PassiveAdversary(), StoppingRule.fixed(3),
                         honest=0, seed=48)
    text = rec.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "# schema-version: 1"
    assert lines[1] == "j,Y,Z,dev"
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 5  # header + 3 samples + trailer
    assert lines[-2].startswith("# trailer:")
    assert lines[-1].split(",")[0] == "3"  # R in the trailer


def test_run_record_csv_rows_are_the_generic_renderer_rows():
    from shapsim.csvio import format_number, render_csv

    values = [0, 7, -3, 2 ** 70, np.float64(0.1), np.float64(-0.0), np.float64(math.nan),
              1e13, 1e-7, -0.0, math.nan, math.inf, 0.1 + 0.2, 1 / 3, 123456789012345.6]
    per_sample = [(y, z, frozenset(range(j % 3))) for j, (y, z) in
                  enumerate((y, z) for y in values for z in values)]
    rec = RunRecord(x=np.array([0.25, 1e-7]), epsilon_hat=math.nan, per_sample=per_sample,
                    samples_used=len(per_sample), violations=5, seed=9, honest=1)
    rows = [(j, y, z, len(dev)) for j, (y, z, dev) in enumerate(per_sample, start=1)]
    trailer = f"{len(per_sample)},5,{format_number(1e-7)},nan,9\n"
    assert rec.to_csv() == (render_csv(["j", "Y", "Z", "dev"], rows)
                            + "# trailer: R,V,x_honest,eps_hat,seed\n" + trailer)
    for x in values + [True, np.int64(4), np.float32(0.1)]:
        if not isinstance(x, int) or isinstance(x, bool):
            assert format_number(x) == f"{float(x):.12g}"
