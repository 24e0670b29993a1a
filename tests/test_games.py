import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shapsim import (
    Game,
    Hypergraph,
    as_mask,
    is_supermodular,
    make_collab_game,
    make_lb_game,
    make_max_gamma_game,
    make_pair_game,
    make_synergy_game,
    marginal_contribution,
    mask_dtype,
    rank_expectation,
    shapley_exact,
    shapley_via_permutations,
)
from shapsim.games import VALUES_BLOCK, value_table
from oracles import (
    is_monotone,
    random_hypergraph,
    random_monotone_game,
    random_simple_graph,
    random_supermodular_game,
    shapley_by_subset_formula,
    shapley_exhaustive,
    supermodular_by_definition,
    verify_symmetry_classes,
)

TRIANGLE = Hypergraph(n=3, edges=(
    (frozenset({0, 1}), 1.0), (frozenset({1, 2}), 1.0), (frozenset({0, 2}), 1.0)))


def triangle_game():
    return make_synergy_game(TRIANGLE)


class CountingGame:
    def __init__(self, game):
        self.game = game
        self.calls = 0

    def utility(self, mask):
        self.calls += 1
        return self.game.utility(mask)


# --- marginal contribution ----------------------------------------------------

def test_marginal_contribution_pair_special():
    g = make_pair_game(4, i_star=0, j_star=1)
    assert marginal_contribution(g, 0, {1}) == 2.0


def test_marginal_contribution_zero_when_equal():
    g = make_pair_game(4)
    assert marginal_contribution(g, 2, {0}) == 0.0


def test_marginal_contribution_triangle():
    assert marginal_contribution(triangle_game(), 0, {1, 2}) == 2.0


def test_marginal_contribution_uses_exactly_two_oracle_calls():
    counting = CountingGame(make_pair_game(3))
    g = Game(n=3, utility=counting.utility)
    marginal_contribution(g, 0, {1})
    assert counting.calls == 2


def test_marginal_contribution_rejects_member():
    with pytest.raises(ValueError):
        marginal_contribution(make_pair_game(3), 0, {0, 1})


# --- exact Shapley -------------------------------------------------------------

def test_shapley_single_player():
    g = Game(n=1, utility=lambda m: 5.0 if m else 0.0)
    report = shapley_exact(g)
    assert report.phi[0] == 5.0


def test_shapley_pair_game_any_n():
    for n in (2, 3, 5):
        report = shapley_exhaustive(make_pair_game(n))
        assert report.phi[0] == pytest.approx(1.0, rel=1e-12)
        assert report.phi[1] == pytest.approx(1.0, rel=1e-12)
        assert np.all(report.phi[2:] == 0.0)


def test_shapley_triangle_brute_force():
    report = shapley_exhaustive(triangle_game())
    assert report.phi == pytest.approx([1.0, 1.0, 1.0], rel=1e-12)


def test_shapley_rejects_large_without_closed_forms():
    g = Game(n=21, utility=lambda m: 0.0)
    with pytest.raises(ValueError):
        shapley_exact(g)


def test_shapley_closed_forms_skip_enumeration():
    g = make_lb_game(100)  # far beyond exhaustive range
    report = shapley_exact(g)
    assert report.phi[0] == pytest.approx(1.0, rel=1e-12)


def test_subset_form_matches_plain_python_formula():
    rng = np.random.default_rng(11)
    g = random_monotone_game(rng, 5)
    assert shapley_exact(g).phi == pytest.approx(shapley_by_subset_formula(g), rel=1e-12)


@given(st.integers(0, 10_000))
def test_efficiency_and_permutation_equivalence(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    g = random_monotone_game(rng, n)
    report = shapley_exact(g)
    assert float(np.sum(report.phi)) == pytest.approx(g.grand_value(), rel=1e-9)
    assert report.phi == pytest.approx(shapley_via_permutations(g), rel=1e-9, abs=1e-12)


# --- gamma ---------------------------------------------------------------------

def test_gamma_simple_graph_is_two():
    rng = np.random.default_rng(5)
    for _ in range(4):
        g = make_synergy_game(random_simple_graph(rng, 5))
        assert shapley_exact(g).gamma == pytest.approx(2.0, rel=1e-12)
        assert shapley_exhaustive(g).gamma == pytest.approx(2.0, rel=1e-9)


def test_gamma_pair_game_is_two():
    # U_max of a special player is 2 and its Shapley value is 1; everyone
    # else has the 0/0 = 1 convention, so the overall ratio is 2.
    report = shapley_exhaustive(make_pair_game(3))
    assert report.gamma == pytest.approx(2.0, rel=1e-12)
    assert report.gamma_per_player[2] == 1.0


def test_gamma_zero_zero_convention():
    g = Game(n=2, utility=lambda m: 0.0)
    report = shapley_exact(g)
    assert list(report.gamma_per_player) == [1.0, 1.0]
    assert report.gamma == 1.0


def test_gamma_max_gamma_game_attains_monotone_bound():
    for n in (3, 5, 7):
        bound = n * math.comb(n - 1, (n - 1) // 2)
        assert shapley_exhaustive(make_max_gamma_game(n)).gamma == pytest.approx(bound, rel=1e-12)


def test_gamma_monotone_bound_random_games():
    rng = np.random.default_rng(17)
    for _ in range(8):
        n = int(rng.integers(2, 7))
        g = random_monotone_game(rng, n)
        bound = n * math.comb(n - 1, (n - 1) // 2)
        assert shapley_exact(g).gamma <= bound + 1e-9


def test_gamma_supermodular_bound_random_games():
    rng = np.random.default_rng(19)
    for _ in range(8):
        n = int(rng.integers(2, 8))
        g = random_supermodular_game(rng, n)
        assert shapley_exact(g).gamma <= n + 1e-9


def test_lb_game_exposes_both_gamma_readings():
    g = make_lb_game(10)
    report = shapley_exhaustive(g)
    # Exhaustive ratio: outsiders dominate with 4n(n-1)/(5n-2).
    assert report.gamma == pytest.approx(4 * 10 * 9 / 48, rel=1e-9)
    # The honest player's own ratio is alpha.
    assert report.gamma_per_player[0] == pytest.approx(g.extras["alpha"], rel=1e-9)
    # The conventional protocol parameter stays n.
    assert g.protocol_gamma == 10.0


# --- structure checks ----------------------------------------------------------

def test_monotone_and_supermodular_zero_game():
    g = Game(n=3, utility=lambda m: 0.0)
    assert is_monotone(g) and is_supermodular(g)


def test_synergy_games_supermodular():
    rng = np.random.default_rng(23)
    for _ in range(5):
        g = make_synergy_game(random_simple_graph(rng, 5))
        assert is_supermodular(g)
        assert is_monotone(g)


def test_subadditive_game_not_supermodular():
    g = Game(n=3, utility=lambda m: 2.0 * min(bin(m).count("1"), 1) - bin(m).count("1"))
    assert not is_supermodular(g)
    assert not is_monotone(g)


def test_supermodular_check_matches_pair_definition():
    rng = np.random.default_rng(29)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        if rng.random() < 0.5:
            g = random_supermodular_game(rng, n)
        else:
            g = random_monotone_game(rng, n)
        assert is_supermodular(g) == supermodular_by_definition(g)


def test_structure_checks_reject_large_n():
    g = Game(n=13, utility=lambda m: 0.0)
    with pytest.raises(ValueError):
        is_monotone(g)
    with pytest.raises(ValueError):
        is_supermodular(g)


# --- rank expectation ------------------------------------------------------------

def test_rank_one_is_empty_set_marginal():
    g = triangle_game()
    assert rank_expectation(g, 0, 1) == marginal_contribution(g, 0, 0)


def test_rank_expectations_triangle():
    g = triangle_game()
    assert [rank_expectation(g, 0, j) for j in (1, 2, 3)] == [0.0, 1.0, 2.0]


def test_rank_expectation_pair_top():
    g = make_pair_game(4)
    assert rank_expectation(g, 0, 4) == 2.0


def test_rank_expectation_rejects_bad_rank():
    with pytest.raises(ValueError):
        rank_expectation(make_pair_game(3), 0, 4)


def test_rank_monotone_for_supermodular():
    rng = np.random.default_rng(31)
    for _ in range(5):
        n = int(rng.integers(3, 8))
        g = random_supermodular_game(rng, n)
        for i in range(n):
            ranks = [rank_expectation(g, i, j) for j in range(1, n + 1)]
            assert all(a <= b + 1e-12 for a, b in zip(ranks, ranks[1:]))


# --- constructors -----------------------------------------------------------------

def test_lb_game_values():
    g = make_lb_game(100)
    assert g.extras["alpha"] == pytest.approx(19800 / 298, rel=1e-12)
    assert g.value(()) == 0.0
    assert g.value(range(100)) == pytest.approx(2 * 19800 / 298, rel=1e-12)


def test_lb_game_phi_n4():
    g = make_lb_game(4)
    alpha = 24 / 10
    assert g.extras["alpha"] == pytest.approx(alpha, rel=1e-12)
    report = shapley_exhaustive(g)
    assert report.phi[0] == pytest.approx(0.25 * alpha + 0.25 * (2 / 3) * alpha, rel=1e-12)
    assert report.phi[0] == pytest.approx(1.0, rel=1e-12)


def test_lb_game_rejects_odd_or_tiny():
    for bad in (2, 5, 7):
        with pytest.raises(ValueError):
            make_lb_game(bad)


def test_lb_game_supermodular():
    for n in (4, 6, 8):
        assert is_supermodular(make_lb_game(n))


def test_max_gamma_game_phi():
    g = make_max_gamma_game(5)
    report = shapley_exact(g)
    for p in range(2, 5):  # outside the pivot set
        assert report.phi[p] == pytest.approx(1 / 30, rel=1e-12)


def test_pair_game_rejects_same_players():
    with pytest.raises(ValueError):
        make_pair_game(4, i_star=1, j_star=1)


def test_synergy_single_hyperedge():
    h = Hypergraph(n=4, edges=((frozenset({0, 1, 2}), 3.0),))
    report = shapley_exhaustive(make_synergy_game(h))
    assert report.phi[0] == pytest.approx(1.0, rel=1e-12)
    assert report.phi[3] == 0.0


def test_synergy_empty_hypergraph_all_zero():
    g = make_synergy_game(Hypergraph(n=3, edges=()))
    report = shapley_exact(g)
    assert np.all(report.phi == 0.0)
    assert report.gamma == 1.0


def test_closed_forms_match_brute_force():
    rng = np.random.default_rng(37)
    games = [make_pair_game(5), make_max_gamma_game(6), make_lb_game(6),
             make_synergy_game(random_simple_graph(rng, 6)), make_collab_game_small()]
    for g in games:
        closed = shapley_exact(g)
        brute = shapley_exhaustive(g)
        assert closed.phi == pytest.approx(brute.phi, rel=1e-9, abs=1e-12)
        assert closed.u_max == pytest.approx(brute.u_max, rel=1e-9, abs=1e-12)
        assert closed.gamma == pytest.approx(brute.gamma, rel=1e-9)


def make_collab_game_small():
    # truncated variant small enough for exhaustive checking is not
    # meaningful; use a plain synergy game on the first publications
    h = Hypergraph(n=7, edges=(
        (frozenset({0, 1}), 1.0), (frozenset({0, 2}), 1.0),
        (frozenset({0, 3, 4}), 1.0), (frozenset({0, 5, 6}), 1.0),
        (frozenset({0, 1, 2}), 1.0)))
    return make_synergy_game(h)


def test_collab_stand_in_statistics():
    g = make_collab_game(30)
    report = shapley_exact(g)
    # 8 publications, weighted degree 8, ratio 60/19 for the honest author
    assert report.u_max[0] == pytest.approx(8.0, rel=1e-12)
    assert report.gamma_per_player[0] == pytest.approx(60 / 19, rel=1e-12)
    assert report.gamma == pytest.approx(60 / 19, rel=1e-12)
    assert abs(report.gamma - 3.15789) < 1e-4
    h = g.extras["hypergraph"]
    collaborators = set()
    publications = 0
    for verts, _ in h.edges:
        if 0 in verts:
            publications += 1
            collaborators |= verts - {0}
    assert publications == 8
    assert len(collaborators) == 13


def test_collab_gamma_exhaustive():
    report = shapley_exhaustive(make_collab_game(14))
    assert report.gamma == pytest.approx(60 / 19, rel=1e-9)


# --- symmetry ---------------------------------------------------------------------

def test_symmetry_classes_verified():
    for g in (make_pair_game(5), make_max_gamma_game(6), make_lb_game(8)):
        assert verify_symmetry_classes(g)


def test_symmetry_violation_detected():
    g = Game(n=3, utility=lambda m: float(bin(m).count("1")) + (0.5 if m & 1 else 0.0),
             symmetry_classes=((0, 1), (2,)))
    assert not verify_symmetry_classes(g)


def test_symmetric_players_get_equal_phi():
    for g in (make_pair_game(5), make_max_gamma_game(6), make_lb_game(6)):
        report = shapley_exhaustive(g)
        for cls in g.symmetry_classes:
            vals = [report.phi[p] for p in cls]
            assert max(vals) - min(vals) < 1e-12


def test_mask_helpers_roundtrip():
    assert as_mask([0, 2, 5]) == 0b100101
    assert as_mask(as_mask([1, 3])) == 0b1010


# --- bulk oracle ------------------------------------------------------------------

def _random_masks(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """The empty and full masks, then ``count`` masks of random density."""
    masks = [0, (1 << n) - 1]
    for _ in range(count):
        keep = np.flatnonzero(rng.random(n) < rng.random())
        masks.append(sum(1 << int(p) for p in keep))
    return np.array(masks, dtype=mask_dtype(n))


def _assert_values_are_scalar_bits(game: Game, masks: np.ndarray) -> None:
    got = game.values(masks)
    expect = np.array([game.utility(m) for m in masks.tolist()], dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == masks.shape
    assert got.tobytes() == expect.tobytes(), game.name
    assert got.any()  # some mask holds an edge


def test_mask_dtype_is_int64_up_to_62_players():
    assert mask_dtype(1) is np.int64 and mask_dtype(62) is np.int64
    assert mask_dtype(63) is object and mask_dtype(200) is object


@pytest.mark.parametrize("game", [
    make_pair_game(6, 2, 4), make_lb_game(8), make_max_gamma_game(7), triangle_game(),
    make_collab_game(14), make_collab_game(20),
], ids=lambda g: g.name)
def test_values_match_the_scalar_oracle_for_builtin_games(game):
    if game.n <= 14:
        _assert_values_are_scalar_bits(game, np.arange(1 << game.n, dtype=np.int64))
    else:  # more masks than one block of the bulk oracle
        _assert_values_are_scalar_bits(game, _random_masks(np.random.default_rng(5), game.n,
                                                           VALUES_BLOCK + 1000))


@pytest.mark.parametrize("n", [5, 30, 62, 63, 100, 200])
def test_synergy_values_match_the_scalar_oracle_on_random_hypergraphs(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        game = make_synergy_game(random_hypergraph(rng, n, max_size=4))
        masks = _random_masks(rng, n, 500)
        assert masks.dtype == (np.int64 if n <= 62 else object)
        _assert_values_are_scalar_bits(game, masks)


def test_values_without_a_bulk_oracle_call_utility_once_per_mask_in_order():
    seen = []

    def v(mask):
        seen.append(mask)
        return float(bin(mask).count("1")) / 3.0

    game = Game(n=70, utility=v)
    assert game.bulk_utility is None
    masks = _random_masks(np.random.default_rng(1), 70, 50)
    got = game.values(masks)
    assert seen == masks.tolist()
    assert got.tobytes() == np.array([bin(m).count("1") / 3.0 for m in seen]).tobytes()
    assert game.values(np.array([], dtype=np.int64)).shape == (0,)


def test_value_table_of_a_synergy_game_is_the_scalar_oracle_bit_for_bit():
    game = make_synergy_game(random_hypergraph(np.random.default_rng(9), 11, max_size=5))
    table = value_table(game)
    assert table.tobytes() == np.array([game.utility(m) for m in range(1 << 11)]).tobytes()
