"""Coalitional games: exact Shapley values, marginal contributions, and
structural property checks.

Player subsets are fixed-width bit-sets: player ``i`` corresponds to bit
``1 << i``.  Utility oracles map a subset mask to a non-negative real reward.
:meth:`Game.values` evaluates an array of masks in one call: ``int64`` masks
while ``n <= 62`` and ``object`` arrays of Python ints above that (see
:func:`mask_dtype`), with each value bit-identical to the scalar oracle's.
Exhaustive routines enumerate subsets in increasing popcount order and are
capped at sizes where the enumeration is tractable (``n <= 20`` for exact
Shapley values, ``n <= 12`` for structural checks).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

MAX_EXACT_PLAYERS = 20
MAX_CHECK_PLAYERS = 12
MAX_INT64_PLAYERS = 62  # masks of larger games are Python ints in object arrays
VALUES_BLOCK = 8192  # masks per bulk-oracle call; larger blocks fragment the heap


def as_mask(players: int | Iterable[int]) -> int:
    """Normalize a player collection (or an already-built mask) to a bit-set."""
    if isinstance(players, (int, np.integer)):
        return int(players)
    mask = 0
    for p in players:
        mask |= 1 << int(p)
    return mask


def mask_dtype(n: int) -> type:
    """The dtype of subset-mask arrays for an ``n``-player game."""
    return np.int64 if n <= MAX_INT64_PLAYERS else object


@dataclass(frozen=True)
class ClosedForms:
    """Analytically known per-player Shapley values and maxima (tuples)."""

    phi: tuple[float, ...]
    u_max: tuple[float, ...]


@dataclass(eq=False)
class Game:
    """A coalitional game on players ``0 .. n-1``.

    ``utility`` maps a subset mask to the coalition's reward.  It must be
    defined on the empty set and is assumed non-negative on every subset the
    protocols query.  Games are immutable after construction and the oracle
    must be safe for concurrent read-only evaluation.

    :meth:`values` is the bulk entry point: the utilities of an array of
    masks (dtype :func:`mask_dtype`), each equal to ``utility`` of that mask
    bit for bit.  ``bulk_utility``, when a constructor supplies it, is the
    vectorised oracle behind it; without one, ``values`` calls ``utility``
    once per mask, in the given order.

    ``symmetry_classes``, when declared by a constructor, partitions the
    players into interchangeable categories: permuting players inside one
    class never changes the utility.  Classes are declared, never inferred;
    the test suite verifies the declarations of the built-in constructions.

    ``protocol_gamma`` optionally records the max-to-mean ratio that the
    named construction is conventionally analyzed with, which experiment
    drivers use as the default sampling parameter.  It may differ from the
    exhaustively computed ratio; see :func:`make_lb_game`.
    """

    n: int
    utility: Callable[[int], float]
    name: str = "game"
    symmetry_classes: tuple[tuple[int, ...], ...] | None = None
    closed_forms: ClosedForms | None = None
    protocol_gamma: float | None = None
    declared_monotone: bool | None = None
    extras: dict = field(default_factory=dict)
    bulk_utility: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)
    _table: np.ndarray | None = field(default=None, repr=False)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def value(self, subset: int | Iterable[int]) -> float:
        return float(self.utility(as_mask(subset)))

    def values(self, masks: np.ndarray) -> np.ndarray:
        """The utility at each mask of a 1-d array, as float64, bit-identical to ``utility``."""
        masks = np.asarray(masks)
        if self.bulk_utility is None:
            return np.fromiter(map(self.utility, masks.tolist()), dtype=np.float64,
                               count=len(masks))
        out = np.empty(len(masks), dtype=np.float64)
        for lo in range(0, len(masks), VALUES_BLOCK):
            out[lo:lo + VALUES_BLOCK] = self.bulk_utility(masks[lo:lo + VALUES_BLOCK])
        return out


@dataclass(frozen=True)
class ShapleyReport:
    """Exact per-player Shapley data for one game.

    ``gamma_per_player`` uses the convention 0/0 = 1; ``gamma`` is the
    maximum entry.
    """

    phi: np.ndarray
    u_max: np.ndarray
    gamma_per_player: np.ndarray
    gamma: float


def marginal_contribution(game: Game, i: int, subset: int | Iterable[int]) -> float:
    """Reward gain of player ``i`` joining coalition ``subset``.

    Exactly two utility-oracle calls.  Rejects ``i`` already in the subset.
    """
    mask = as_mask(subset)
    bit = 1 << i
    if mask & bit:
        raise ValueError(f"player {i} is already in the subset")
    return float(game.utility(mask | bit)) - float(game.utility(mask))


def _popcounts(n: int) -> np.ndarray:
    masks = np.arange(1 << n, dtype=np.int64)
    pops = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        pops += (masks >> i) & 1
    return pops


def value_table(game: Game) -> np.ndarray:
    """All ``2**n`` utility values, indexed by subset mask (cached).

    Evaluation order is increasing popcount so incremental oracles see small
    coalitions first.
    """
    if game._table is not None:
        return game._table
    if game.n > MAX_EXACT_PLAYERS:
        raise ValueError(f"value table for n={game.n} exceeds the n<={MAX_EXACT_PLAYERS} cap")
    masks = np.argsort(_popcounts(game.n), kind="stable")
    table = np.empty(1 << game.n, dtype=np.float64)
    table[masks] = game.values(masks)
    game._table = table
    return table


def _gamma_vector(phi: np.ndarray, u_max: np.ndarray) -> np.ndarray:
    out = np.empty_like(phi)
    for i in range(len(phi)):
        if u_max[i] == 0.0 and phi[i] == 0.0:
            out[i] = 1.0
        elif phi[i] == 0.0:
            out[i] = math.inf
        else:
            out[i] = u_max[i] / phi[i]
    return out


def _report_from(phi: np.ndarray, u_max: np.ndarray) -> ShapleyReport:
    gpp = _gamma_vector(phi, u_max)
    return ShapleyReport(phi=phi, u_max=u_max, gamma_per_player=gpp, gamma=float(np.max(gpp)))


def shapley_exact(game: Game) -> ShapleyReport:
    """Exact Shapley vector, per-player maxima, and max-to-mean ratios.

    Uses the subset form (sum over the ``2**(n-1)`` coalitions excluding each
    player, weighted by inverse binomials).  If the game declares closed
    forms they are returned directly.  Rejects ``n > 20`` without closed forms.
    """
    if game.closed_forms is not None:
        cf = game.closed_forms
        return _report_from(np.asarray(cf.phi, dtype=np.float64),
                            np.asarray(cf.u_max, dtype=np.float64))
    if game.n > MAX_EXACT_PLAYERS:
        raise ValueError(
            f"exact Shapley computation needs n<={MAX_EXACT_PLAYERS} or closed forms; got n={game.n}"
        )
    n = game.n
    table = value_table(game)
    pops = _popcounts(n)
    masks = np.arange(1 << n, dtype=np.int64)
    # inv_binom[s] = 1 / C(n-1, s)
    inv_binom = np.array([1.0 / math.comb(n - 1, s) for s in range(n)], dtype=np.float64)
    phi = np.empty(n, dtype=np.float64)
    u_max = np.empty(n, dtype=np.float64)
    for i in range(n):
        without = masks[(masks >> i) & 1 == 0]
        mu = table[without | (1 << i)] - table[without]
        phi[i] = float(mu @ inv_binom[pops[without]]) / n
        u_max[i] = float(np.max(mu))
    return _report_from(phi, u_max)


def is_supermodular(game: Game, *, tol: float = 1e-12) -> bool:
    """Exhaustive supermodularity check (``n <= 12``).

    Uses the pairwise local criterion: for all distinct ``i, j`` and every
    ``S`` avoiding both, ``v(S+i+j) + v(S) >= v(S+i) + v(S+j)``.  Equivalent
    to the subset-pair definition and implies that marginal contributions
    grow with the coalition.
    """
    if game.n > MAX_CHECK_PLAYERS:
        raise ValueError(f"supermodularity check needs n<={MAX_CHECK_PLAYERS}; got n={game.n}")
    table = value_table(game)
    masks = np.arange(1 << game.n, dtype=np.int64)
    scale = max(1.0, float(np.max(np.abs(table))))
    for i in range(game.n):
        for j in range(i + 1, game.n):
            free = masks[((masks >> i) & 1 == 0) & ((masks >> j) & 1 == 0)]
            lhs = table[free | (1 << i) | (1 << j)] + table[free]
            rhs = table[free | (1 << i)] + table[free | (1 << j)]
            if np.any(lhs < rhs - tol * scale):
                return False
    return True


def rank_expectation(game: Game, i: int, rank: int) -> float:
    """Expected marginal contribution of ``i`` at permutation rank ``rank``.

    Rank 1 is the least preferable position (empty predecessor set); rank
    ``n`` the most preferable.  Averages over all predecessor sets of size
    ``rank - 1``.  For supermodular games this is non-decreasing in the rank.
    """
    if game.n > MAX_CHECK_PLAYERS:
        raise ValueError(f"rank expectation needs n<={MAX_CHECK_PLAYERS}; got n={game.n}")
    if not 1 <= rank <= game.n:
        raise ValueError(f"rank must be in 1..{game.n}; got {rank}")
    others = [p for p in range(game.n) if p != i]
    size = rank - 1
    total = 0.0
    count = 0
    for combo in itertools.combinations(others, size):
        total += marginal_contribution(game, i, as_mask(combo))
        count += 1
    return total / count


def shapley_via_permutations(game: Game) -> np.ndarray:
    """Shapley vector by full enumeration of all ``n!`` join orders.

    Independent of the subset-form computation; quadratic in ``n`` per
    permutation, so keep ``n <= 8``.
    """
    n = game.n
    if n > 8:
        raise ValueError("permutation enumeration is capped at n<=8")
    table = value_table(game)
    acc = np.zeros(n, dtype=np.float64)
    for perm in itertools.permutations(range(n)):
        mask = 0
        prev = table[0]
        for p in perm:
            mask |= 1 << p
            cur = table[mask]
            acc[p] += cur - prev
            prev = cur
    return acc / math.factorial(n)
