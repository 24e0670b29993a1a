"""Rushing-adversary strategies with violation-budget accounting.

All strategies drive susceptible players through the callback API defined in
:mod:`shapsim.protocols`.  Commit-phase callbacks are blind to the honest
player's current value; open-phase callbacks see it first (rushing) and then
choose aborts, gated by a :class:`Budget`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .protocols import PhaseView, ProtocolInfeasible


@dataclass
class Budget:
    """Violation allowance: a fixed cap or a per-prefix rate.

    ``known(C)`` caps the run at ``C`` violations; whether the *stopping
    rule* is told about ``C`` is a runner concern.  ``rate(f)`` allows at
    most ``f * T`` violations within any prefix of ``T`` P-samples.
    """

    kind: str  # "known" | "rate"
    limit: float
    used: int = 0
    samples_seen: int = 0

    @classmethod
    def known(cls, c: int) -> "Budget":
        return cls(kind="known", limit=float(c))

    @classmethod
    def rate(cls, f: float) -> "Budget":
        if not 0.0 <= f <= 1.0:
            raise ValueError("violation rate must be in [0, 1]")
        return cls(kind="rate", limit=f)

    @classmethod
    def unlimited(cls) -> "Budget":
        return cls(kind="known", limit=math.inf)

    def reset(self) -> None:
        self.used = 0
        self.samples_seen = 0

    def allows(self) -> bool:
        cap = self.limit * self.samples_seen if self.kind == "rate" else self.limit
        return self.used + 1 <= cap


class _UniformBuffer:
    """Chunked uniform floats from one generator, for cheap tiny draws."""

    __slots__ = ("rng", "buf", "pos")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.buf = rng.random(4096)
        self.pos = 0

    def take(self, k: int) -> np.ndarray:
        if self.pos + k > len(self.buf):
            self.buf = self.rng.random(max(4096, k))
            self.pos = 0
        out = self.buf[self.pos:self.pos + k]
        self.pos += k
        return out


class Adversary:
    """Base strategy: commit uniform values and always open faithfully.

    Subclasses override the open hooks to abort selectively.  A commit hook
    returns one integer ``ndarray`` aligned with ``susceptible``: shape
    ``(s,)`` of draws in ``[0, k)``, or ``(s, m)`` of permutation rows.  An
    open hook receives a read-only mapping from each kept susceptible player
    to its committed value (Python ints for draws, tuples for permutation
    rows) and returns what :meth:`_abort` makes of it, the one place where a
    strategy aborts: the mapping itself, or a dict copy with the victim
    mapped to ``None``.  The binding rule in :mod:`shapsim.protocols` judges
    every return.
    One adversary instance is exclusively owned by one run at a time;
    :meth:`reset` rebinds it to a new run.
    """

    def __init__(self, budget: Budget | None = None):
        self.budget = budget if budget is not None else Budget.unlimited()
        self.rng: np.random.Generator | None = None
        self.honest: int | None = None
        self.n: int | None = None
        self.game = None
        self.planned_samples: int | None = None
        self._floats: _UniformBuffer | None = None

    def reset(self, *, n: int, honest: int, rng: np.random.Generator,
              game=None, planned_samples: int | None = None) -> None:
        self.n = n
        self.honest = honest
        self.rng = rng
        self.game = game
        self.planned_samples = planned_samples
        self._floats = _UniformBuffer(rng)
        self.budget.reset()

    def begin_sample(self, index: int) -> None:
        """Called by the runner before P-sample ``index`` (0-based)."""
        self.budget.samples_seen = index + 1

    def _abort(self, commitments: Mapping, victim: int | None) -> Mapping:
        """The record itself when ``victim`` is ``None`` or the budget refuses;
        else spend one unit and return a copy that maps ``victim`` to ``None``."""
        if victim is None or not self.budget.allows():
            return commitments
        self.budget.used += 1
        opened = commitments.copy()
        opened[victim] = None
        return opened

    @staticmethod
    def _drawn(view: PhaseView, commitments: Mapping, k: int) -> int:
        """The player that the opened draws of an elimination round pick."""
        total = int(view.honest_revealed) + sum(commitments.values())
        return view.active_set[total % k]

    # Full-permutation protocol hooks.
    def commit_permutations(self, view: PhaseView, susceptible, m: int) -> np.ndarray:
        s = len(susceptible)
        return np.argsort(self._floats.take(s * m).reshape(s, m), axis=1)

    def open_permutations(self, view: PhaseView, susceptible, commitments: Mapping,
                          m: int) -> Mapping:
        return commitments  # faithful open

    # Elimination protocol hooks.
    def commit_draws(self, view: PhaseView, susceptible, k: int) -> np.ndarray:
        # the floats are read in place unless the buffer must refill; a float factor
        # skips numpy's scalar conversion, and is exact for k < 2**53
        floats, s = self._floats, len(susceptible)
        if floats.pos + s > len(floats.buf):
            return (floats.take(s) * float(k)).astype(np.int64)
        floats.pos += s
        return (floats.buf[floats.pos - s:floats.pos] * float(k)).astype(np.int64)

    def open_draws(self, view: PhaseView, susceptible, commitments: Mapping, k: int) -> Mapping:
        return commitments  # faithful open


class PassiveAdversary(Adversary):
    """Never violates; susceptible players just play uniformly."""


class CyclicShiftAdversary(Adversary):
    """Forces the honest player to rank 1 in the full-permutation protocol.

    Susceptible players commit consecutive powers of a one-step cyclic shift.
    After the honest opening, omitting the right single player's permutation
    shifts the honest player into the least preferable slot, so each sample
    costs at most one violation.  Requires the honest player to be the last
    id in the composition order (the strategy pre-positions its shifts on
    one side of the honest permutation); anything else is reported
    infeasible, as is any configuration with more than one honest player.
    """

    def reset(self, **kwargs) -> None:
        super().reset(**kwargs)
        if self.honest != self.n - 1:
            raise ProtocolInfeasible(
                "cyclic-shift strategy needs the honest player to compose last "
                f"(honest id {self.honest}, n={self.n})"
            )

    _POWER_CACHE: dict[int, np.ndarray] = {}

    def commit_permutations(self, view, susceptible, m: int) -> np.ndarray:
        powers = self._POWER_CACHE.get(m)
        if powers is None:
            # powers[e] = tau^(e+1) for the one-step cyclic shift tau
            powers = np.stack([(np.arange(m) + e) % m for e in range(1, m + 1)])
            powers.flags.writeable = False  # shared by every instance
            self._POWER_CACHE[m] = powers
        return powers[:len(susceptible)]  # susceptible is ascending

    def open_permutations(self, view, susceptible, commitments: Mapping, m: int) -> Mapping:
        slot_h = view.active_set.index(self.honest)
        # Composition applies the honest opening f_h outermost, over a net
        # cyclic shift B' from the remaining committed powers.  The honest
        # rank is f_h[(slot_h + B') % m]; dropping the player holding
        # exponent e turns B into B - e, so the exponent that lands the
        # honest player on the rank-1 slot is directly computable.
        x_star = view.honest_revealed.index(0)
        total_shift = (m * (m - 1) // 2) % m
        drop = (total_shift - (x_star - slot_h)) % m
        # drop == 0 is the zero-shift case: already least preferable
        return self._abort(commitments, susceptible[drop - 1] if drop else None)


class EagerAbortAdversary(Adversary):
    """Spends budget on every elimination round it can.

    Whenever the honest player is in the pool but not about to be
    eliminated, aborts the smallest-id susceptible player other than the
    drawn one.  A deliberately naive spender used as a baseline.
    """

    def open_draws(self, view, susceptible, commitments: Mapping, k: int) -> Mapping:
        if view.honest_revealed is None:
            return commitments
        drawn = self._drawn(view, commitments, k)
        if drawn == self.honest:
            return commitments
        return self._abort(commitments, min((p for p in susceptible if p != drawn), default=None))


class BlockAttackAdversary(Adversary):
    """Blockwise attack on sequential elimination for the core-half game.

    The run is split into blocks of ``block_len`` P-samples.  Within each
    block, the first time the active pool shrinks to exactly
    ``{honest, q, y}`` with ``q`` in the core group and ``y`` an outsider
    and the opened draws are about to eliminate ``y``, the adversary
    instructs ``q`` to abort, at most once per block.  With
    ``greedy=True`` the block discipline is dropped and every such
    opportunity is seized while budget remains (no guarantee is claimed for
    that variant).
    """

    def __init__(self, budget: Budget, block_len: int, *, greedy: bool = False):
        super().__init__(budget)
        if block_len < 1:
            raise ValueError("block length must be >= 1")
        self.block_len = block_len
        self.greedy = greedy
        self._last_violated_block = -1
        self._sample = 0
        self.opportunities_seen = 0

    def reset(self, **kwargs) -> None:
        super().reset(**kwargs)
        if self.game is None or "Q" not in self.game.extras:
            raise ProtocolInfeasible("block attack needs a game exposing its core group")
        self._core = frozenset(self.game.extras["Q"])
        self._last_violated_block = -1
        self._sample = 0
        self.opportunities_seen = 0

    def begin_sample(self, index: int) -> None:
        super().begin_sample(index)
        self._sample = index

    def open_draws(self, view, susceptible, commitments: Mapping, k: int) -> Mapping:
        pool = view.active_set
        if len(pool) != 3 or view.honest_revealed is None:
            return commitments
        core_members = [p for p in pool if p in self._core]
        outsiders = [p for p in pool if p != self.honest and p not in self._core]
        if len(core_members) != 1 or len(outsiders) != 1:
            return commitments
        if self._drawn(view, commitments, k) != outsiders[0]:
            return commitments
        self.opportunities_seen += 1
        block = self._sample // self.block_len
        if not self.greedy and block == self._last_violated_block:
            return commitments
        opened = self._abort(commitments, core_members[0])
        if opened is not commitments:
            self._last_violated_block = block
        return opened
