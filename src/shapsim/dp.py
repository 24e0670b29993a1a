"""Optimal adversary against sequential elimination, by dynamic programming.

``value[T][S][c]`` is the honest player's expected total revenue under the
adversary's best play when the current P-sample has active pool ``S`` (which
always contains the honest player), ``T`` further P-samples follow the
current one, and ``c`` violation units remain.  One elimination round in
pool ``S`` transitions as:

* with probability ``1/|S|`` the honest player is drawn, banks the marginal
  contribution of joining the already-eliminated players, and the run
  proceeds to the next sample with a full pool: ``mu* + value[T-1][N][c]``;
* with probability ``1/|S|`` each, another player ``i`` is drawn; the
  adversary either accepts (``value[T][S-i][c]``) or spends one unit to have
  some other susceptible ``j`` abort in ``i``'s place
  (``min_j value[T][S-j][c-1]``), taking the cheaper branch.

An aborted player leaves only the current sample's pool and returns in the
next sample, so the recursion always re-enters through ``value[T-1][N][c]``;
perpetual removal is a runner-level policy layered on top.

States are compressed by the game's declared symmetry classes (the honest
player is split into its own class), with singleton classes as the
uncompressed bit-set fallback for ``n <= 20``.  The full-pool boundary
column ``value[T][N][c]`` is always stored per ``T``.  An inner slice is
kept too when the builder asks for it (``store_slices``); otherwise it is
rebuilt on demand from the previous boundary row, which keeps long runs at
``R * (C + 1)`` stored reals regardless of ``n``.  The CLI keeps the slices
whenever all ``R`` of them fit in ``SLICE_STORE_BYTES``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .adversaries import Adversary, Budget
from .games import Game, shapley_exact
from .streams import substream

DEFAULT_STATE_CAP = 2_000_000
SLICE_STORE_BYTES = 64 << 20  # the CLI keeps a table's inner slices when all fit in this
LOCKSTEP_CHUNK = 64  # P-sample indices whose floats parallel_runs draws per call


class StateCapExceeded(ValueError):
    """The compressed state space would not fit in the configured cap."""


def _pool_classes(game: Game, honest: int) -> tuple[tuple[int, ...], ...]:
    """Non-empty symmetry classes without the honest player, ordered by first member.

    Games without declared classes use singletons (the bit-set fallback).
    """
    if game.symmetry_classes is not None:
        raw = game.symmetry_classes
    elif game.n <= 20:
        raw = [(p,) for p in range(game.n)]
    else:
        raise ValueError("optimal-adversary tables need declared symmetry classes or n <= 20")
    classes = [tuple(p for p in sorted(c) if p != honest) for c in raw]
    return tuple(sorted((c for c in classes if c), key=lambda ms: ms[0]))


def state_count(game: Game, honest: int) -> int:
    """Size of the compressed pool-state space, without building it."""
    return math.prod(len(c) + 1 for c in _pool_classes(game, honest))


class SizeGroup(NamedTuple):
    """Gather plan of the ``g`` pool states with ``m`` players, work rows ``lo:hi``.

    Indexed by class ``d``, then state: ``nbr`` (shape ``(D, g)``) is the
    work row of the pool with one class-``d`` member removed, or the
    all-``inf`` sentinel row when that class is empty; ``k`` is the class's
    remaining count and ``empty`` / ``shared`` are the masks ``k == 0`` /
    ``k >= 2``, these three shaped ``(D, g, 1)`` to broadcast over budgets.
    """

    m: int
    lo: int
    hi: int
    nbr: np.ndarray
    k: np.ndarray
    empty: np.ndarray
    shared: np.ndarray


@dataclass(eq=False)
class StateSpace:
    """Mixed-radix index over per-class remaining counts (honest excluded).

    Slices are filled in a work array whose rows hold the states sorted by
    pool size (``work_row[sid]``), followed by one sentinel row; ``plan``
    holds each size group's precomputed gathers into it.
    """

    game: Game
    honest: int
    classes: tuple[tuple[int, ...], ...]
    totals: np.ndarray
    strides: np.ndarray
    n_states: int
    class_of: np.ndarray
    mu_star: np.ndarray
    by_size: list[np.ndarray]
    work_row: np.ndarray
    mu_work: np.ndarray
    plan: tuple[SizeGroup, ...]

    @classmethod
    def build(cls, game: Game, honest: int, *, state_cap: int = DEFAULT_STATE_CAP) -> "StateSpace":
        classes = _pool_classes(game, honest)
        totals = np.array([len(c) for c in classes], dtype=np.int64)
        n_states = int(np.prod(totals + 1))
        if n_states > state_cap:
            raise StateCapExceeded(
                f"{n_states} states needed, cap is {state_cap}; "
                "declare symmetry classes or raise the cap"
            )
        strides = np.ones(len(classes), dtype=np.int64)
        for d in range(len(classes) - 2, -1, -1):
            strides[d] = strides[d + 1] * (totals[d + 1] + 1)
        class_of = np.full(game.n, -1, dtype=np.int64)
        for d, members in enumerate(classes):
            for p in members:
                class_of[p] = d

        # Marginal contribution of the honest player joining the complement
        # of each pool state; exchangeability lets one canonical member set
        # stand for every pool with the same class counts.  absent[d][k] is
        # the mask of the class-d members missing when k of them remain; the
        # masks are disjoint, so their sum is the complement, and the product
        # walks the states in index order (last class fastest).
        absent = []
        for members in classes:
            prefix = [0]
            for p in members:
                prefix.append(prefix[-1] | 1 << p)
            absent.append(prefix[::-1])
        v = game.utility
        hbit = 1 << honest
        mu_star = np.fromiter((v(comp | hbit) - v(comp)
                               for comp in map(sum, itertools.product(*absent))),
                              dtype=np.float64, count=n_states)

        sids = np.arange(n_states, dtype=np.int64)
        sizes = np.ones(n_states, dtype=np.int64)
        for stride, total in zip(strides, totals):
            sizes += sids // stride % (total + 1)
        order = np.argsort(sizes, kind="stable")  # work row -> state
        starts = np.searchsorted(sizes[order], np.arange(1, game.n + 2)).tolist()
        by_size = [order[starts[i]:starts[i + 1]] for i in range(game.n)]
        work_row = np.empty(n_states, dtype=np.min_scalar_type(n_states))
        work_row[order] = np.arange(n_states)

        count_type = np.min_scalar_type(int(totals.max(initial=0)))
        col_strides, col_radix = strides[:, None], totals[:, None] + 1
        plan = []
        for m in range(2, game.n + 1):
            group = by_size[m - 1]
            if len(group) == 0:
                continue
            k = (group // col_strides % col_radix).astype(count_type)
            nbr = np.where(k >= 1, work_row[np.maximum(group - col_strides, 0)],
                           n_states).astype(work_row.dtype)
            k = k[:, :, None]
            plan.append(SizeGroup(m, starts[m - 1], starts[m], nbr, k, k == 0, k >= 2))
        return cls(game=game, honest=honest, classes=classes, totals=totals,
                   strides=strides, n_states=n_states, class_of=class_of,
                   mu_star=mu_star, by_size=by_size, work_row=work_row,
                   mu_work=mu_star[order], plan=tuple(plan))

    @property
    def full_state(self) -> int:
        return int(self.totals @ self.strides)

    def state_of(self, pool: Sequence[int]) -> int:
        sid = 0
        for p in pool:
            if p != self.honest:
                sid += int(self.strides[self.class_of[p]])
        return sid


def _build_slice(space: StateSpace, prev_row: np.ndarray, C: int) -> np.ndarray:
    """All pool states at one ``T``, from the previous full-pool boundary row.

    States of equal pool size are independent given smaller sizes, so each
    size group is filled with batched gathers from the group's plan.  Every
    value equals the per-state reference builder's in the test oracles bit
    for bit: each abort value is a minimum over the same classes, and each
    state's sum adds the same terms in the same order.  Work column 0 is
    ``inf``, so the columns ``:-1`` of a gathered neighbour are its values
    one budget unit lower, and an abort with no budget left never wins.
    """
    inf = math.inf
    work = np.empty((space.n_states + 1, C + 2), dtype=np.float64)
    work[:, 0] = inf
    work[-1] = inf
    # honest-drawn branch: the whole value of the honest-only state, and the
    # start of every other state's sum
    np.add(space.mu_work[:, None], prev_row, out=work[:-1, 1:])
    for m, lo, hi, nbr, k, empty, shared in space.plan:
        near = work.take(nbr, axis=0)  # (D, g, C + 2): the pool without one class-d member
        lower = near[:, :, :-1]
        D = len(lower)
        # abort in place of a class-d draw: the best of the other classes,
        # or of all classes when class d has a member besides the drawn one
        abort = np.full(lower.shape, inf)
        for d in range(1, D):  # best of the classes before d
            np.minimum(abort[d - 1], lower[d - 1], out=abort[d])
        for d in range(D - 2, -1, -1):  # and of the classes after d
            rest = lower[D - 1] if d == D - 2 else np.minimum(rest, lower[d + 1])
            np.minimum(abort[d], rest, out=abort[d])
        np.minimum(abort, lower, out=abort, where=shared)
        # the cheaper of accepting and aborting, weighted by the class's count
        contrib = np.minimum(near[:, :, 1:], abort, out=abort)
        np.copyto(contrib, 0.0, where=empty)
        contrib *= k
        acc = work[lo:hi, 1:]
        for term in contrib:
            acc = acc + term
        np.divide(acc, m, out=work[lo:hi, 1:])
    return work[space.work_row, 1:]


@dataclass(eq=False)
class DPTable:
    """Boundary rows ``value[T][N][c]`` plus stored or on-demand inner slices.

    ``boundary[T, c]`` covers ``T = 0 .. R-1`` (``rows[T]`` is the same row
    without building the array).  Without stored slices, memory is
    ``R * (C + 1)`` reals no matter how large the game, and ``slice_at(T)``
    rebuilds the full inner slice for that sample index; with
    ``store_slices`` set, ``slices`` holds all ``R`` of them and
    ``slice_at`` returns the stored one.
    """

    space: StateSpace
    C: int
    rows: list = field(default_factory=list)
    slices: list | None = None
    _phi_star: float | None = None
    _umax_star: float | None = None

    @property
    def R(self) -> int:
        return len(self.rows)

    @property
    def boundary(self) -> np.ndarray:
        return np.asarray(self.rows, dtype=np.float64).reshape(self.R, self.C + 1)

    def _check_row(self, T: int, row: np.ndarray) -> None:
        if self._phi_star is None:
            return
        phi, umax = self._phi_star, self._umax_star
        expect = (T + 1) * phi
        if abs(row[0] - expect) > 1e-6 * max(1.0, abs(expect)):
            raise AssertionError(f"zero-budget boundary at T={T}: {row[0]} != {expect}")
        if np.any(np.diff(row) > 1e-9 * max(1.0, abs(expect))):
            raise AssertionError(f"boundary at T={T} not non-increasing in budget")
        floor_vals = expect - np.arange(self.C + 1) * umax
        if np.any(row < floor_vals - 1e-6 * max(1.0, abs(expect))):
            raise AssertionError(f"boundary at T={T} below the budget-damage floor")

    def extend_to(self, R: int) -> "DPTable":
        while self.R < R:
            T = self.R
            prev = self.rows[-1] if self.rows else np.zeros(self.C + 1)
            sl = _build_slice(self.space, prev, self.C)
            row = sl[self.space.full_state].copy()
            self._check_row(T, row)
            self.rows.append(row)
            if self.slices is not None:
                self.slices.append(sl)
        return self

    def slice_at(self, T: int) -> np.ndarray:
        if not 0 <= T < self.R:
            raise ValueError(f"sample index {T} outside built range 0..{self.R - 1}")
        if self.slices is not None:
            return self.slices[T]
        prev = self.rows[T - 1] if T > 0 else np.zeros(self.C + 1)
        return _build_slice(self.space, prev, self.C)

    def worst_value(self, R: int | None = None, c: int | None = None) -> float:
        """Full-run value ``value[R-1][N][c]`` (defaults: all built samples, full budget)."""
        R = self.R if R is None else R
        c = self.C if c is None else c
        return float(self.rows[R - 1][c])


def dp_build(game: Game, honest: int, R: int, C: int, *,
             store_slices: bool = False, state_cap: int = DEFAULT_STATE_CAP) -> DPTable:
    """Build boundary rows for ``R`` P-samples and budgets ``0..C``."""
    if C < 0 or R < 1:
        raise ValueError("need R >= 1 and C >= 0")
    space = StateSpace.build(game, honest, state_cap=state_cap)
    table = DPTable(space=space, C=C, slices=[] if store_slices else None)
    try:
        report = shapley_exact(game)
        table._phi_star = float(report.phi[honest])
        table._umax_star = float(report.u_max[honest])
    except ValueError:  # no exact values: rows go unchecked
        table._phi_star = None
    return table.extend_to(R)


class DPAdversary(Adversary):
    """Plays the table's optimal abort policy in sequential elimination.

    At each opened elimination round with a non-honest player drawn, aborts
    a member of the class whose loss minimizes the honest player's
    continuation value, provided that strictly beats accepting.  This is
    :func:`parallel_runs`'s rule: ties break toward the lowest class index,
    and the aborter is that class's smallest-id pool member other than the
    drawn player.  Behaves passively once the budget is exhausted or beyond
    the planning horizon.  Not defined for the full-permutation protocol.
    """

    def __init__(self, table: DPTable, budget: Budget):
        super().__init__(budget)
        self.table = table
        self.horizon = table.R
        self._slice: np.ndarray | None = None

    def reset(self, **kwargs) -> None:
        super().reset(**kwargs)
        # plan against the run's announced length when one exists
        if self.planned_samples is not None:
            if self.planned_samples > self.table.R:
                raise ValueError("planned run length exceeds the built table")
            self.horizon = self.planned_samples
        else:
            self.horizon = self.table.R

    def begin_sample(self, index: int, active) -> None:
        super().begin_sample(index, active)
        T = self.horizon - 1 - index
        self._slice = self.table.slice_at(T) if T >= 0 else None

    def commit_permutations(self, view, susceptible, m):
        raise ValueError("the optimal table adversary only plays sequential elimination")

    def open_draws(self, view, susceptible, commitments: dict, k: int) -> dict:
        opened = dict(commitments)
        if self._slice is None or view.honest_revealed is None or not self.budget.allows():
            return opened
        pool = view.active_set
        total = int(view.honest_revealed) + sum(int(v) for v in commitments.values())
        drawn = pool[total % k]
        if drawn == self.honest:
            return opened
        space = self.table.space
        sid = space.state_of(pool)
        c = int(self.budget.limit - self.budget.used) if math.isfinite(self.budget.limit) else self.table.C
        c = min(c, self.table.C)
        if c < 1:
            return opened
        sl = self._slice
        d_drawn = int(space.class_of[drawn])
        v_accept = sl[sid - space.strides[d_drawn], c]
        best_val, best_d = math.inf, -1
        for d, (stride, total) in enumerate(zip(space.strides.tolist(), space.totals.tolist())):
            if sid // stride % (total + 1) - (d == d_drawn) >= 1:  # a member besides the drawn one
                val = sl[sid - stride, c - 1]
                if val < best_val:
                    best_val, best_d = val, d
        if best_val < v_accept:
            self.budget.spend()
            opened[next(j for j in pool if space.class_of[j] == best_d and j != drawn)] = None
        return opened


@dataclass
class ParallelRunStats:
    """Per-run honest allocations from the lockstep simulation engine."""

    x_honest: np.ndarray
    violations: np.ndarray
    R: int
    transcript: list | None = None

    @property
    def mean(self) -> float:
        return float(np.mean(self.x_honest))

    @property
    def stderr(self) -> float:
        if len(self.x_honest) < 2:
            return 0.0
        return float(np.std(self.x_honest, ddof=1) / math.sqrt(len(self.x_honest)))


def parallel_runs(game: Game, honest: int, R: int, C: int, M: int, seed: int, *,
                  table: DPTable | None = None, adversary: str = "dp",
                  record_transcript: bool = False) -> ParallelRunStats:
    """Advance ``M`` fixed-length runs together, one P-sample index at a time.

    The optimal-adversary table values for sample index ``t`` (``T = R-1-t``)
    are taken once and shared by every run before any run moves to
    ``t + 1``: a table with stored slices is only read, and a boundary-only
    table rebuilds each slice exactly once.  Pools
    stay in lockstep because each elimination round removes exactly one
    player whether or not an abort replaces the drawn one.

    Randomness contract: run ``m`` reads the float stream
    ``substream(seed, "run", m).random()`` positionally, using index
    ``t * n + r`` for P-sample ``t`` and round ``r``; the round's eliminated
    member is ``floor(u * pool_size)`` over the pool ordered honest-first
    then by class.  A single uniform stands in for the opened commitment
    sum, which has the same law.  Positional indexing keeps runs aligned no
    matter when the honest player leaves a sample; rounds after that cannot
    change the honest allocation, so they are skipped.

    ``adversary`` is ``"dp"`` (needs ``table``) or ``"passive"``.
    """
    n = game.n
    if table is not None and C > table.C:
        raise ValueError("run budget exceeds the built table's budget axis")
    if adversary == "dp":
        if table is None:
            raise ValueError("dp mode needs a built table")
        space = table.space
    else:
        if adversary != "passive":
            raise ValueError(f"unknown adversary mode {adversary!r}")
        space = (table.space if table is not None
                 else StateSpace.build(game, honest))
    D = len(space.classes)
    totals = space.totals
    strides = space.strides
    mu_star = space.mu_star

    gens = [substream(seed, "run", m) for m in range(M)]
    x_acc = np.zeros(M)
    violations = np.zeros(M, dtype=np.int64)
    c_rem = np.full(M, C, dtype=np.int64)
    transcript: list | None = [] if record_transcript else None

    t = 0
    while t < R:
        t_hi = min(R, t + LOCKSTEP_CHUNK)
        block = np.empty((M, (t_hi - t) * n))
        for m in range(M):
            block[m] = gens[m].random((t_hi - t) * n)
        for tt in range(t, t_hi):
            sl = table.slice_at(R - 1 - tt) if adversary == "dp" else None
            counts = np.tile(totals, (M, 1))
            sid = np.full(M, space.full_state, dtype=np.int64)
            alive = np.ones(M, dtype=bool)
            base = (tt - t) * n
            for r in range(n):
                if not alive.any():
                    break
                m_pool = n - r
                u = (block[:, base + r] * m_pool).astype(np.int64)
                hdrawn = alive & (u == 0)
                if hdrawn.any():
                    x_acc[hdrawn] += mu_star[sid[hdrawn]]
                    alive = alive & ~hdrawn
                    if not alive.any():
                        if record_transcript:
                            transcript.append((tt, r, u.copy(), np.full(M, -1, dtype=np.int64)))
                        break
                idx = u - 1
                cum = np.cumsum(counts, axis=1)
                d_drawn = (idx[:, None] >= cum).sum(axis=1)
                d_drawn = np.where(alive, d_drawn, 0)
                abort_cls = np.full(M, -1, dtype=np.int64)
                if adversary == "dp":
                    can = alive & (c_rem >= 1)
                    if can.any():
                        v_accept = sl[sid - strides[d_drawn], np.minimum(c_rem, table.C)]
                        v_best = np.full(M, math.inf)
                        d_best = np.full(M, -1, dtype=np.int64)
                        cm1 = np.maximum(np.minimum(c_rem, table.C) - 1, 0)
                        for d in range(D):
                            avail = counts[:, d] - (d_drawn == d) >= 1
                            safe = np.where(counts[:, d] >= 1, sid - strides[d], 0)
                            vals = np.where(avail & can, sl[safe, cm1], math.inf)
                            better = vals < v_best
                            v_best = np.where(better, vals, v_best)
                            d_best = np.where(better, d, d_best)
                        do_abort = can & (d_best >= 0) & (v_best < v_accept)
                        if do_abort.any():
                            abort_cls = np.where(do_abort, d_best, abort_cls)
                            rows = np.flatnonzero(do_abort)
                            counts[rows, d_best[rows]] -= 1
                            sid[rows] -= strides[d_best[rows]]
                            c_rem[rows] -= 1
                            violations[rows] += 1
                accept = alive & (abort_cls < 0)
                rows = np.flatnonzero(accept)
                counts[rows, d_drawn[rows]] -= 1
                sid[rows] -= strides[d_drawn[rows]]
                if record_transcript:
                    transcript.append((tt, r, u.copy(), abort_cls))
        t = t_hi
    return ParallelRunStats(x_honest=x_acc / R, violations=violations, R=R,
                            transcript=transcript)


def dp_two_pass(game: Game, honest: int, R: int, C: int, M: int, seed: int, *,
                record_transcript: bool = False,
                state_cap: int = DEFAULT_STATE_CAP) -> tuple[ParallelRunStats, DPTable]:
    """Boundary pass plus a replay pass driving ``M`` simulations together.

    Pass 1 stores only the full-pool boundary (``R * (C + 1)`` reals),
    whether or not the slices would fit in memory; pass 2 walks sample
    indices forward, rebuilding each inner slice exactly once and advancing
    every simulation through that index before moving on.
    """
    table = dp_build(game, honest, R, C, store_slices=False, state_cap=state_cap)
    stats = parallel_runs(game, honest, R, C, M, seed, table=table,
                          adversary="dp", record_transcript=record_transcript)
    return stats, table
