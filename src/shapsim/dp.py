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
uncompressed bit-set fallback for ``n <= 20``.  A table stores the
full-pool boundary column ``value[T][N][c]`` per ``T``; a table built for
an adversary (``decisions=True``) also stores each ``T``'s optimal policy,
a sparse record of the cells that abort and of the class each aborts.
Both simulation engines play those records through one rule,
:meth:`DPTable.abort_rule`, a sorted lookup that merges the records of a
range of sample indices, and compare no values.

A row is built one size group of states at a time by the kernel that
:func:`shapsim.dp_kernels.row_kernel` picks for the game, which also emits
the record: each aborting cell with its class, found from the values it
gathered for the row.

The kernels abort to the best neighbour: they compare accepting with
``best[c] = min_j value[T][S-j][c-1]`` over every class ``j`` that ``S``
holds, the drawn class included, which is exact because every value is
non-increasing in ``c``, bit for bit.  Row ``T = 0`` starts from zeros, and
each later value is built from the previous boundary row by ``min``,
additions, multiplications by counts ``k >= 0`` and a division by
``|S| > 0``, each monotone under IEEE rounding; so, pool size by pool size,
a slice falls in ``c`` when the row it starts from does.  Then
``accept_d[c] = value[T][S-d][c] <= value[T][S-d][c-1]``, so where the
drawn class alone attains ``best`` (and is no abort candidate, having no
other member) it cannot beat accepting.  Hence, in every cell,
``min(accept_d, abort_d) == min(accept_d, best)``, the cell is a hit
exactly when ``best < accept_d``, and a hit's abort class is the lowest
class attaining ``best``, whichever class ``d`` was drawn.  The row
function refuses a previous row that rises in budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .adversaries import Adversary, Budget
from .games import Game, mask_dtype, shapley_exact
from .dp_kernels import row_kernel
from .streams import substream

DEFAULT_STATE_CAP = 2_000_000
LOCKSTEP_CHUNK = 64  # P-sample indices that parallel_runs draws and plays as one batch of rows


class StateCapExceeded(ValueError):
    """The compressed state space would exceed ``DEFAULT_STATE_CAP`` states."""


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


@dataclass(eq=False)
class StateSpace:
    """Mixed-radix index over per-class remaining counts (honest excluded).

    A row's values are kept in work order: the states sorted by pool size,
    state ``order[w]`` at work row ``w`` (``work_row`` is the inverse), so
    the honest-alone state comes first, the full pool last, and each size
    group is a contiguous run of work rows: the pools of ``m`` players
    fill work rows ``starts[m - 1]:starts[m]``.  ``player_strides[p]`` is
    what player ``p`` adds to a pool's state index (0 for the honest player).
    """

    game: Game
    honest: int
    classes: tuple[tuple[int, ...], ...]
    totals: np.ndarray
    strides: np.ndarray
    n_states: int
    class_of: np.ndarray
    player_strides: list
    mu_star: np.ndarray
    work_row: np.ndarray
    mu_work: np.ndarray
    order: np.ndarray
    starts: list

    @classmethod
    def build(cls, game: Game, honest: int) -> "StateSpace":
        classes = _pool_classes(game, honest)
        totals = np.array([len(c) for c in classes], dtype=np.int64)
        n_states = int(np.prod(totals + 1))
        if n_states > DEFAULT_STATE_CAP:
            raise StateCapExceeded(
                f"{n_states} states needed, cap is {DEFAULT_STATE_CAP}; "
                "declare symmetry classes"
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
        # stand for every pool with the same class counts.  absent[k] is the
        # mask of the class's members missing when k of them remain; the
        # masks are disjoint, so their sums are the complements, and the
        # outer sum lays them out in index order (last class fastest), as it
        # does the pool sizes.
        comp = np.zeros(1, dtype=mask_dtype(game.n))
        sizes = np.ones(1, dtype=np.min_scalar_type(game.n))
        for members in classes:
            absent = [0]
            for p in members:
                absent.append(absent[-1] | 1 << p)
            comp = np.add.outer(comp, np.array(absent[::-1], dtype=comp.dtype)).ravel()
            sizes = np.add.outer(sizes, np.arange(len(members) + 1, dtype=sizes.dtype)).ravel()
        mu_star = game.values(comp | 1 << honest)
        mu_star -= game.values(comp)  # in place: one array fewer at the build's peak

        order = np.argsort(sizes, kind="stable")  # work row -> state
        starts = np.searchsorted(sizes[order], np.arange(1, game.n + 2)).tolist()
        work_row = np.empty(n_states, dtype=np.min_scalar_type(n_states))
        work_row[order] = np.arange(n_states)

        player_strides = [0 if d < 0 else int(strides[d]) for d in class_of.tolist()]
        return cls(game=game, honest=honest, classes=classes, totals=totals,
                   strides=strides, n_states=n_states, class_of=class_of,
                   player_strides=player_strides, mu_star=mu_star, work_row=work_row,
                   mu_work=mu_star[order], order=order, starts=starts)

    def state_of(self, pool: Sequence[int]) -> int:
        return sum(map(self.player_strides.__getitem__, pool))  # the honest player's is 0

    def state_ids(self, counts: np.ndarray) -> np.ndarray:
        """The state index, in ``int64``, of each column of per-class counts."""
        sid = np.zeros(counts.shape[1], dtype=np.int64)
        for stride, cnt in zip(self.strides, counts):  # an int64 stride widens the counts
            sid += stride * cnt
        return sid


@dataclass(eq=False)
class DPTable:
    """Boundary rows ``value[T][N][c]``, plus per-``T`` abort decisions if asked for.

    ``rows[T, c]`` covers ``T = 0 .. R-1``: a read-only view of one
    float64 buffer that grows by doubling, so at most ``2 * R * (C + 1)``
    reals however large the game; ``slice_at(T)`` rebuilds an inner slice
    with the row kernel that ``extend_to`` made at the table's first row
    (:func:`shapsim.dp_kernels.row_kernel`).  ``decisions`` is ``None`` for
    a values-only table, else ``decisions[T]`` is ``T``'s record
    ``(cells, classes)``: ascending, in the smallest unsigned dtype that
    fits, the flat index into shape ``(n_states, D, C + 1)`` of each (work
    row of the pool state, drawn class, budget) cell where aborting
    strictly beats accepting, then the sentinel ``n_states * D * (C + 1)``;
    and the class each cell aborts from, then -1.  Consecutive equal
    records are one object.
    """

    space: StateSpace
    C: int
    decisions: list | None = None
    _phi_star: float | None = None
    _umax_star: float | None = None
    _R: int = field(default=0, init=False)
    _buffer: np.ndarray = field(init=False, repr=False)
    _kernel: Callable | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self._buffer = np.empty((0, self.C + 1))

    @property
    def R(self) -> int:
        return self._R

    @property
    def rows(self) -> np.ndarray:
        view = self._buffer[:self._R]
        view.flags.writeable = False
        return view

    def _row(self, T: int, decisions: bool = False) -> tuple[np.ndarray, tuple | None]:
        """The work-ordered slice at ``T`` from row ``T - 1``, and with ``decisions`` its record."""
        if self._kernel is None:
            self._kernel = row_kernel(self.space, self.C)
        return self._kernel(self._buffer[T - 1] if T else np.zeros(self.C + 1), decisions)

    def _check_row(self, T: int, row: np.ndarray) -> None:
        if self._phi_star is None:
            return
        umax = self._umax_star
        expect = (T + 1) * self._phi_star
        scale = max(1.0, abs(expect))
        # one pass over the C + 1 values; the first failing check is reported
        values = row.tolist()
        rising = below = False
        last = values[0]
        for c, value in enumerate(values):
            rising |= value - last > 1e-9 * scale
            below |= value < expect - c * umax - 1e-6 * scale
            last = value
        if abs(values[0] - expect) > 1e-6 * scale:
            raise AssertionError(f"zero-budget boundary at T={T}: {row[0]} != {expect}")
        if rising:
            raise AssertionError(f"boundary at T={T} not non-increasing in budget")
        if below:
            raise AssertionError(f"boundary at T={T} below the budget-damage floor")

    def extend_to(self, R: int) -> "DPTable":
        if R > len(self._buffer):
            grown = np.empty((max(R, 2 * len(self._buffer)), self.C + 1))
            grown[:self._R] = self._buffer[:self._R]
            self._buffer = grown
        while self._R < R:
            T = self._R
            values, record = self._row(T, self.decisions is not None)
            row = self._buffer[T]
            row[:] = values[-1]  # the full pool
            self._check_row(T, row)
            self._R = T + 1
            if record is not None:  # a record equal to the previous one is stored as that one
                # (a table's records share their dtypes, so equal bytes are equal records)
                same = self.decisions and all(len(a) == len(b) and a.tobytes() == b.tobytes()
                                              for a, b in zip(record, self.decisions[-1]))
                self.decisions.append(self.decisions[-1] if same else record)
        return self

    def slice_at(self, T: int) -> np.ndarray:
        if not 0 <= T < self.R:
            raise ValueError(f"sample index {T} outside built range 0..{self.R - 1}")
        return self._row(T)[0][self.space.work_row]

    def abort_rule(self, lo: int, hi: int) -> Callable:
        """The abort rule at sample indices ``lo .. hi - 1``, as one sorted lookup.

        Returns ``rule(T, sid, d, c)``: the class to abort from, or -1 to
        accept, when pool state ``sid`` has a class-``d`` player drawn with
        ``0 <= c <= C`` units left at sample index ``T``; arrays of these
        look up one cell each, with one ``searchsorted``.  The lookup merges
        the range's distinct records: the ``g``-th run of equal records
        adds ``g * n_states * D * (C + 1)`` to its cells, so the cells stay
        ascending across runs.  It holds at most twice the bytes of those
        records (its cells may need the next wider dtype), and a range with
        one distinct record reads that record in place.
        """
        space = self.space
        D = len(space.classes)
        width = space.n_states * D * (self.C + 1)  # a record's sentinel
        span = self.decisions[lo:hi]
        runs = [t for t in range(len(span)) if t == 0 or span[t] is not span[t - 1]]
        start = np.zeros(len(span), dtype=np.int64)
        start[runs[1:]] = width
        start = np.cumsum(start)  # the key offset of each sample index's run
        if len(runs) == 1:
            cells, classes = span[0]
        else:
            sizes = [len(span[t][0]) - 1 for t in runs]  # without the sentinels
            cells = np.empty(sum(sizes) + 1, dtype=np.min_scalar_type(len(runs) * width))
            classes = np.empty(len(cells), dtype=span[0][1].dtype)
            at = 0
            for g, (t, size) in enumerate(zip(runs, sizes)):
                cells[at:at + size] = span[t][0][:-1]
                cells[at:at + size] += g * width
                classes[at:at + size] = span[t][1][:-1]
                at += size
            cells[-1], classes[-1] = len(runs) * width, -1
        work_row = space.work_row

        def rule(T, sid, d, c):
            key = (work_row[sid].astype(np.int64) * D + d) * (self.C + 1) + c
            key = (key + start[np.subtract(T, lo)]).astype(cells.dtype)  # so no copy of the cells
            i = cells.searchsorted(key)  # the sentinel keeps i in range
            return np.where(cells[i] == key, classes[i], -1)
        return rule

    def check_play(self, R: int, C: float) -> None:
        """Refuse, for both engines, a play of ``R`` samples at budget ``C`` the records miss."""
        if self.decisions is None or R > self.R or C > self.C:
            raise ValueError("the optimal adversary needs a table built with decisions=True "
                             "for at least the run's budget and length")

    def worst_value(self, R: int | None = None, c: int | None = None) -> float:
        """Full-run value ``value[R-1][N][c]`` (defaults: all built samples, full budget).

        Raises ``ValueError`` unless ``1 <= R <= self.R`` and ``0 <= c <= C``.
        """
        R = self.R if R is None else R
        c = self.C if c is None else c
        if not 1 <= R <= self.R:
            raise ValueError(f"run length {R} outside built range 1..{self.R}")
        if not 0 <= c <= self.C:
            raise ValueError(f"budget {c} outside 0..{self.C}")
        return float(self.rows[R - 1, c])


def dp_build(game: Game, honest: int, R: int, C: int, *,
             decisions: bool = False) -> DPTable:
    """Build boundary rows for ``R`` P-samples and budgets ``0..C``, and decisions if asked."""
    if C < 0 or R < 1:
        raise ValueError("need R >= 1 and C >= 0")
    space = StateSpace.build(game, honest)
    table = DPTable(space=space, C=C, decisions=[] if decisions else None)
    try:
        report = shapley_exact(game)
        table._phi_star = float(report.phi[honest])
        table._umax_star = float(report.u_max[honest])
    except ValueError:  # no exact values: rows go unchecked
        table._phi_star = None
    return table.extend_to(R)


class DPAdversary(Adversary):
    """Plays the table's optimal abort policy in sequential elimination.

    At each opened elimination round with a non-honest player drawn, looks
    the cell up in the :meth:`DPTable.abort_rule` of the sample index, which
    reads the sample's record in place, as :func:`parallel_runs` looks up one
    per chunk, and has the named class's smallest-id pool member other than the
    drawn player abort.  Behaves passively once the budget is exhausted or
    beyond the planning horizon.  Not defined for the full-permutation protocol.
    :meth:`DPTable.check_play` refuses a budget above the table's ``C`` (so
    ``Budget.unlimited()``), and at ``reset`` a planned run beyond its ``R``.
    """

    def __init__(self, table: DPTable, budget: Budget):
        if budget.kind == "rate":  # the table's budget axis counts violations
            raise ValueError("the dp adversary needs a violation count (budget_kind known), "
                             "not a rate")
        table.check_play(table.R, budget.limit)
        super().__init__(budget)
        self.table = table
        self.horizon = table.R
        self._T = -1
        self._rule = None

    def reset(self, **kwargs) -> None:
        super().reset(**kwargs)
        # plan against the run's announced length when one exists
        self.horizon = self.table.R if self.planned_samples is None else self.planned_samples
        self.table.check_play(self.horizon, self.budget.limit)

    def begin_sample(self, index: int) -> None:
        super().begin_sample(index)
        self._T = self.horizon - 1 - index  # negative beyond the horizon
        self._rule = None

    def commit_permutations(self, view, susceptible, m):
        raise ValueError("the optimal table adversary only plays sequential elimination")

    def open_draws(self, view, susceptible, commitments: Mapping, k: int) -> Mapping:
        # a spent budget skips the table lookup
        if self._T < 0 or view.honest_revealed is None or not self.budget.allows():
            return commitments
        drawn = self._drawn(view, commitments, k)
        if drawn == self.honest:
            return commitments
        pool = view.active_set
        c = int(self.budget.limit - self.budget.used)
        space = self.table.space
        if self._rule is None:  # one lookup per sample index, built at its first ask
            self._rule = self.table.abort_rule(self._T, self._T + 1)
        d = int(self._rule(self._T, space.state_of(pool), space.class_of[drawn], c))
        victim = next(j for j in pool if space.class_of[j] == d and j != drawn) if d >= 0 else None
        return self._abort(commitments, victim)


@dataclass
class ParallelRunStats:
    """Per-run honest allocations from the lockstep simulation engine."""

    x_honest: np.ndarray
    violations: np.ndarray
    R: int

    @property
    def mean(self) -> float:
        return float(np.mean(self.x_honest))

    @property
    def stderr(self) -> float:
        if len(self.x_honest) < 2:
            return 0.0
        return float(np.std(self.x_honest, ddof=1) / math.sqrt(len(self.x_honest)))


def _play_rows(space: StateSpace, places: np.ndarray, rule: Callable | None,
               T: np.ndarray, budget: np.ndarray) -> np.ndarray:
    """Play the elimination rounds of the (run, sample) rows, one column of ``places`` each.

    ``places[r, i]`` is row ``i``'s drawn place in round ``r``, over the pool
    ordered honest first then by class.  Returns each row's pool state when
    the honest player was drawn.  Row ``i`` plays sample index ``T[i]`` and
    spends its own ``budget[i]`` across its rounds.  Each round asks the
    ``rule`` (:meth:`DPTable.abort_rule`) once, about the rows still playing
    that have budget left; the others, and all rows without a rule, play passively.
    """
    n, rows = places.shape
    D = len(space.classes)
    # row i's count of class d is counts[d, i]; a row's counts stop changing
    # once the honest player is drawn
    counts = np.repeat(space.totals[:, None].astype(places.dtype), rows, axis=1)
    live = np.ones(rows, dtype=bool)
    for place in places:
        live &= place != 0  # place 0 is the honest player
        if not live.any():
            break
        # the drawn class: how many prefix sums of the class counts are <= place
        d = np.zeros(rows, dtype=np.min_scalar_type(D))
        reach = 1
        for cnt in counts[:-1]:
            reach = reach + cnt
            d += place >= reach
        if rule is not None:
            ask = np.flatnonzero(live & (budget > 0))
            if len(ask):
                d_abort = rule(T[ask], space.state_ids(counts.take(ask, 1)), d[ask], budget[ask])
                ask = ask[d_abort >= 0]
                d[ask] = d_abort[d_abort >= 0]
                budget[ask] -= 1
        for j, cnt in enumerate(counts):  # one class-d member leaves
            cnt -= live & (d == j)
    return space.state_ids(counts)


def parallel_runs(game: Game, honest: int, R: int, C: int, M: int, seed: int, *,
                  table: DPTable | None = None, first: int = 0) -> ParallelRunStats:
    """Advance runs ``first .. first + M - 1`` together, one chunk of sample indices at a time.

    A chunk of ``k <= LOCKSTEP_CHUNK`` sample indices is one batch of
    ``M * k`` (run, sample) rows, and each elimination round is one
    vectorised step over all of them; pools stay in lockstep because each
    round removes exactly one player whether or not an abort replaces the
    drawn one.  Each run's sample values are added in sample order.

    Randomness contract: run ``m`` reads only ``substream(seed, "run", m)``,
    so its allocation and violations are the same in any ``first=`` range
    that holds it.  It reads the stream's floats positionally, index ``t *
    n + r`` for P-sample ``t`` and round ``r``; the round's eliminated
    member is ``floor(u * pool_size)`` over the pool ordered honest-first
    then by class.  A single uniform stands in for the opened commitment
    sum, which has the same law.  Positional indexing keeps runs aligned no
    matter when the honest player leaves a sample; rounds after that cannot
    change the honest allocation, so they are skipped.  A chunk's floats
    become these integer places once, round-major in the smallest dtype
    that holds ``n``, so each round reads one contiguous row; the places
    compare with integer class bounds exactly as the floats would.

    With a ``table`` (built with ``decisions=True``) the adversary plays its
    optimal abort policy through one :meth:`DPTable.abort_rule` lookup per
    chunk, over the chunk's sample indices, as :class:`DPAdversary` takes
    one per sample; without a table every run is passive.  A chunk's rows
    are sample-major, so the rows a round asks about at one sample index
    are adjacent and search one part of the lookup.  A run's samples are
    coupled only through its remaining budget, which changes at most ``C``
    times, so a first pass plays all of a chunk's rows in place at each run's
    budget at the chunk start, with no lookup if no run holds any.  Each run
    keeps its samples through its first that aborts; replays play its later
    ones (of a spent run, only those that aborted), gathered, at the lowered
    budget, until none is pending: bit for bit the sample-by-sample play.
    """
    n = game.n
    if table is not None:
        table.check_play(R, C)
    space = table.space if table is not None else StateSpace.build(game, honest)

    gens = [substream(seed, "run", m) for m in range(first, first + M)]
    x_acc = np.zeros(M)
    c_rem = np.full(M, C, dtype=np.min_scalar_type(C))
    block = np.empty(M * LOCKSTEP_CHUNK * n)
    grid = np.empty((n, LOCKSTEP_CHUNK, M), dtype=np.min_scalar_type(n))
    pool_sizes = np.tile(np.arange(n, 0, -1, dtype=np.float64), LOCKSTEP_CHUNK)  # n - r at t * n + r
    sample = np.arange(LOCKSTEP_CHUNK)
    for t in range(0, R, LOCKSTEP_CHUNK):
        k = min(LOCKSTEP_CHUNK, R - t)
        draws = block[:M * k * n].reshape(M, k * n)
        for m, gen in enumerate(gens):
            gen.random(out=draws[m])
        np.multiply(draws, pool_sizes[:k * n], out=draws)
        # the places floor(u * (n - r)), round-major, column s * M + m for run
        # m's sample s, so a round's rows at one sample index are adjacent: a
        # cast truncates, and u >= 0
        cast = draws.astype(grid.dtype).reshape(M, k, n)
        for s in range(k):  # per sample: one 3-D transposing copy measured slower
            grid[:, s] = cast[:, s].T
        places = grid[:, :k].reshape(n, k * M)
        rule = table.abort_rule(R - t - k, R - t) if table is not None and c_rem.any() else None
        T = np.repeat(R - 1 - t - sample[:k], M)
        rows = slice(None)  # the first pass plays every row in place
        start = np.tile(c_rem, k)
        budget = start.copy()
        sid = _play_rows(space, places, rule, T, budget)
        while rule is not None:  # replays, of each run's samples after its first abort
            spent = np.zeros(k * M, dtype=budget.dtype)
            spent[rows] = start - budget
            spent = spent.reshape(k, M)
            runs = np.flatnonzero(spent.any(axis=0))
            j = (spent[:, runs] > 0).argmax(axis=0)  # a run's first abort is final
            c_rem[runs] -= spent[j, runs]
            later = np.zeros((k, M), dtype=bool)  # a spent run's rows that did not abort stay
            later[:, runs] = (sample[:k, None] > j) & ((spent[:, runs] > 0) | (c_rem[runs] > 0))
            rows = np.flatnonzero(later)
            if not len(rows):
                break
            start = np.tile(c_rem, k)[rows]
            budget = start.copy()
            sid[rows] = _play_rows(space, places[:, rows], rule, T[rows], budget)
        del rule  # so the next chunk's lookup is not built beside this one
        # in sample order, so each run's sum is the sample-by-sample one
        for mu in space.mu_star[sid].reshape(k, M):
            x_acc += mu
    return ParallelRunStats(x_honest=x_acc / R, violations=(C - c_rem).astype(np.int64), R=R)
