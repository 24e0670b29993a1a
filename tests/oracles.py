"""Independent oracles and generators the tests check the library against.

Everything here recomputes expectations from first principles (enumeration,
direct definitions, explicit game trees) without reusing the library's
optimized code paths.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from functools import lru_cache

import numpy as np

from shapsim import (Adversary, Game, Hypergraph, ShapleyReport, as_mask, make_synergy_game,
                     shapley_exact, substream)
from shapsim.games import MAX_CHECK_PLAYERS, value_table


# --- random game generators -------------------------------------------------

def random_monotone_game(rng: np.random.Generator, n: int) -> Game:
    """Monotone closure of i.i.d. uniform subset values."""
    raw = rng.random(1 << n)
    table = np.zeros(1 << n)
    for mask in sorted(range(1 << n), key=lambda m: bin(m).count("1")):
        best = raw[mask] if mask else 0.0
        for i in range(n):
            if mask >> i & 1:
                best = max(best, table[mask ^ (1 << i)])
        table[mask] = best
    return Game(n=n, utility=table.__getitem__, name=f"rand-monotone({n})",
                declared_monotone=True)


def random_hypergraph(rng: np.random.Generator, n: int, *, max_size: int | None = None) -> Hypergraph:
    max_size = min(max_size or n, n)
    m = int(rng.integers(1, 2 * n))
    edges = []
    for _ in range(m):
        size = int(rng.integers(2, max_size + 1)) if max_size >= 2 else 1
        verts = frozenset(int(v) for v in rng.choice(n, size=size, replace=False))
        edges.append((verts, float(rng.uniform(0.25, 2.0))))
    return Hypergraph(n=n, edges=tuple(edges))


def random_simple_graph(rng: np.random.Generator, n: int) -> Hypergraph:
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                edges.append((frozenset({i, j}), float(rng.uniform(0.5, 2.0))))
    if not edges:
        edges.append((frozenset({0, 1}), 1.0))
    return Hypergraph(n=n, edges=tuple(edges))


def random_supermodular_game(rng: np.random.Generator, n: int) -> Game:
    """Random mixture of a synergy game and a convex function of coalition size."""
    syn = make_synergy_game(random_hypergraph(rng, n))
    a = float(rng.uniform(0.0, 1.0))
    b = float(rng.uniform(0.0, 0.5))
    syn_v = syn.utility

    def v(mask: int) -> float:
        s = bin(mask).count("1")
        return a * syn_v(mask) + b * s * s

    return Game(n=n, utility=v, name=f"rand-supermodular({n})",
                declared_monotone=True)


# --- direct-definition checks ------------------------------------------------

def supermodular_by_definition(game: Game, tol: float = 1e-12) -> bool:
    """All subset pairs: v(S) + v(T) <= v(S|T) + v(S&T)."""
    n = game.n
    v = [game.utility(m) for m in range(1 << n)]
    scale = max(1.0, max(abs(x) for x in v))
    for s in range(1 << n):
        for t in range(s, 1 << n):
            if v[s] + v[t] > v[s | t] + v[s & t] + tol * scale:
                return False
    return True


def is_monotone(game: Game, *, tol: float = 1e-12) -> bool:
    """Exhaustive monotonicity check (``n <= 12``)."""
    if game.n > MAX_CHECK_PLAYERS:
        raise ValueError(f"monotonicity check needs n<={MAX_CHECK_PLAYERS}; got n={game.n}")
    table = value_table(game)
    masks = np.arange(1 << game.n, dtype=np.int64)
    scale = max(1.0, float(np.max(np.abs(table))))
    for i in range(game.n):
        without = masks[(masks >> i) & 1 == 0]
        if np.any(table[without | (1 << i)] < table[without] - tol * scale):
            return False
    return True


def verify_symmetry_classes(game: Game, *, tol: float = 1e-12) -> bool:
    """Exhaustively verify the declared symmetry classes (``n <= 12``).

    Players in one class are exchangeable: swapping any two of them inside
    any subset leaves the utility unchanged.
    """
    if game.symmetry_classes is None:
        return True
    if game.n > MAX_CHECK_PLAYERS:
        raise ValueError(f"symmetry verification needs n<={MAX_CHECK_PLAYERS}; got n={game.n}")
    seen = sorted(p for cls in game.symmetry_classes for p in cls)
    if seen != list(range(game.n)):
        raise ValueError("symmetry classes must partition the player set")
    table = value_table(game)
    masks = np.arange(1 << game.n, dtype=np.int64)
    scale = max(1.0, float(np.max(np.abs(table))))
    for cls in game.symmetry_classes:
        members = sorted(cls)
        for a, b in zip(members, members[1:]):
            bit_a, bit_b = 1 << a, 1 << b
            # Only masks containing a but not b need checking; the rest are
            # fixed points or mirror images of these.
            sel = masks[(masks & bit_a != 0) & (masks & bit_b == 0)]
            swapped = (sel ^ bit_a) | bit_b
            if np.any(np.abs(table[sel] - table[swapped]) > tol * scale):
                return False
    return True


def shapley_exhaustive(game: Game) -> ShapleyReport:
    """:func:`shapsim.shapley_exact` over every coalition, ignoring declared closed forms."""
    return shapley_exact(dataclasses.replace(game, closed_forms=None))


def shapley_by_subset_formula(game: Game) -> np.ndarray:
    """Plain-Python subset-form evaluation (no vectorization)."""
    n = game.n
    phi = np.zeros(n)
    for i in range(n):
        others = [p for p in range(n) if p != i]
        for size in range(n):
            for combo in itertools.combinations(others, size):
                mask = as_mask(combo)
                mu = game.utility(mask | (1 << i)) - game.utility(mask)
                phi[i] += mu / math.comb(n - 1, size)
        phi[i] /= n
    return phi


def pinned_rank1_expectation(game: Game, honest: int, pinned: int) -> float:
    """Expected honest reward when ``pinned`` always takes rank 1."""
    if pinned == honest:
        raise ValueError("pin a player other than the honest one")
    others = [p for p in range(game.n) if p != pinned]
    total = 0.0
    count = 0
    for perm in itertools.permutations(others):
        mask = 1 << pinned
        prev = game.utility(mask)
        reward = 0.0
        for p in perm:
            cur = game.utility(mask | (1 << p))
            if p == honest:
                reward = cur - prev
            mask |= 1 << p
            prev = cur
        # rank-1 marginal of the pinned player itself is v({pinned}) - v({})
        total += reward
        count += 1
    return total / count


# --- game-tree oracle for the optimal adversary ------------------------------

def worst_case_value(game: Game, honest: int, R: int, C: int, *,
                     allow_abort_drawn: bool = False) -> float:
    """Expectimin over the full elimination game tree.

    Each round draws a uniform pool member; after seeing the draw the
    adversary may accept it or, spending one budget unit, have any other
    susceptible player abort in its place (``allow_abort_drawn`` also offers
    aborting the drawn player itself, a move the optimal strategy never
    needs).  The honest player's reward in a sample is its marginal
    contribution over the players already eliminated when it is drawn.
    """
    full = frozenset(range(game.n))
    v = game.utility
    hbit = 1 << honest

    def mu_joining(outside: frozenset) -> float:
        mask = as_mask(outside)
        return v(mask | hbit) - v(mask)

    @lru_cache(maxsize=None)
    def start(samples_left: int, c: int) -> float:
        if samples_left == 0:
            return 0.0
        return during(full, c, samples_left - 1)

    @lru_cache(maxsize=None)
    def during(pool: frozenset, c: int, t: int) -> float:
        k = len(pool)
        acc = 0.0
        for drawn in sorted(pool):
            if drawn == honest:
                acc += mu_joining(full - pool) + start(t, c)
                continue
            best = during(pool - {drawn}, c, t)
            if c >= 1:
                for j in sorted(pool):
                    if j == honest or (j == drawn and not allow_abort_drawn):
                        continue
                    best = min(best, during(pool - {j}, c - 1, t))
            acc += best
        return acc / k

    return start(R, C)


def _counts_of(space, sid: int) -> np.ndarray:
    """Per-class remaining counts of pool state ``sid`` (mixed-radix digits)."""
    out = np.empty(len(space.classes), dtype=np.int64)
    rem = sid
    for d in range(len(space.classes)):
        out[d] = rem // space.strides[d]
        rem %= space.strides[d]
    return out


def _build_slice_reference(space, prev_row: np.ndarray, C: int) -> np.ndarray:
    """Per-state builder in state order; the plain-loop reference for the
    row function of ``shapsim.dp_kernels.row_kernel``, whose slice is in
    work order."""
    strides = space.strides
    out = np.empty((space.n_states, C + 1), dtype=np.float64)
    inf = math.inf
    # a pool without one member has a smaller index, so ascending order
    # builds every state after the states it reads
    for sid in range(space.n_states):
        counts = _counts_of(space, sid)
        acc = space.mu_star[sid] + prev_row  # honest-drawn branch, per c
        m = 1 + int(counts.sum())
        if m > 1:
            nonzero = np.flatnonzero(counts)
            vals = out[sid - strides[nonzero]]  # (len(nonzero), C+1)
            best = vals.min(axis=0)
            order = np.argsort(vals, axis=0, kind="stable")
            second = vals[order[1], np.arange(C + 1)] if len(nonzero) > 1 else np.full(C + 1, inf)
            argbest = nonzero[order[0]]
            for pos, d in enumerate(nonzero):
                accept = vals[pos]
                # abort candidate classes: any with a member left after
                # excluding the drawn player itself
                if counts[d] >= 2:
                    cand = best
                else:
                    cand = np.where(argbest == d, second, best)
                abort = np.empty(C + 1)
                abort[0] = inf
                abort[1:] = cand[:-1]
                acc = acc + counts[d] * np.minimum(accept, abort)
        out[sid] = acc / m
    return out


def abort_class(space, sl: np.ndarray, sid: int, counts, d_drawn: int, c: int) -> int:
    """The class the optimal adversary aborts from in one round, or -1 to accept.

    The plain-loop reference for ``shapsim.dp.DPTable.abort_rule``, the one
    rule both the callback engine (``DPAdversary``) and the lockstep engine
    (``parallel_runs``) play, read from a value slice: with ``c >= 1``
    units left, a class qualifies when it keeps a member after the drawn
    player (of class ``d_drawn``) is set aside, tied minima go to the lowest
    class index, and an abort must strictly beat accepting.
    """
    if c < 1:
        return -1
    v_accept = sl[sid - space.strides[d_drawn], c]
    best, best_d = math.inf, -1
    for d in range(len(counts)):
        if counts[d] - (1 if d == d_drawn else 0) >= 1:
            val = sl[sid - space.strides[d], c - 1]
            if val < best:
                best, best_d = val, d
    return best_d if best < v_accept else -1


def lockstep_reference(table, R: int, C: int, seed: int, run: int = 0) -> tuple[float, int, list]:
    """Run ``run`` of ``shapsim.dp.parallel_runs`` as a plain loop.

    Follows the engine's randomness contract and plays :func:`abort_class`
    on each sample index's value slice, rebuilt with ``table.slice_at``,
    one sample after another.  Returns ``(x_honest, violations, aborted)``,
    where ``aborted`` lists the sample index of each abort in order.
    """
    space = table.space
    n = space.game.n
    floats = substream(seed, "run", run).random(R * n)
    x, c, aborted = 0.0, C, []
    for t in range(R):
        sl = table.slice_at(R - 1 - t)
        counts = list(space.totals)
        sid = space.full_state
        for r in range(n):
            u = int(floats[t * n + r] * (n - r))
            if u == 0:
                x += space.mu_star[sid]
                break
            idx, d, acc = u - 1, 0, counts[0]
            while idx >= acc:
                d += 1
                acc += counts[d]
            abort_d = abort_class(space, sl, sid, counts, d, c)
            if abort_d >= 0:
                d, c = abort_d, c - 1
                aborted.append(t)
            counts[d] -= 1
            sid -= space.strides[d]
    return x / R, len(aborted), aborted


# --- full-permutation composition ------------------------------------------------

def compose_order(active, perms: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    """The rank order that composing ``perms`` over ``active`` gives.

    Reference for ``naive_perm``: the permutations are applied in ascending
    player-id order, earliest first.  Player ``active[x]`` starts at slot
    ``x`` and ends at slot ``slot[x]``, which is its rank minus one.
    """
    slot = list(range(len(active)))
    for p in sorted(perms):
        slot = [perms[p][s] for s in slot]
    order = [None] * len(active)
    for x, p in enumerate(active):
        order[slot[x]] = p
    return tuple(order)


def as_perm(value, slots: list[int]) -> tuple[int, ...] | None:
    """``value`` as a tuple permuting ``slots`` (``0..m-1``), else ``None``."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError, OverflowError):
        return None
    if arr.shape != (len(slots),) or arr.dtype.kind not in "iu":
        return None
    perm = tuple(arr.tolist())
    return perm if sorted(perm) == slots else None


def as_draw(value, k: int) -> int | None:
    """``value`` as an integer draw in ``[0, k)``, else ``None``."""
    try:
        draw = operator.index(value)
    except TypeError:
        return None
    return draw if 0 <= draw < k else None


class CommitWitness(Adversary):
    """Mixin that keeps what the last round showed and got: the commit hook's
    return, the honest opening, and the open hook's record and return."""

    def commit_permutations(self, view, susceptible, m):
        self.parse, self.width = (lambda v: as_perm(v, list(range(m)))), (m,)
        self.committed = super().commit_permutations(view, susceptible, m)
        return self.committed

    def open_permutations(self, view, susceptible, commitments, m):
        self.honest_row, self.record = view.honest_revealed, commitments
        self.opened = super().open_permutations(view, susceptible, commitments, m)
        return self.opened

    def commit_draws(self, view, susceptible, k):
        self.parse, self.width = (lambda v: as_draw(v, k)), ()
        self.committed = super().commit_draws(view, susceptible, k)
        return self.committed

    def open_draws(self, view, susceptible, commitments, k):
        self.record = commitments
        self.opened = super().open_draws(view, susceptible, commitments, k)
        return self.opened

    def detected(self, susceptible) -> frozenset[int]:
        """The players of ``susceptible`` (ascending) that the last round must
        detect, worked out from the binding rule's statement.

        A player violates when the commit return is no integer ``ndarray``
        with one entry (a draw) or row (a permutation) per player, when its
        own entry does not parse (:func:`as_draw`, :func:`as_perm`), or when
        its opening does not parse to that value.  Returning the record the
        open hook got opens every kept player; a return that is no dict opens
        nobody.
        """
        c = self.committed
        kept = {}
        if (type(c) is np.ndarray and c.dtype.kind in "iu"
                and c.shape == (len(susceptible), *self.width)):
            kept = {p: self.parse(entry) for p, entry in zip(susceptible, c)}
            kept = {p: value for p, value in kept.items() if value is not None}
        dev = {p for p in susceptible if p not in kept}
        if self.opened is not self.record:
            opened = self.opened if isinstance(self.opened, dict) else {}
            dev.update(p for p, value in kept.items() if self.parse(opened.get(p)) != value)
        return frozenset(dev)

    def faithful_order(self, active, honest, dev) -> tuple[int, ...]:
        """:func:`compose_order` over the rows of the players outside ``dev``
        plus the honest row."""
        perms = {honest: tuple(self.honest_row)}
        susceptible = [p for p in sorted(active) if p != honest]
        if not {*susceptible} <= dev:  # some row was kept, so the commit was an array
            perms.update((p, tuple(row.tolist())) for p, row in zip(susceptible, self.committed)
                         if p not in dev)
        return compose_order(sorted(active), perms)


# --- instrumented adversaries -------------------------------------------------

class ScriptedAdversary(Adversary):
    """Aborts exactly the players scripted for each (sample, round) key.

    The sample is the index passed to :meth:`begin_sample` (0 until the
    first call) and the round counts commit calls within it from 0; the
    full-permutation protocol has one round per sample.
    """

    def __init__(self, script: dict[tuple[int, int], set[int]]):
        super().__init__()
        self.script = dict(script)
        self._sample, self._round = 0, -1

    def begin_sample(self, index):
        super().begin_sample(index)
        self._sample, self._round = index, -1

    def commit_permutations(self, view, susceptible, m):
        self._round += 1
        return super().commit_permutations(view, susceptible, m)

    def commit_draws(self, view, susceptible, k):
        self._round += 1
        return super().commit_draws(view, susceptible, k)

    def _apply(self, view, opened):
        for p in self.script.get((self._sample, self._round), ()):
            if p in opened:
                opened[p] = None
        return opened

    def open_permutations(self, view, susceptible, commitments, m):
        return self._apply(view, dict(commitments))

    def open_draws(self, view, susceptible, commitments, k):
        return self._apply(view, dict(commitments))


class RecordingAdversary(Adversary):
    """Passive strategy that records every view it is shown."""

    def __init__(self):
        super().__init__()
        self.commit_views = []
        self.open_views = []

    def commit_permutations(self, view, susceptible, m):
        self.commit_views.append(view)
        return super().commit_permutations(view, susceptible, m)

    def commit_draws(self, view, susceptible, k):
        self.commit_views.append(view)
        return super().commit_draws(view, susceptible, k)

    def open_permutations(self, view, susceptible, commitments, m):
        self.open_views.append(view)
        return super().open_permutations(view, susceptible, commitments, m)

    def open_draws(self, view, susceptible, commitments, k):
        self.open_views.append(view)
        return super().open_draws(view, susceptible, commitments, k)


class BindingBreaker(Adversary):
    """Opens a value different from its commitment for chosen players."""

    def __init__(self, cheaters: set[int]):
        super().__init__()
        self.cheaters = set(cheaters)

    def open_permutations(self, view, susceptible, commitments, m):
        opened = dict(commitments)
        for p in self.cheaters:
            if p in opened:
                forged = np.roll(np.asarray(opened[p]), 1)
                opened[p] = forged
        return opened

    def open_draws(self, view, susceptible, commitments, k):
        opened = dict(commitments)
        for p in self.cheaters:
            if p in opened:
                opened[p] = (int(opened[p]) + 1) % k
        return opened


# --- malformed adversary output -------------------------------------------------

MISSING = object()  # stands for a record entry the adversary leaves out


def malformed_perms(m: int) -> list[list[int]]:
    """Integer rows of length ``m`` that are not a bijection of ``0..m-1``,
    one per way to fail; each fits an ``int64`` commit array."""
    ident = list(range(m))
    return [[0] * m, ident[:-1] + [m], ident[:-1] + [-1],  # numpy indexing would wrap -1
            [*ident[:-1], 2 ** 62], [*ident[:-1], -2 ** 62], [m - 1] * m]


def malformed_draws(k: int) -> list[int]:
    """Integers outside ``[0, k)``, one per way to fail; each fits ``int64``."""
    return [-1, k, k + 1, 2 ** 62, -2 ** 62]


def malformed_commits(s: int, shape: tuple[int, ...]) -> list:
    """Commit returns for ``s`` susceptible players that are not an integer
    ``ndarray`` of ``shape``; each makes every susceptible player violate."""
    good = np.zeros(shape, dtype=np.int64)
    return [None, {p: row for p, row in enumerate(good)}, good.tolist(), tuple(good.tolist()),
            good.astype(np.float64), good.astype(np.bool_), good.astype(object),
            good.astype(np.complex128), np.zeros(shape[:-1] + (shape[-1] + 1,), np.int64),
            np.zeros((s + 1,) + shape[1:], np.int64), good[..., None], np.zeros((), np.int64),
            np.int64(0), np.ma.masked_array(good), "0" * s]


def opening_junk(m: int) -> list:
    """Values that are no opening of an integer commitment."""
    return [MISSING, None, 1.5, "1", [[0] * m], np.arange(m, dtype=np.float64), {1: 1}]


class Malformer(Adversary):
    """Commits ``value`` as the entry (or row) of each of ``players``, in an
    array of ``dtype``; every other entry is the base strategy's."""

    def __init__(self, players, value, dtype=np.int64):
        super().__init__()
        self.players = frozenset(players)
        self.value = value
        self.dtype = dtype

    def _swap(self, committed: np.ndarray, susceptible) -> np.ndarray:
        committed = committed.astype(self.dtype)
        for i, p in enumerate(susceptible):
            if p in self.players:
                committed[i] = self.value
        return committed

    def commit_permutations(self, view, susceptible, m):
        return self._swap(super().commit_permutations(view, susceptible, m), susceptible)

    def commit_draws(self, view, susceptible, k):
        return self._swap(super().commit_draws(view, susceptible, k), susceptible)


class JunkAdversary(Adversary):
    """Rushing strategy that mixes malformed values and forgeries into every round.

    At commit, each entry (or row) is kept with probability 3/4 and
    otherwise replaced by a malformed one.  At open, a round about to
    eliminate the honest player is opened faithfully; any other entry is
    opened faithfully with probability 1/4 and otherwise forged, left out,
    aborted or replaced by a malformed value.
    """

    def _junk_rows(self, committed: np.ndarray, malformed: list) -> np.ndarray:
        committed = committed.copy()
        for i in range(len(committed)):
            u, v = self._floats.take(2)
            if u >= 0.75:
                committed[i] = malformed[int(v * len(malformed))]
        return committed

    def _junk(self, record, malformed: list, forge) -> dict:
        out = {}
        for p, value in record.items():
            u, v = self._floats.take(2)
            if u < 0.25:
                out[p] = value
            elif u < 0.625:
                out[p] = forge(value)
            else:
                junk = malformed[int(v * len(malformed))]
                if junk is not MISSING:
                    out[p] = junk
        return out

    def commit_permutations(self, view, susceptible, m):
        return self._junk_rows(super().commit_permutations(view, susceptible, m),
                               malformed_perms(m))

    def commit_draws(self, view, susceptible, k):
        return self._junk_rows(super().commit_draws(view, susceptible, k), malformed_draws(k))

    def open_permutations(self, view, susceptible, commitments, m):
        return self._junk(commitments, malformed_perms(m) + opening_junk(m),
                          lambda v: np.roll(v, 1))

    def open_draws(self, view, susceptible, commitments, k):
        if view.honest_revealed is not None and len(commitments) == len(susceptible):
            total = view.honest_revealed + sum(commitments.values())
            if view.active_set[total % k] == self.honest:
                return commitments
        return self._junk(commitments, malformed_draws(k) + opening_junk(k),
                          lambda v: (v + 1) % k)
