"""Independent oracles and generators the tests check the library against.

Everything here recomputes expectations from first principles (enumeration,
direct definitions, explicit game trees) without reusing the library's
optimized code paths.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from shapsim import Adversary, Game, Hypergraph, as_mask, make_synergy_game


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
                declared_monotone=True, declared_supermodular=True)


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
    """Per-state builder; the plain-loop reference for ``shapsim.dp._build_slice``."""
    strides = space.strides
    out = np.empty((space.n_states, C + 1), dtype=np.float64)
    inf = math.inf
    for size_group in space.by_size:
        for sid in size_group:
            counts = _counts_of(space, int(sid))
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

    The one abort rule both the callback engine (``DPAdversary``) and the
    lockstep engine (``parallel_runs``) play, as a plain loop: with ``c >= 1``
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


# --- instrumented adversaries -------------------------------------------------

class ScriptedAdversary(Adversary):
    """Aborts exactly the players scripted for each (sample, round) key.

    For the full-permutation protocol the key is ``(sample_index, 0)``.
    """

    def __init__(self, script: dict[tuple[int, int], set[int]]):
        super().__init__()
        self.script = dict(script)

    def _apply(self, view, opened):
        for p in self.script.get((view.sample_index, view.round_index), ()):
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


def malformed_perms(m: int) -> list:
    """Commitments that are not a bijection of ``0..m-1``, one per way to fail."""
    ident = list(range(m))
    return [MISSING, None, ident[:-1], [ident, ident], ident[:-1] + [m],
            ident[:-1] + [-1],  # numpy indexing would wrap it onto slot m - 1
            [0] * m, [float(x) for x in ident], np.arange(m, dtype=np.float64),
            "".join(map(str, ident)), [*ident[:-1], None], [*ident[:-1], 2 ** 70]]


def malformed_draws(k: int) -> list:
    """Commitments that are not an integer in ``[0, k)``, one per way to fail."""
    return [MISSING, None, -1, k, 2 ** 70, 1.5, 1.0, np.float64(1.0), "1", [1],
            np.array([1]), {1: 1}]


class Malformer(Adversary):
    """Commits ``value`` for ``player``; every other entry is the base strategy's."""

    def __init__(self, player: int, value):
        super().__init__()
        self.player = player
        self.value = value

    def _swap(self, record: dict) -> dict:
        record = dict(record)
        if self.value is MISSING:
            record.pop(self.player, None)
        elif self.player in record:
            record[self.player] = self.value
        return record

    def commit_permutations(self, view, susceptible, m):
        return self._swap(super().commit_permutations(view, susceptible, m))

    def commit_draws(self, view, susceptible, k):
        return self._swap(super().commit_draws(view, susceptible, k))


class JunkAdversary(Adversary):
    """Rushing strategy that mixes malformed values and forgeries into every record.

    At commit, each entry is kept with probability 3/4 and otherwise left
    out or replaced by a malformed value.  At open, a round about to
    eliminate the honest player is opened faithfully; any other entry is
    opened faithfully with probability 1/4 and otherwise forged, left out,
    aborted or replaced by a malformed value.
    """

    def _junk(self, record: dict, malformed: list, p_keep: float, forge=None) -> dict:
        out = {}
        for p, value in record.items():
            u, v = self._floats.take(2)
            if u < p_keep:
                out[p] = value
            elif forge is not None and u < (1 + p_keep) / 2:
                out[p] = forge(value)
            else:
                junk = malformed[int(v * len(malformed))]
                if junk is not MISSING:
                    out[p] = junk
        return out

    def commit_permutations(self, view, susceptible, m):
        return self._junk(super().commit_permutations(view, susceptible, m),
                          malformed_perms(m), 0.75)

    def commit_draws(self, view, susceptible, k):
        return self._junk(super().commit_draws(view, susceptible, k), malformed_draws(k), 0.75)

    def open_permutations(self, view, susceptible, commitments, m):
        return self._junk(commitments, malformed_perms(m), 0.25, lambda v: np.roll(v, 1))

    def open_draws(self, view, susceptible, commitments, k):
        if view.honest_revealed is not None and len(commitments) == len(susceptible):
            total = view.honest_revealed + sum(commitments.values())
            if view.active_set[total % k] == self.honest:
                return commitments
        return self._junk(commitments, malformed_draws(k), 0.25, lambda v: (v + 1) % k)
