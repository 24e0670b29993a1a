"""Permutation-generation protocols under an ideal-commitment contract.

Three protocols produce permutation samples (P-samples):

* :func:`naive_perm` - every player commits a full permutation, all are
  opened in a second round, and the opened permutations are composed in
  ascending player-id order (earliest id applied first).
* :func:`rand_elim` - every player commits a number modulo the pool size;
  the opened sum picks one player to eliminate.
* :func:`seq_perm` - repeated :func:`rand_elim` rounds fill the permutation
  from the least preferable rank upward.

Rank convention: rank 1 is the least preferable position (empty predecessor
set) and rank ``n`` the most preferable; reward code reads predecessors as
lower ranks.

The ideal commitment scheme is modeled as an information-flow contract in
the adversary callback API rather than as simulated cryptography:

* hiding - commit-phase callbacks receive a :class:`PhaseView` whose
  ``honest_revealed`` field is ``None``; the honest player's current-round
  value is never passed to the adversary before the open phase.
* binding - a commitment must be well formed (a bijection of ``0..m-1``,
  or a draw: an integer in ``[0, k)``) and an opening must be the committed
  value (faithful open) or ``None`` (abort).  Anything else, a missing or
  malformed commitment included, is converted into a detected violation,
  exactly like an abort, and never reaches the composition.  The protocol
  keeps its own immutable copy of every well-formed commitment and computes
  the outcome from that copy alone; the open hook receives a read-only view
  of it, so nothing the hook does can change what was committed.
* rushing - open-phase callbacks receive the honest player's opened value
  before the adversary decides which susceptible players abort.

Aborting at the commit phase is expressed by aborting at open (both count as
one violation and place the player in the detected set).

A view carries only the pool and the honest opening.  Nothing of earlier
P-samples or rounds is passed in; a strategy that wants the run's past
counts it itself from :meth:`begin_sample` and its commit hooks, so one
P-sample costs the same however long the run has been going.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index as _index
from types import MappingProxyType
from typing import Sequence

import numpy as np


@dataclass(slots=True)
class PhaseView:
    """What the adversary is allowed to see at one callback.

    ``active_set`` is the pool of the current round, ascending.
    ``honest_revealed`` is ``None`` during commit phases and carries the
    honest player's opened value during open phases.  Views are treated as
    read-only by every strategy.
    """

    active_set: tuple[int, ...]
    honest_revealed: object


@dataclass(frozen=True)
class PSampleOutcome:
    """One generated P-sample.

    ``order[r]`` is the player at rank ``r + 1`` over the active set (rank 1
    least preferable).  ``dev`` collects players detected violating during
    the sample; ``violations_used`` counts budget units consumed (one per
    detected player).
    """

    order: tuple[int, ...]
    dev: frozenset[int]
    violations_used: int

    def rank_of(self, player: int) -> int:
        return self.order.index(player) + 1


class ProtocolInfeasible(ValueError):
    """An adversary strategy cannot run against this configuration."""


def _as_perm(value, slots: list[int]) -> tuple[int, ...] | None:
    """``value`` as a tuple permuting ``slots`` (``0..m-1``), else ``None``."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError, OverflowError):
        return None
    if arr.shape != (len(slots),) or arr.dtype.kind not in "iu":
        return None
    perm = tuple(arr.tolist())
    return perm if sorted(perm) == slots else None


def _as_draw(value, k: int) -> int | None:
    """``value`` as an integer draw in ``[0, k)``, else ``None``."""
    try:
        draw = _index(value)
    except TypeError:
        return None
    return draw if 0 <= draw < k else None


def compose_order(active: Sequence[int], perms: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    """Compose submitted slot permutations and return the rank order.

    Composition runs in ascending player-id order with the earliest player's
    permutation applied first.  Player ``active[x]`` starts at slot ``x`` and
    ends at slot ``g(x)``, which is its rank minus one.
    """
    m = len(active)
    g = range(m)
    for p in sorted(perms):
        perm = perms[p]
        g = [perm[x] for x in g]
    order = [0] * m
    for x, p in enumerate(active):
        order[g[x]] = p
    return tuple(order)


def naive_perm(
    active: Sequence[int],
    honest: int,
    adversary,
    honest_rng: np.random.Generator,
) -> PSampleOutcome:
    """One commit-and-open round producing a permutation of ``active``.

    The honest player samples its permutation uniformly.  Susceptible
    players commit via the adversary's blind callback, then the adversary
    sees the honest opening and picks which susceptible players abort.
    Aborters' permutations are left out of the composition but the aborters
    themselves still occupy slots in the composed permutation; they are
    reported in ``dev``.  Against a never-violating adversary the output is
    uniform over all permutations of the active set.
    """
    active = tuple(sorted(active))
    if honest not in active:
        raise ValueError("the honest player must be in the active set")
    m = len(active)
    honest_perm = tuple(honest_rng.permutation(m).tolist())
    susceptible = tuple(p for p in active if p != honest)

    slots = list(range(m))
    dev = set()

    commit_view = PhaseView(active, None)
    commitments = adversary.commit_permutations(commit_view, susceptible, m)
    commitments = commitments if isinstance(commitments, dict) else {}
    checked: dict[int, tuple[int, ...]] = {}  # protocol-held record
    for p in susceptible:
        perm = _as_perm(commitments.get(p), slots)
        if perm is None:
            dev.add(p)  # binding: a malformed commitment is a violation
        else:
            checked[p] = perm

    record = MappingProxyType(checked)
    opened = adversary.open_permutations(PhaseView(active, honest_perm), susceptible, record, m)

    perms = {honest: honest_perm}
    if opened is record:  # faithful open of the protocol-held record
        perms.update(checked)
    else:
        opened = opened if isinstance(opened, dict) else {}
        for p, perm in checked.items():
            value = opened.get(p)
            if value is perm or value is not None and _as_perm(value, slots) == perm:
                perms[p] = perm  # faithful open
            else:
                dev.add(p)  # abort, or binding violation

    order = compose_order(active, perms)
    return PSampleOutcome(order=order, dev=frozenset(dev), violations_used=len(dev))


def rand_elim(
    pool: Sequence[int],
    honest: int | None,
    adversary,
    honest_rng: np.random.Generator,
    *,
    honest_draw: int | None = None,
) -> tuple[int, frozenset[int]]:
    """Eliminate one player from ``pool`` by a committed modular sum.

    Every player commits a draw in ``[0, |pool|)``; after opening, the sum
    modulo ``|pool|`` indexes the eliminated player in ascending-id order.
    If any player is detected violating, the lowest-id violator is
    eliminated instead.  ``honest`` may be ``None`` when the pool is fully
    susceptible.  An honest pool member is eliminated with probability at
    most ``1/|pool|`` against any adversary.

    ``honest_draw`` lets a caller that batches the honest player's
    randomness supply this round's draw; by default one integer is taken
    from ``honest_rng``.
    """
    pool = tuple(sorted(pool))
    k = len(pool)
    if k == 0:
        raise ValueError("cannot eliminate from an empty pool")
    if honest is not None:
        if honest_draw is None:
            honest_draw = int(honest_rng.integers(k))
    else:
        honest_draw = None
    susceptible = tuple(p for p in pool if p != honest)

    commit_view = PhaseView(pool, None)
    commitments = adversary.commit_draws(commit_view, susceptible, k)
    commitments = commitments if isinstance(commitments, dict) else {}
    dev = set()
    try:  # the common case, every draw well formed, checked in bulk
        committed = {p: _index(commitments[p]) for p in susceptible}  # protocol-held record
        well_formed = not committed or 0 <= min(committed.values()) <= max(committed.values()) < k
    except (KeyError, TypeError):
        well_formed = False
    if not well_formed:
        draws = {p: _as_draw(commitments.get(p), k) for p in susceptible}
        committed = {p: draw for p, draw in draws.items() if draw is not None}
        dev = set(draws) - set(committed)  # binding: a malformed commitment is a violation

    record = MappingProxyType(committed)
    opened = adversary.open_draws(PhaseView(pool, honest_draw), susceptible, record, k)

    total = honest_draw or 0
    if opened is record and not dev:  # faithful open of the protocol-held record
        return pool[(total + sum(committed.values())) % k], frozenset()
    opened = opened if isinstance(opened, dict) or opened is record else {}
    for p, c in committed.items():
        value = opened.get(p)
        if value is c or _as_draw(value, k) == c:
            total += c
        else:
            dev.add(p)  # abort, or binding violation
    if dev:
        return min(dev), frozenset(dev)
    return pool[total % k], frozenset()


def seq_perm(
    active: Sequence[int],
    honest: int,
    adversary,
    honest_rng: np.random.Generator,
) -> PSampleOutcome:
    """Sequential permutation generation by repeated elimination.

    Eliminated players fill ranks from the least preferable position upward.
    When a round detects violators, all of them are placed at the next
    least-preferable ranks at once, in ascending player id.  An honest
    player ends in the top ``k`` most preferable positions with probability
    at least ``k/n`` against any adversary.
    """
    active = tuple(sorted(active))
    if honest not in active:
        raise ValueError("the honest player must be in the active set")
    order: list[int] = []
    dev_total: set[int] = set()
    pool = set(active)
    # One batched draw per sample covers the honest player's per-round
    # randomness; round r maps floats[r] onto the current pool size.
    floats = honest_rng.random(len(active))
    r = 0
    while pool:
        if honest in pool:
            current_honest = honest
            draw = int(floats[r] * len(pool))
        else:
            current_honest, draw = None, None
        eliminated, dev = rand_elim(tuple(pool), current_honest, adversary, honest_rng,
                                    honest_draw=draw)
        if dev:  # the eliminated player is the lowest-id violator
            order.extend(sorted(dev))
            dev_total.update(dev)
            pool.difference_update(dev)
        else:
            order.append(eliminated)
            pool.discard(eliminated)
        r += 1
    return PSampleOutcome(order=tuple(order), dev=frozenset(dev_total), violations_used=len(dev_total))
