"""Permutation-generation protocols under an ideal-commitment contract.

Three protocols produce permutation samples (P-samples):

* :func:`naive_perm` - every player commits a full permutation, all are
  opened in a second round, and the opened permutations are composed in
  ascending player-id order (earliest id applied first).  The honest
  player's permutation shuffles ``0..m-1`` with exactly the draws of
  ``Generator.permutation(m)``, so it equals that call on the same stream.
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
* binding - a commit hook returns one integer-dtype ``ndarray`` whose
  rows are aligned with ``susceptible``: shape ``(s,)`` of draws for
  :func:`rand_elim`, shape ``(s, m)`` of permutations for
  :func:`naive_perm`.  Any other return (a dict, a list, ``None``, a wrong
  shape or dtype) makes every susceptible player a detected violator.  In a
  well-shaped array the check is per entry: a draw outside ``[0, k)``, or a
  row that is not a bijection of ``0..m-1``, makes only that player
  violate.  The protocol copies the array into values it holds itself
  (Python ints, tuples for permutation rows) and computes the outcome from
  those alone.  The open hook receives a read-only mapping from each kept
  player to its committed value: a :class:`types.MappingProxyType` of the
  protocol's dict in :func:`naive_perm`, and in :func:`rand_elim` a
  :class:`_Record` over the protocol's tuples of players and draws.
  Openings are judged against the protocol's own values, never against the
  object handed out, so nothing the hook does, to that object or to the
  array it committed, can change what was committed.  One rule,
  :func:`_detected`, gives both protocols their detected set: a susceptible
  player violates when it kept no commitment or its opening is not its
  committed value.  An opening is the committed value when it is that
  object or equal to it (:func:`_opens_to`), and returning the mapping
  itself opens everyone faithfully; ``None`` is an abort, and anything else
  is a detected violation like an abort.  Nothing an adversary returns
  raises.
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

from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from operator import index as _index, itemgetter
from types import MappingProxyType
from typing import NamedTuple, Sequence

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


class PSampleOutcome(NamedTuple):
    """One generated P-sample.

    ``order[r]`` is the player at rank ``r + 1`` over the active set (rank 1
    least preferable).  ``dev`` collects players detected violating during
    the sample; ``violations_used`` counts budget units consumed (one per
    detected player).  A named tuple, so immutable and cheap to build.
    """

    order: tuple[int, ...]
    dev: frozenset[int]

    @property
    def violations_used(self) -> int:
        return len(self.dev)

    def rank_of(self, player: int) -> int:
        return self.order.index(player) + 1


_NO_DEV: frozenset[int] = frozenset()  # shared by every round that detects no violator


class ProtocolInfeasible(ValueError):
    """An adversary strategy cannot run against this configuration."""


class _Record(Mapping):
    """A read-only mapping over parallel tuples of players and their values.

    It behaves like ``dict(zip(players, values))``: ``values()`` is the
    ``values`` tuple itself, in ``players`` order, and :meth:`copy` returns
    a plain dict.  A lookup scans ``players``.  The protocol that builds one
    keeps its own references to both tuples and never reads them back from
    the record, so rebinding the record's slots changes only the record.
    """

    __slots__ = ("_players", "_values")

    def __init__(self, players: tuple, values: tuple):
        self._players = players
        self._values = values

    def __getitem__(self, p):
        try:
            return self._values[self._players.index(p)]
        except ValueError:
            raise KeyError(p) from None

    def __iter__(self):
        return iter(self._players)

    def __len__(self) -> int:
        return len(self._players)

    def values(self) -> tuple:
        return self._values

    def copy(self) -> dict:
        return dict(zip(self._players, self._values))


def _opens_to(value, committed) -> bool:
    """Whether ``value`` equals ``committed``: an integer equal to a draw (an
    ``int``), or an integer-dtype row of shape ``(m,)`` equal to a permutation."""
    if type(committed) is int:
        try:
            return _index(value) == committed
        except TypeError:
            return False
    try:
        row = np.asarray(value)
    except (TypeError, ValueError, OverflowError):
        return False
    return (row.shape == (len(committed),) and row.dtype.kind in "iu"
            and tuple(row.tolist()) == committed)


def _detected(opened, record: Mapping, susceptible, players, values) -> frozenset[int]:
    """The detected set of one round, by the binding rule of the module docstring.

    ``players`` and ``values`` are the protocol's own parallel sequences of
    kept players and committed values, and ``record`` is the read-only
    mapping over them that the open hook received.
    """
    if opened is record:
        dev = ()
    elif not isinstance(opened, dict):
        dev = players
    else:
        dev = [p for p, committed in zip(players, values)
               if (value := opened.get(p)) is not committed
               and (value is None or not _opens_to(value, committed))]
    if len(players) < len(susceptible):
        return frozenset(susceptible).difference(players).union(dev)
    return frozenset(dev) if dev else _NO_DEV


def _is_commit_array(value, shape: tuple[int, ...]) -> bool:
    """Whether a commit hook returned an integer ``ndarray`` of ``shape``.

    Subclasses are refused: their ``tolist`` need not give plain integers.
    """
    return type(value) is np.ndarray and value.shape == shape and value.dtype.kind in "iu"


def _without(pool: tuple[int, ...], honest: int | None) -> tuple[int, ...]:
    """``pool`` (ascending) less ``honest``, which may be absent or ``None``."""
    i = bisect_left(pool, honest) if honest is not None else len(pool)
    if i < len(pool) and pool[i] == honest:
        return pool[:i] + pool[i + 1:]
    return pool


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
    slots = list(range(m))
    shuffled = slots.copy()
    honest_rng.shuffle(shuffled)  # the draws of honest_rng.permutation(m)
    honest_perm = tuple(shuffled)
    susceptible = _without(active, honest)

    commitments = adversary.commit_permutations(PhaseView(active, None), susceptible, m)
    if _is_commit_array(commitments, (len(susceptible), m)):
        # protocol-held record: a row is kept when it sorts to 0..m-1
        ordered = commitments.copy()
        ordered.sort(axis=1)
        checked = {p: tuple(row) for p, row, sorted_row in
                   zip(susceptible, commitments.tolist(), ordered.tolist())
                   if sorted_row == slots}
    else:
        checked = {}

    record = MappingProxyType(checked)
    opened = adversary.open_permutations(PhaseView(active, honest_perm), susceptible, record, m)
    dev = _detected(opened, record, susceptible, checked, checked.values())

    # Compose in ascending id order, earliest applied first: player
    # active[x] starts at slot x and ends at slot g[x], its rank minus one.
    # The first permutation applied is g itself; no identity is composed.
    g = None
    pending = honest_perm  # applied at the honest id's turn
    for p, perm in checked.items():  # ascending id, as susceptible is
        if pending is not None and p > honest:
            g = pending if g is None else itemgetter(*g)(pending)
            pending = None
        if p not in dev:
            g = perm if g is None else itemgetter(*g)(perm)
    if pending is not None:
        g = pending if g is None else itemgetter(*g)(pending)
    order = [0] * m
    for x, p in enumerate(active):
        order[g[x]] = p
    return PSampleOutcome(tuple(order), dev)


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
    susceptible.  ``pool`` may be any sequence of distinct ids, in any
    order.  An honest pool member is eliminated with probability at most
    ``1/|pool|`` against any adversary.

    ``honest_draw`` lets a caller that batches the honest player's
    randomness supply this round's draw; by default one integer is taken
    from ``honest_rng``.
    """
    pool = tuple(sorted(pool))
    k = len(pool)
    if k == 0:
        raise ValueError("cannot eliminate from an empty pool")
    if honest is None:
        honest_draw = None
    elif honest_draw is None:
        honest_draw = int(honest_rng.integers(k))
    susceptible = _without(pool, honest)

    commitments = adversary.commit_draws(PhaseView(pool, None), susceptible, k)
    if _is_commit_array(commitments, (len(susceptible),)):
        players, draws = susceptible, tuple(commitments.tolist())  # protocol-held values
        if draws and (min(draws) < 0 or max(draws) >= k):  # checked in bulk: rarely true
            players = tuple(p for p, draw in zip(susceptible, draws) if 0 <= draw < k)
            draws = tuple(draw for draw in draws if 0 <= draw < k)
    else:
        players, draws = (), ()

    record = _Record(players, draws)
    opened = adversary.open_draws(PhaseView(pool, honest_draw), susceptible, record, k)
    dev = _detected(opened, record, susceptible, players, draws)
    if dev:
        return min(dev), dev
    return pool[((honest_draw or 0) + sum(draws)) % k], _NO_DEV


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
    pool = list(active)  # kept ascending
    # One batched draw per sample covers the honest player's per-round
    # randomness; round r maps floats[r] onto the current pool size.
    floats = honest_rng.random(len(active)).tolist()
    current_honest = honest
    r = 0
    while pool:
        draw = None if current_honest is None else int(floats[r] * len(pool))
        # a module-level lookup, so a wrapper bound to ``protocols.rand_elim`` sees every round
        eliminated, dev = rand_elim(pool, current_honest, adversary, honest_rng,
                                    honest_draw=draw)
        if dev:  # the eliminated player is the lowest-id violator
            out = sorted(dev)
            dev_total.update(dev)
        else:
            out = (eliminated,)
            if eliminated == honest:
                current_honest = None
        for p in out:
            del pool[bisect_left(pool, p)]
        order.extend(out)
        r += 1
    return PSampleOutcome(tuple(order), frozenset(dev_total))
