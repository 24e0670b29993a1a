"""Row kernels of the optimal-adversary table: every pool state at one ``T``.

Both kernels fill a slice in work order (see :class:`shapsim.dp.StateSpace`)
from the previous full-pool boundary row, one size group after another,
and return with it the flat cell index of each cell where aborting strictly
beats accepting.  :func:`flat_rows` serves games with few classes from a
per-``C`` gather plan on a state-major buffer; :func:`wide_rows` serves the
rest on a budget-major work array.  :func:`decision_record` turns the hit
cells of either into a decision record.  ``shapsim.dp._build_slice``
chooses the kernel.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .dp import StateSpace


class FlatPlan(NamedTuple):
    """Gathers of the flat kernel for budgets ``0..C``.

    The kernel's buffer is state-major: slot ``w * (C + 1) + c`` holds work
    row ``w`` at budget ``c``, and two sentinel slots follow, ``inf`` and
    then zero.  A size group's cells are its (drawn class ``d``, state,
    budget ``c``) triples, class-major, so each class's cells are one
    contiguous run in the order of the group's own slots.  ``groups`` holds
    ``(m, take, weight, own, hit)`` per group.  ``take``, shape
    ``(D + 1, cells)``, gathers one value per cell in each row:

    * row 0: class ``d``'s value one budget unit lower, where the class
      keeps a member besides the drawn one (``k >= 2``), else ``inf``;
    * rows ``1..D-1``: each other class's value one unit lower, in index
      order, ``inf`` where that class is empty;
    * row ``D``: the value with the drawn class-``d`` member removed
      (accepting).

    A value one unit lower at ``c = 0`` is ``inf``, and every row of a cell
    whose drawn class is empty reads the zero slot, so that cell adds
    nothing and never beats accepting.  ``weight`` is the drawn class's
    count per cell, ``own`` the slice of the group's slots and ``hit`` that
    of its cells in a row's hit array; ``key`` maps each hit position to its
    flat cell index in a decision record (see :class:`shapsim.dp.DPTable`).
    """

    groups: tuple
    key: np.ndarray


def build_flat_plan(space: StateSpace, C: int) -> FlatPlan:
    """The :class:`FlatPlan` of ``space`` for budgets ``0..C``."""
    D, C1 = len(space.classes), C + 1
    inf_slot, zero_slot = space.n_states * C1, space.n_states * C1 + 1
    budget = np.arange(C1)
    others = [[o for o in range(D) if o != d] for d in range(D)]
    groups, keys, h0 = [], [], 0
    for m, lo, hi, nbr, k, empty, shared in space.plan:
        empty, shared = empty[:, :, None], shared[:, :, None]
        slot = nbr[:, :, None].astype(np.intp) * C1 + budget  # (D, g, C + 1)
        lower = np.where(~empty & (budget >= 1), slot - 1, inf_slot)
        rows = [np.where(shared, lower, inf_slot)]
        rows += [lower[[o[i] for o in others]] for i in range(D - 1)]
        take = np.where(empty, zero_slot, np.stack([*rows, slot])).reshape(D + 1, -1)
        weight = np.repeat(k[:, :, None].astype(np.float64), C1, axis=2).ravel()
        h1 = h0 + len(weight)
        groups.append((float(m), take, weight, slice(lo * C1, hi * C1), slice(h0, h1)))
        keys.append(((np.arange(lo, hi)[:, None] * D + np.arange(D)[:, None, None]) * C1
                     + budget).ravel())
        h0 = h1
    return FlatPlan(tuple(groups), np.concatenate(keys) if keys else np.empty(0, np.intp))


def flat_rows(space: StateSpace, plan: FlatPlan, prev_row: np.ndarray, C: int,
             decisions: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The work-ordered slice and, with ``decisions``, the flat cell index of each hit.

    The buffer is :class:`FlatPlan`'s: state-major, then the ``inf`` and
    zero sentinel slots.  A group is one gather of its ``D + 1`` rows of
    cells and a few operations on contiguous 1-D blocks: the minimum over the
    rows is the cheaper of aborting and accepting, and it is weighted by the
    class's count and added to the group's own slots one class after
    another.
    """
    n_slots = space.n_states * (C + 1)
    buf = np.empty(n_slots + 2, dtype=np.float64)
    buf[n_slots:] = (math.inf, 0.0)
    values = buf[:n_slots].reshape(space.n_states, C + 1)
    # honest-drawn branch: the whole value of the honest-only state, and the
    # start of every other state's sum
    np.add(space.mu_work[:, None], prev_row, out=values)
    D = len(space.classes)
    hits = np.empty(len(plan.key), dtype=bool) if decisions else None
    for m, take, weight, own, hit in plan.groups:
        cells = buf.take(take)  # (D + 1, cells): the abort candidates, then accepting
        # the cheaper of aborting and accepting; aborting wins where it is
        # below accepting
        contrib = np.minimum.reduce(cells, axis=0)
        if decisions:
            np.less(contrib, cells[-1], out=hits[hit])
        np.multiply(contrib, weight, out=contrib)
        acc = buf[own]
        for part in contrib.reshape(D, -1):  # class by class, as the reference adds
            np.add(acc, part, out=acc)
        np.divide(acc, m, out=acc)
    if not decisions:
        return values, None
    return values, np.sort(plan.key[np.flatnonzero(hits)])


def wide_rows(space: StateSpace, prev_row: np.ndarray, C: int,
             decisions: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The work-ordered slice and, with ``decisions``, the flat cell index of each hit.

    The work array is budget-major, shape ``(C + 2, n_states + 1)``: column
    ``w`` holds work row ``w``, row ``1 + c`` budget ``c`` and row 0 is
    ``inf``, so rows ``:-1`` of a gathered neighbour are its values one
    budget unit lower, and an abort with no budget left never wins; column
    ``n_states`` is the all-``inf`` sentinel.  Each operation on a group so
    runs over its states, which are contiguous, rather than over the few
    budgets.
    """
    inf = math.inf
    D = len(space.classes)
    work = np.empty((C + 2, space.n_states + 1), dtype=np.float64)
    work[0] = inf
    work[:, -1] = inf
    # honest-drawn branch: the whole value of the honest-only state, and the
    # start of every other state's sum
    np.add(space.mu_work, prev_row[:, None], out=work[1:, :-1])
    # hits[row, d, c]: aborting beats accepting in that cell
    hits = np.empty((space.n_states, D, C + 1), dtype=bool) if decisions else None
    for m, lo, hi, nbr, k, empty, shared in space.plan:
        near = work.take(nbr, axis=1)  # (C + 2, D, g): the pool without one class-d member
        lower, accept = near[:-1], near[1:]
        # abort in place of a class-d draw: the best of the other classes,
        # or of all classes when class d has a member besides the drawn one
        abort = np.full(lower.shape, inf)
        for d in range(1, D):  # best of the classes before d
            np.minimum(abort[:, d - 1], lower[:, d - 1], out=abort[:, d])
        for d in range(D - 2, -1, -1):  # and of the classes after d
            rest = lower[:, D - 1] if d == D - 2 else np.minimum(rest, lower[:, d + 1])
            np.minimum(abort[:, d], rest, out=abort[:, d])
        np.minimum(abort, lower, out=abort, where=shared)
        if decisions:
            np.less(abort, accept, out=hits[lo:hi].transpose(2, 1, 0))
        # the cheaper of accepting and aborting, weighted by the class's count
        contrib = np.minimum(accept, abort, out=abort)
        np.copyto(contrib, 0.0, where=empty)
        contrib *= k
        acc = work[1:, lo:hi]
        for d in range(D):
            acc = acc + contrib[:, d]
        np.divide(acc, m, out=work[1:, lo:hi])
    values = work[1:, :-1].T
    if not decisions:
        return values, None
    # an empty class's accept is the sentinel inf, so it must not count as a
    # hit; this also clears row 0, the honest-alone state, which no group fills
    hits &= ~space.empty.T[:, :, None]
    return values, np.flatnonzero(hits)


def decision_record(space: StateSpace, values: np.ndarray, cells: np.ndarray, C: int) -> tuple:
    """The decision record of the ascending hit ``cells`` of a work-ordered slice."""
    D = len(space.classes)
    size = space.n_states * D * (C + 1)
    row, d, c = np.unravel_index(cells, (space.n_states, D, C + 1))
    # abort from the lowest-index class whose value one unit lower is the
    # minimum among the classes that keep a member besides the drawn one
    # (a hit has c >= 1: an abort with no budget left never wins)
    sid = space.order[row][:, None]
    counts = sid // space.strides % (space.totals + 1)
    counts -= d[:, None] == np.arange(D)  # the drawn player is set aside
    near = values[space.work_row[np.maximum(sid - space.strides, 0)], c[:, None] - 1]
    lower = np.where(counts > 0, near, math.inf)
    classes = lower.argmin(axis=1) if D else np.empty(0, dtype=np.intp)  # one player: no cell
    return (np.append(cells, size).astype(np.min_scalar_type(size)),
            np.append(classes, -1).astype(np.min_scalar_type(-D - 1)))
