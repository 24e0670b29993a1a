"""Row kernels of the optimal-adversary table: every pool state at one ``T``.

:func:`row_kernel` picks a game's kernel and builds its plan once.  Games
with at most ``FLAT_MAX_CLASSES`` classes take :func:`flat_rows`, a
state-major kernel over a per-``C`` gather plan; wider ones
:func:`wide_rows`, a budget-major kernel over the slot plan, in which each
state lists only the classes its pool holds.  With decisions a kernel also
emits each cell where aborting strictly beats accepting, with the class it
aborts from: the lowest class index among the tied minima of the abort
candidates, the rule of :meth:`shapsim.dp.DPTable.abort_class`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .dp import StateSpace

# Games with at most this many classes take the flat row kernel.  It gathers
# D + 1 values per (drawn class, state, budget) cell, so its plan grows as D
# squared: at D = 14 (collab20, C = 2) the plan takes about 300 MB and a row
# five to six times as long as with the budget-major kernel.
FLAT_MAX_CLASSES = 3


class SizeGroup(NamedTuple):
    """Gather plan of the ``g`` pool states with ``m`` players, work rows ``lo:hi``.

    Each array has shape ``(J, g)``, indexed by slot ``j``, then state: slot
    ``j`` of the group's ``s``-th state stands for class ``cls[j, s]``.
    ``nbr`` is the work row of the pool with one member of that class
    removed, or ``n_states`` when the class is empty; ``k`` is the class's
    remaining count and ``empty`` / ``shared`` are the masks ``k == 0`` /
    ``k >= 2``.  In the class plan (:func:`_class_plan`) slot ``j`` is class
    ``j`` for every state, ``J = D`` and ``cls`` is ``None``.  In the slot
    plan (:func:`slot_plan`) slot ``j`` is a state's ``j``-th occupied class
    in ascending class order and ``J`` is the most occupied classes among
    the group's states; a state with fewer has padding slots, empty
    classes, which read the ``inf`` sentinel and weigh 0.
    """

    m: int
    lo: int
    hi: int
    cls: np.ndarray | None
    nbr: np.ndarray
    k: np.ndarray
    empty: np.ndarray
    shared: np.ndarray


def _class_plan(space: StateSpace) -> Iterator[SizeGroup]:
    """Each non-empty size group's gathers over every class, smallest pools first.

    The honest-alone state, work row 0, is in no group.
    """
    totals, n_states = space.totals, space.n_states
    count_type = np.min_scalar_type(int(totals.max(initial=0)))
    col_strides, col_radix = space.strides[:, None], totals[:, None] + 1
    for m in range(2, space.game.n + 1):
        lo, hi = space.starts[m - 1], space.starts[m]
        if lo == hi:
            continue
        group = space.order[lo:hi]
        k = (group // col_strides % col_radix).astype(count_type)
        nbr = np.where(k >= 1, space.work_row[np.maximum(group - col_strides, 0)],
                       n_states).astype(space.work_row.dtype)
        yield SizeGroup(m, lo, hi, None, nbr, k, k == 0, k >= 2)


def slot_plan(space: StateSpace) -> tuple[SizeGroup, ...]:
    """The budget-major kernel's plan: each state's occupied classes, in class order."""
    groups = []
    for m, lo, hi, _, nbr, k, empty, _ in _class_plan(space):
        # a state's occupied classes in class order, then its empty ones
        cls = np.argsort(empty, axis=0, kind="stable")[:int((~empty).sum(axis=0).max())]
        k = np.take_along_axis(k, cls, axis=0)
        groups.append(SizeGroup(m, lo, hi, cls.astype(np.min_scalar_type(len(nbr))),
                                np.take_along_axis(nbr, cls, axis=0), k, k == 0, k >= 2))
    return tuple(groups)


def row_kernel(space: StateSpace, C: int) -> Callable:
    """The row function of ``space`` for budgets ``0..C``, over a plan built here once.

    ``row(prev_row, decisions=False)`` returns the slice at one ``T`` in
    work order, shape ``(n_states, C + 1)`` (row ``w`` is state
    ``space.order[w]``, the full pool last), from the previous full-pool
    boundary row, and with ``decisions`` its decision record (see
    :class:`shapsim.dp.DPTable`), else ``None``.  Every value equals the
    per-state reference builder's in the test oracles bit for bit: each
    abort value is a minimum over the same classes, and each state's sum
    adds the same terms in the same order.
    """
    if len(space.classes) <= FLAT_MAX_CLASSES:
        kernel, plan = flat_rows, build_flat_plan(space, C)
    else:
        kernel, plan = wide_rows, slot_plan(space)

    def row(prev_row: np.ndarray, decisions: bool = False) -> tuple[np.ndarray, tuple | None]:
        values, hits = kernel(space, plan, prev_row, C, decisions)
        return values, None if hits is None else decision_record(space, *hits, C)

    return row


class FlatPlan(NamedTuple):
    """Gathers of the flat kernel for budgets ``0..C``.

    The kernel's buffer is state-major: slot ``w * (C + 1) + c`` holds work
    row ``w`` at budget ``c``; the zero slot and then ``C + 1`` ``inf``
    slots follow.  A size group's cells are its (drawn class ``d``, state,
    budget ``c``) triples, class-major, so each class's cells are one
    contiguous run in the order of the group's own slots.  ``groups`` holds
    ``(m, take, weight, own, hit)`` per group.  ``take``, shape
    ``(D + 1, cells)``, gathers one value per cell in each row:

    * rows ``0..D-1``: the abort candidates in class order, class ``j``'s
      value one budget unit lower, ``inf`` where that class is empty; the
      drawn class's own row is ``inf`` unless the class keeps a member
      besides the drawn one (``k >= 2``);
    * row ``D``: the value with the drawn class-``d`` member removed
      (accepting).

    A value one unit lower at ``c = 0`` is ``inf``, and every row of a cell
    whose drawn class is empty reads the zero slot, so that cell adds
    nothing and never beats accepting.  ``weight`` is the drawn class's
    count per cell, ``own`` the slice of the group's slots and ``hit`` that
    of its cells in a row's hit array; ``key`` maps each hit position to its
    flat cell index in a decision record (see :class:`shapsim.dp.DPTable`),
    and ``cand[j, w * D + d] + c`` is the slot that row ``j`` of ``take``
    reads for the cell of work row ``w``, drawn class ``d`` and budget
    ``c >= 1``.
    """

    groups: tuple
    key: np.ndarray
    cand: np.ndarray


def build_flat_plan(space: StateSpace, C: int) -> FlatPlan:
    """The :class:`FlatPlan` of ``space`` for budgets ``0..C``."""
    D, C1 = len(space.classes), C + 1
    zero_slot = space.n_states * C1
    inf_slot = zero_slot + 1
    budget = np.arange(C1)
    own_row = (np.arange(D), np.arange(D))
    # the honest-alone state, work row 0, is in no group and has no cells
    groups, keys, cands, h0 = [], [], [np.full((D, D), inf_slot - 1)], 0
    for m, lo, hi, _, nbr, k, empty, shared in _class_plan(space):
        # plus c >= 1: class j's slot at budget c - 1 (an inf slot if empty)
        base = np.where(empty, inf_slot - 1, nbr.astype(np.intp) * C1 - 1)
        cand = np.repeat(base[:, None], D, axis=1)  # cand[j, d, s]: candidate j, class d drawn
        cand[own_row] = np.where(shared, base, inf_slot - 1)
        rows = np.where(budget >= 1, cand[..., None] + budget, inf_slot)
        accept = base[..., None] + 1 + budget
        take = np.where(empty[:, :, None], zero_slot,
                        np.concatenate([rows, accept[None]])).reshape(D + 1, -1)
        weight = np.repeat(k[:, :, None].astype(np.float64), C1, axis=2).ravel()
        h1 = h0 + len(weight)
        groups.append((float(m), take, weight, slice(lo * C1, hi * C1), slice(h0, h1)))
        keys.append(((np.arange(lo, hi)[:, None] * D + np.arange(D)[:, None, None]) * C1
                     + budget).ravel())
        cands.append(cand.transpose(0, 2, 1).reshape(D, -1))
        h0 = h1
    return FlatPlan(tuple(groups), np.concatenate(keys) if keys else np.empty(0, np.intp),
                    np.concatenate(cands, axis=1))


def flat_rows(space: StateSpace, plan: FlatPlan, prev_row: np.ndarray, C: int,
             decisions: bool) -> tuple[np.ndarray, tuple | None]:
    """The work-ordered slice and, with ``decisions``, its hit cells and their classes.

    The buffer is :class:`FlatPlan`'s: state-major, then the zero and
    ``inf`` sentinel slots.  A group is one gather of its ``D + 1`` rows of
    cells and a few operations on contiguous 1-D blocks: the minimum over the
    rows is the cheaper of aborting and accepting, and it is weighted by the
    class's count and added to the group's own slots one class after
    another.  The hits are put in cell order by a scatter into a mask over
    all cells, and each hit's class is the first of its candidates, read
    again from the buffer, to reach their minimum.
    """
    n_slots = space.n_states * (C + 1)
    buf = np.empty(n_slots + C + 2, dtype=np.float64)
    buf[n_slots] = 0.0
    buf[n_slots + 1:] = math.inf
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
    in_order = np.zeros(space.n_states * D * (C + 1), dtype=bool)
    in_order[plan.key[hits]] = True
    cells = np.flatnonzero(in_order)
    classes = np.zeros(len(cells), dtype=np.intp)  # with one class, every hit aborts from it
    if D > 1:
        pair, c = np.divmod(cells, C + 1)
        near = buf[plan.cand[:, pair] + c]  # (D, hits): each hit's candidates in class order
        best = near[0]
        for j in range(1, D):  # the lowest class among the tied minima
            below = near[j] < best
            classes[below] = j
            best = np.where(below, near[j], best)
    return values, (cells, classes)


def wide_rows(space: StateSpace, slots: tuple[SizeGroup, ...], prev_row: np.ndarray, C: int,
             decisions: bool) -> tuple[np.ndarray, tuple | None]:
    """The work-ordered slice and, with ``decisions``, its hit cells and their classes.

    The work array is budget-major, shape ``(C + 2, n_states + 1)``: column
    ``w`` holds work row ``w``, row ``1 + c`` budget ``c`` and row 0 is
    ``inf``, so rows ``:-1`` of a gathered neighbour are its values one
    budget unit lower, and an abort with no budget left never wins; column
    ``n_states`` is the all-``inf`` sentinel.  Each operation on a group so
    runs over its states, which are contiguous, rather than over the few
    budgets.  Over the slot plan (:func:`slot_plan`) padding reads the
    sentinel and adds zero, so the minima and the sum are those over the
    state's classes in class order.  A hit's class is that of the lowest
    slot among the tied minima of its candidates.
    """
    inf = math.inf
    D, C1 = len(space.classes), C + 1
    work = np.empty((C + 2, space.n_states + 1), dtype=np.float64)
    work[0] = inf
    work[:, -1] = inf
    # honest-drawn branch: the whole value of the honest-only state, and the
    # start of every other state's sum
    np.add(space.mu_work, prev_row[:, None], out=work[1:, :-1])
    found, classes = [], []
    for m, lo, hi, cls, nbr, k, empty, shared in slots:
        J = len(nbr)
        near = work.take(nbr, axis=1)  # (C + 2, J, g): the pool without one slot-j member
        lower, accept = near[:-1], near[1:]
        # abort in place of a slot-j draw: the best of the other slots, or
        # of all slots when slot j's class has a member besides the drawn one
        abort = np.empty(lower.shape)
        abort[:, 0] = inf
        for j in range(1, J):  # best of the slots before j
            np.minimum(abort[:, j - 1], lower[:, j - 1], out=abort[:, j])
        for j in range(J - 2, -1, -1):  # and of the slots after j
            rest = lower[:, J - 1] if j == J - 2 else np.minimum(rest, lower[:, j + 1])
            np.minimum(abort[:, j], rest, out=abort[:, j])
        np.minimum(abort, lower, out=abort, where=shared)
        if decisions:
            # hit[s, j, c], state-major: ascending cells, as the slots are in class order
            hit = np.empty((hi - lo, J, C1), dtype=bool)
            np.less(abort, accept, out=hit.transpose(2, 1, 0))
            hit &= ~empty.T[:, :, None]  # a padding slot's accept is the sentinel inf
            s, j, c = np.unravel_index(np.flatnonzero(hit), hit.shape)
            near_c = lower[c, :, s]  # (hits, J): the candidates of each hit
            other = ~shared[j, s]
            near_c[np.flatnonzero(other), j[other]] = inf
            found.append(((lo + s) * D + cls[j, s]) * C1 + c)
            classes.append(cls[near_c.argmin(axis=1), s])
        # the cheaper of accepting and aborting, weighted by the class's count;
        # a padding slot's is finite and weighs 0 at c >= 1, where some other
        # slot's value bounds its abort, but inf at c = 0, where no abort is
        contrib = np.minimum(accept, abort, out=abort)
        np.copyto(contrib[0], 0.0, where=empty)
        contrib *= k
        acc = work[1:, lo:hi]
        for j in range(J):
            np.add(acc, contrib[:, j], out=acc)
        np.divide(acc, m, out=acc)
    values = work[1:, :-1].T
    if not decisions:
        return values, None
    return values, (np.concatenate(found), np.concatenate(classes))


def decision_record(space: StateSpace, cells: np.ndarray, classes: np.ndarray, C: int) -> tuple:
    """The decision record of a slice's ascending hit ``cells`` and their abort ``classes``."""
    D = len(space.classes)
    size = space.n_states * D * (C + 1)
    record = []
    for part, sentinel, dtype in ((cells, size, np.min_scalar_type(size)),
                                  (classes, -1, np.min_scalar_type(-D - 1))):
        out = np.empty(len(part) + 1, dtype=dtype)
        out[:-1] = part
        out[-1] = sentinel
        record.append(out)
    return tuple(record)
