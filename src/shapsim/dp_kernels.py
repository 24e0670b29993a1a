"""Row kernels of the optimal-adversary table: every pool state at one ``T``.

:func:`row_kernel` picks a game's kernel and builds its plan once.  Games
with at most ``FLAT_MAX_CLASSES`` classes take :func:`flat_rows`, a
state-major kernel over a per-``C`` gather plan; wider ones
:func:`wide_rows`, a budget-major kernel over the slot plan, in which each
state lists only the classes its pool holds.  Both abort to the best
neighbour one budget unit lower, the rule stated and proved in
:mod:`shapsim.dp`.  With decisions a kernel also emits each cell where
aborting strictly beats accepting, with the class it aborts from: the
lowest class index attaining that neighbour.

Scratch memory belongs to the plan: the wide plan (:class:`WidePlan`)
holds one gather buffer and one hit buffer, sized for its largest size
group and overwritten group by group by every row, so a row maps no fresh
pages for its gathers.  The slice and the record a row returns are always
freshly allocated, and a later row never overwrites them.  Each gather
writes into the buffer with ``mode="clip"``: with ``out=``, ``"raise"``
first gathers into a temporary and copies it over, and ``"clip"`` never
clips, because :func:`build_wide_plan` refuses a neighbour outside the
work array.  The flat kernel allocates per row: reusing its buffers made
narrow tables with decisions slower.
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

    Each array has shape ``(J, g)``: slot ``j`` of the group's ``s``-th state
    stands for class ``cls[j, s]``, ``nbr`` is the work row of the pool with
    one member of that class removed (``n_states`` when the class is empty),
    ``k`` the class's remaining count and ``empty`` the mask ``k == 0``.  In
    the class plan (:func:`_class_plan`) slot ``j`` is class ``j`` and
    ``cls`` is ``None``; in the slot plan (:func:`slot_plan`) the slots are a
    state's occupied classes in class order, then empty padding.
    """

    m: int
    lo: int
    hi: int
    cls: np.ndarray | None
    nbr: np.ndarray
    k: np.ndarray
    empty: np.ndarray


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
        yield SizeGroup(m, lo, hi, None, nbr, k, k == 0)


def slot_plan(space: StateSpace) -> tuple[SizeGroup, ...]:
    """The budget-major kernel's plan: each state's occupied classes, in class order."""
    groups = []
    for m, lo, hi, _, nbr, k, empty in _class_plan(space):
        # a state's occupied classes in class order, then its empty ones
        cls = np.argsort(empty, axis=0, kind="stable")[:int((~empty).sum(axis=0).max())]
        k = np.take_along_axis(k, cls, axis=0)
        groups.append(SizeGroup(m, lo, hi, cls.astype(np.min_scalar_type(len(nbr))),
                                np.take_along_axis(nbr, cls, axis=0), k, k == 0))
    return tuple(groups)


def row_kernel(space: StateSpace, C: int) -> Callable:
    """The row function of ``space`` for budgets ``0..C``, over a plan built here once.

    ``row(prev_row, decisions=False)`` returns the slice at one ``T`` in
    work order, shape ``(n_states, C + 1)`` (row ``w`` is state
    ``space.order[w]``, the full pool last), from the previous full-pool
    boundary row, and with ``decisions`` its decision record (see
    :class:`shapsim.dp.DPTable`), else ``None``.  Every value equals the
    per-state reference builder's in the test oracles bit for bit: each
    cell's minimum is the reference's by the best-neighbour rule, and each
    state's sum adds the same terms in the same order.  The rule needs
    ``prev_row`` to fall in budget, so a row that rises raises
    ``ValueError``.  The slice and the record are fresh arrays that no later
    row touches; any scratch belongs to the plan and is reused by every
    row, so one row function must not build two rows at once.
    """
    if len(space.classes) <= FLAT_MAX_CLASSES:
        kernel, plan = flat_rows, build_flat_plan(space, C)
    else:
        kernel, plan = wide_rows, build_wide_plan(space, C)

    def row(prev_row: np.ndarray, decisions: bool = False) -> tuple[np.ndarray, tuple | None]:
        budgets = prev_row.tolist()
        if budgets != sorted(budgets, reverse=True):  # the abort rule needs a falling row
            raise ValueError("prev_row rises in budget")
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
    ``(m, take, weight, own, hit)`` per group.  Row ``j < D`` of ``take``,
    shape ``(D + 1, cells)``, reads class ``j``'s neighbour one budget unit
    lower (``inf`` at ``c = 0`` or where the class is empty), and row ``D``
    the drawn class's neighbour (accepting); a cell whose drawn class is
    empty reads the zero slot in every row.  ``weight`` is the drawn
    class's count per cell, ``own`` the slice of the group's slots and
    ``hit`` that of its cells in a row's hit array; ``key`` maps each hit
    position to its flat cell index in a decision record (see
    :class:`shapsim.dp.DPTable`), and ``cand[j, w] + c`` is the slot of
    class ``j``'s neighbour of work row ``w`` at budget ``c - 1``.
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
    # the honest-alone state, work row 0, is in no group and has no cells
    groups, keys, cands, h0 = [], [], [np.full((D, 1), inf_slot - 1)], 0
    for m, lo, hi, _, nbr, k, empty in _class_plan(space):
        # plus c >= 1: class j's slot at budget c - 1 (an inf slot if empty)
        cand = np.where(empty, inf_slot - 1, nbr.astype(np.intp) * C1 - 1)
        lower = np.where(budget >= 1, cand[..., None] + budget, inf_slot)  # (D, g, C + 1)
        accept = cand[..., None] + 1 + budget
        rows = np.broadcast_to(lower[:, None], (D,) + accept.shape)  # the same for each drawn class
        take = np.where(empty[:, :, None], zero_slot,
                        np.concatenate([rows, accept[None]])).reshape(D + 1, -1)
        weight = np.repeat(k[:, :, None].astype(np.float64), C1, axis=2).ravel()
        h1 = h0 + len(weight)
        groups.append((float(m), take, weight, slice(lo * C1, hi * C1), slice(h0, h1)))
        keys.append(((np.arange(lo, hi)[:, None] * D + np.arange(D)[:, None, None]) * C1
                     + budget).ravel())
        cands.append(cand)
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
    all cells, and each hit's class is the first of its state's neighbours,
    read again from the buffer, to reach their minimum.
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
    classes = np.zeros(len(cells), dtype=np.intp)
    if D > 1:  # with one class, no abort beats accepting
        pair, c = np.divmod(cells, C + 1)  # pair: work row * D + drawn class
        near = buf[plan.cand[:, pair // D] + c]  # (D, hits): each hit's neighbours in class order
        best = near[0]
        for j in range(1, D):  # the lowest class attaining the best neighbour
            below = near[j] < best
            classes[below] = j
            best = np.where(below, near[j], best)
    return values, (cells, classes)


class WidePlan(NamedTuple):
    """The budget-major kernel's slot plan and the scratch its rows reuse.

    ``groups`` is :func:`slot_plan`'s.  ``gather`` is float64 room for the
    largest group's ``(C + 1, J, g)`` gather and ``hits`` bool room for its
    ``(g, J, C)`` hit mask; every row overwrites both, group by group.
    """

    groups: tuple[SizeGroup, ...]
    gather: np.ndarray
    hits: np.ndarray


def build_wide_plan(space: StateSpace, C: int) -> WidePlan:
    """The :class:`WidePlan` of ``space`` for budgets ``0..C``.

    Raises ``ValueError`` if a neighbour lies outside the work array's
    ``n_states + 1`` columns, the check that lets each row gather unchecked.
    """
    groups = slot_plan(space)
    if any(np.any((nbr < 0) | (nbr > space.n_states)) for *_, nbr, _, _ in groups):
        raise ValueError("a slot's neighbour lies outside the work array")
    cells = max((nbr.size for *_, nbr, _, _ in groups), default=0)
    return WidePlan(groups, np.empty((C + 1) * cells), np.empty(C * cells, dtype=bool))


def wide_rows(space: StateSpace, plan: WidePlan, prev_row: np.ndarray, C: int,
             decisions: bool) -> tuple[np.ndarray, tuple | None]:
    """The work-ordered slice and, with ``decisions``, its hit cells and their classes.

    The work array is budget-major, shape ``(C + 1, n_states + 1)``: column
    ``w`` holds work row ``w`` at each budget and column ``n_states`` is the
    all-``inf`` sentinel, so each operation on a group runs over its states,
    which are contiguous, rather than over the few budgets.  Over the slot
    plan (:func:`slot_plan`) padding reads the sentinel and adds zero, so the
    minimum and the sum are those over the state's classes in class order.
    At ``c >= 1`` every slot's abort is the best neighbour one budget unit
    lower (the rule in :mod:`shapsim.dp`); at ``c = 0`` every slot accepts.
    """
    D, C1 = len(space.classes), C + 1
    work = np.empty((C1, space.n_states + 1), dtype=np.float64)
    work[:, -1] = math.inf
    # honest-drawn branch: the whole value of the honest-only state, and the
    # start of every other state's sum
    np.add(space.mu_work, prev_row[:, None], out=work[:, :-1])
    found, classes = [], []
    for m, lo, hi, cls, nbr, k, empty in plan.groups:
        # (C + 1, J, g), in the plan's scratch: the pool without one slot-j
        # member; the plan build checked every index, so "clip" never clips
        near = plan.gather[:C1 * nbr.size].reshape((C1,) + nbr.shape)
        work.take(nbr, axis=1, out=near, mode="clip")
        best = np.minimum.reduce(near[:-1], axis=1)  # (C, g): the abort at budgets 1..C
        if decisions:
            # hit[s, j, c - 1], state-major: ascending cells, as the slots are in class order
            hit = plan.hits[:nbr.size * C].reshape((hi - lo, len(nbr), C))
            hit[...] = False  # a padding slot's accept is the sentinel inf: never a hit
            np.less(best[:, None], near[1:], out=hit.transpose(2, 1, 0), where=~empty)
            s, j, c = np.unravel_index(np.flatnonzero(hit), hit.shape)
            found.append(((lo + s) * D + cls[j, s]) * C1 + c + 1)
            classes.append(cls[near[c, :, s].argmin(axis=1), s])
        # the cheaper of accepting and aborting, weighted by the class's count;
        # a padding slot's is finite at c >= 1 and weighs 0, but inf at c = 0
        np.minimum(near[1:], best[:, None], out=near[1:])
        np.copyto(near[0], 0.0, where=empty)
        near *= k
        acc = work[:, lo:hi]
        for part in near.transpose(1, 0, 2):  # slot by slot, as the reference adds
            np.add(acc, part, out=acc)
        np.divide(acc, m, out=acc)
    values = work[:, :-1].T
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
