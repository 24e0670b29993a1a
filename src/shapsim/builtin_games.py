"""Named game constructions used throughout the protocol experiments.

Each constructor evaluates the utility in closed form on a subset mask, so
simulations scale to hundreds of players even though exhaustive Shapley
computation is capped much lower.  Closed-form Shapley vectors are derived
with exact rational arithmetic and converted to floats at the boundary.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .games import ClosedForms, Game, as_mask
from .hypergraph import Hypergraph


def make_pair_game(n: int, i_star: int = 0, j_star: int = 1) -> Game:
    """Two designated players share a reward of 2 when both are present.

    ``v(S) = 2`` iff both special players are in ``S``, else 0.  Shapley
    values: 1 for each special player, 0 for everyone else.
    """
    if n < 2:
        raise ValueError("pair game needs n >= 2")
    if i_star == j_star:
        raise ValueError("the two special players must differ")
    if not (0 <= i_star < n and 0 <= j_star < n):
        raise ValueError("special players out of range")
    pair_mask = (1 << i_star) | (1 << j_star)

    def v(mask: int) -> float:
        return 2.0 if (mask & pair_mask) == pair_mask else 0.0

    phi = [0.0] * n
    u_max = [0.0] * n
    phi[i_star] = phi[j_star] = 1.0
    u_max[i_star] = u_max[j_star] = 2.0
    rest = tuple(p for p in range(n) if p not in (i_star, j_star))
    classes = ((i_star,), (j_star,)) + ((rest,) if rest else ())
    return Game(
        n=n,
        utility=v,
        name=f"pair(n={n})",
        symmetry_classes=classes,
        closed_forms=ClosedForms(phi=tuple(phi), u_max=tuple(u_max)),
        declared_monotone=True,
        extras={"i_star": i_star, "j_star": j_star},
    )


def make_max_gamma_game(n: int) -> Game:
    """Unanimity-style game whose max-to-mean ratio meets the monotone cap.

    A fixed pivot set ``S0`` of size ``floor((n-1)/2)`` gates the reward:
    ``v(S) = 1`` iff ``S`` is a proper superset of ``S0``.  Players outside
    ``S0`` attain ratio ``n * C(n-1, |S0|)``, the maximum over all monotone
    games.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    k = (n - 1) // 2
    s0_mask = (1 << k) - 1  # players 0..k-1

    def v(mask: int) -> float:
        return 1.0 if (mask & s0_mask) == s0_mask and mask != s0_mask else 0.0

    # Outside S0: contributes only when joining exactly S0.
    phi_out = Fraction(1, n * math.comb(n - 1, k))
    # Inside S0: contributes when joining (S0 minus itself) plus any
    # non-empty group of outsiders.
    phi_in = Fraction(0)
    for extra in range(1, n - k + 1):
        phi_in += Fraction(math.comb(n - k, extra), math.comb(n - 1, k - 1 + extra))
    phi_in /= n
    phi = tuple(float(phi_in) if p < k else float(phi_out) for p in range(n))
    u_max = tuple(1.0 for _ in range(n))
    classes = ((tuple(range(k)),) if k else ()) + (tuple(range(k, n)),)
    return Game(
        n=n,
        utility=v,
        name=f"max-gamma(n={n})",
        symmetry_classes=classes,
        closed_forms=ClosedForms(phi=phi, u_max=u_max),
        declared_monotone=True,
        extras={"pivot_size": k},
    )


def make_lb_game(n: int) -> Game:
    """Supermodular game with near-top rewards concentrated on a core half.

    Players: one designated player 0, a core group ``Q = {1..n/2}``, and
    ``n/2 - 1`` outsiders.  With ``a = 2n(n-1)/(3n-2)``: the grand coalition
    is worth ``2a``; dropping exactly one member of ``{0} | Q`` leaves ``a``;
    everything else is worth 0.  Player 0 has Shapley value exactly 1 and
    maximum marginal contribution ``a``.

    ``protocol_gamma`` is declared as ``n``: the ratio the construction is
    conventionally analyzed with, and the default the experiment drivers use
    when sizing sample counts.  The exhaustive ratio is smaller,
    ``4n(n-1)/(5n-2)`` (attained by the outsiders, whose maximum marginal
    contribution is ``2a``); both are exposed so either convention is
    reproducible.
    """
    if n < 4 or n % 2:
        raise ValueError("need even n >= 4")
    alpha = Fraction(2 * n * (n - 1), 3 * n - 2)
    alpha_f = float(alpha)
    half = n // 2
    core_mask = (1 << (half + 1)) - 1  # players 0..n/2 = {0} | Q
    full = (1 << n) - 1

    def v(mask: int) -> float:
        if mask == full:
            return 2.0 * alpha_f
        missing = full ^ mask
        if missing & (missing - 1) == 0 and (missing & core_mask):
            return alpha_f
        return 0.0

    phi_core = 1.0
    phi_out = float(Fraction(5 * n - 2, 3 * n - 2))
    phi = tuple(phi_core if p <= half else phi_out for p in range(n))
    u_max = tuple(alpha_f if p <= half else 2.0 * alpha_f for p in range(n))
    q = tuple(range(1, half + 1))
    outsiders = tuple(range(half + 1, n))
    return Game(
        n=n,
        utility=v,
        name=f"lb(n={n})",
        symmetry_classes=((0,), q) + ((outsiders,) if outsiders else ()),
        closed_forms=ClosedForms(phi=phi, u_max=u_max),
        protocol_gamma=float(n),
        declared_monotone=True,
        extras={"i_star": 0, "Q": frozenset(q), "alpha": alpha_f},
    )


def make_synergy_game(
    h: Hypergraph,
    symmetry_classes: tuple[tuple[int, ...], ...] | None = None,
) -> Game:
    """Edge synergy game: a coalition earns the edges it fully contains.

    ``v(S)`` is the total weight of hyperedges inside ``S``.  Supermodular;
    Shapley value of a vertex is ``sum_e w_e / |e|`` over its incident edges
    and the max-to-mean ratio is bounded by the largest edge size.  An empty
    hypergraph yields the all-zero game.

    Symmetry classes are caller-declared (constructors never infer them).
    The game carries a vectorised oracle, so :meth:`Game.values` evaluates
    an array of masks edge by edge rather than mask by mask.
    """
    n = h.n
    edges = tuple((as_mask(verts), float(w), len(verts)) for verts, w in h.edges)

    def v(mask: int) -> float:
        total = 0.0
        for emask, w, _ in edges:
            if mask & emask == emask:
                total += w
        return total

    def values(masks):
        # edge by edge in v's order, adding each weight where v adds it
        total = np.zeros(len(masks))
        for emask, w, _ in edges:
            np.add(total, w, out=total, where=masks & emask == emask)
        return total

    phi = [0.0] * n
    u_max = [0.0] * n
    for emask, w, size in edges:
        for p in range(n):
            if emask >> p & 1:
                phi[p] += w / size
                u_max[p] += w
    return Game(
        n=n,
        utility=v,
        bulk_utility=values,
        name=f"synergy(n={n},m={len(edges)})",
        symmetry_classes=symmetry_classes,
        closed_forms=ClosedForms(phi=tuple(phi), u_max=tuple(u_max)),
        declared_monotone=True,
        extras={"hypergraph": h},
    )


# Synthetic stand-in for the collaboration network used in the sampling
# experiments: vertex 0 is the designated author with 8 publications and 13
# distinct collaborators, giving it weighted degree 8, Shapley value 38/15,
# and max-to-mean ratio 60/19 = 3.1578947...  Side edges among collaborators
# keep every other ratio strictly below that, so the overall ratio equals
# 60/19.  This is a reconstruction matching published degree statistics, not
# real collaboration data.
_COLLAB_PUBLICATIONS = (
    (1.0, (0, 1)),
    (1.0, (0, 2)),
    (1.0, (0, 3, 4)),
    (1.0, (0, 5, 6)),
    (1.0, (0, 1, 2)),
    (1.0, (0, 7, 8, 9, 10)),
    (1.0, (0, 3, 5, 7, 11, 12)),
    (1.0, (0, 4, 6, 8, 13, 1)),
)
_COLLAB_SIDE_EDGES = (
    (1.0, (3, 4)),
    (1.0, (5, 6)),
    (2.0, (7, 8)),
    (1.0, (9, 10)),
    (1.0, (11, 12)),
    (1.0, (9, 13)),
)
COLLAB_CORE_SIZE = 14


def collab_stand_in_hypergraph(n_total: int = COLLAB_CORE_SIZE) -> Hypergraph:
    """The reconstruction hypergraph, padded with isolated vertices to ``n_total``."""
    if n_total < COLLAB_CORE_SIZE:
        raise ValueError(f"need n_total >= {COLLAB_CORE_SIZE}")
    edges = tuple(
        (frozenset(verts), w) for w, verts in _COLLAB_PUBLICATIONS + _COLLAB_SIDE_EDGES
    )
    return Hypergraph(n=n_total, edges=edges)


def make_collab_game(n_total: int = COLLAB_CORE_SIZE) -> Game:
    """Synergy game on the collaboration reconstruction, honest vertex 0."""
    h = collab_stand_in_hypergraph(n_total)
    singles = tuple((p,) for p in range(COLLAB_CORE_SIZE))
    padding = tuple(range(COLLAB_CORE_SIZE, n_total))
    classes = singles + ((padding,) if padding else ())
    game = make_synergy_game(h, symmetry_classes=classes)
    game.extras["i_star"] = 0
    return game
