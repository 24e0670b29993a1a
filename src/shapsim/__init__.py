"""shapsim: secure distributed Shapley-allocation protocols, simulated.

A library for coalitional-game allocation protocols built on jointly
generated random permutations: exact Shapley analysis, commit-reveal
permutation generation under rushing adversaries with violation budgets,
stopping rules for expected and high-probability reward guarantees, and the
budget-optimal adversary computed by dynamic programming.
"""

from .adversaries import (
    Adversary,
    BlockAttackAdversary,
    Budget,
    CyclicShiftAdversary,
    EagerAbortAdversary,
    PassiveAdversary,
)
from .builtin_games import (
    collab_stand_in_hypergraph,
    make_collab_game,
    make_lb_game,
    make_max_gamma_game,
    make_pair_game,
    make_synergy_game,
)
from .dp import (
    DPAdversary,
    DPTable,
    ParallelRunStats,
    StateCapExceeded,
    dp_build,
    parallel_runs,
)
from .games import (
    ClosedForms,
    Game,
    ShapleyReport,
    as_mask,
    is_supermodular,
    marginal_contribution,
    mask_dtype,
    rank_expectation,
    shapley_exact,
    shapley_via_permutations,
)
from .hypergraph import Hypergraph, HypergraphFormatError, load_hypergraph, parse_hypergraph
from .protocols import (
    PhaseView,
    ProtocolInfeasible,
    PSampleOutcome,
    naive_perm,
    rand_elim,
    seq_perm,
)
from .runner import (
    RunRecord,
    SampleCapExceeded,
    StoppingRule,
    run_adaptive,
    run_allocation,
    run_many,
)
from .streams import substream

__version__ = "0.1.0"
