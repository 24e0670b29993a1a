import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from shapsim import (
    Adversary,
    Budget,
    CyclicShiftAdversary,
    PassiveAdversary,
    ProtocolInfeasible,
    naive_perm,
    rand_elim,
    seq_perm,
    substream,
)
from shapsim.protocols import _opens_to
from oracles import (BindingBreaker, CommitWitness, JunkAdversary, Malformer, RecordingAdversary,
                     ScriptedAdversary, as_draw, as_perm, malformed_commits, malformed_draws,
                     malformed_perms, opening_junk)


def passive(n, honest, seed=1):
    adv = PassiveAdversary()
    adv.reset(n=n, honest=honest, rng=substream(seed, "adversary"))
    return adv, substream(seed, "honest")


class IdentityRng:
    """Stands in for the honest stream with a fixed permutation."""

    def __init__(self, perm):
        self.perm = list(perm)

    def shuffle(self, x):
        x[:] = self.perm


class IdentityAdversary(PassiveAdversary):
    def commit_permutations(self, view, susceptible, m):
        return np.tile(np.arange(m), (len(susceptible), 1))


# --- full-permutation protocol ---------------------------------------------------

def test_identity_composition_gives_identity():
    adv = IdentityAdversary()
    adv.reset(n=4, honest=3, rng=substream(0, "adversary"))
    out = naive_perm([0, 1, 2, 3], 3, adv, IdentityRng([0, 1, 2, 3]))
    assert out.order == (0, 1, 2, 3)
    assert out.dev == frozenset()
    assert out.violations_used == 0


def test_outcome_counts_one_violation_per_detected_player():
    from shapsim.protocols import PSampleOutcome

    assert PSampleOutcome(order=(2, 0, 1), dev=frozenset({0, 2})).violations_used == 2


def test_outcome_is_immutable_and_built_either_way():
    from shapsim.protocols import PSampleOutcome

    dev = frozenset({0, 2})
    by_keyword = PSampleOutcome(order=(2, 0, 1), dev=dev)
    by_position = PSampleOutcome((2, 0, 1), dev)
    assert by_keyword == by_position
    assert by_position.order == (2, 0, 1) and by_position.dev is dev
    for name in ("order", "dev", "violations_used", "extra"):
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)
    assert by_position.violations_used == len(dev)
    assert getattr(by_position, "violations_used", 0) == 2  # how the benchmark's tracer reads it
    assert [by_position.rank_of(p) for p in (2, 0, 1)] == [1, 2, 3]
    with pytest.raises(ValueError):
        by_position.rank_of(7)


def test_naive_passive_uniform_small():
    adv, rng = passive(3, 2, seed=2)
    counts = Counter()
    trials = 30_000
    for _ in range(trials):
        counts[naive_perm([0, 1, 2], 2, adv, rng).order] += 1
    assert len(counts) == 6
    for freq in counts.values():
        assert abs(freq / trials - 1 / 6) < 0.01


def test_naive_output_is_permutation_of_active():
    adv, rng = passive(5, 4, seed=3)
    out = naive_perm([0, 2, 3, 4], 4, adv, rng)
    assert sorted(out.order) == [0, 2, 3, 4]


def test_naive_abort_keeps_player_in_output():
    adv = ScriptedAdversary({(0, 0): {1}})
    adv.reset(n=3, honest=2, rng=substream(4, "adversary"))
    out = naive_perm([0, 1, 2], 2, adv, substream(4, "honest"))
    assert out.dev == frozenset({1})
    assert out.violations_used == 1
    assert sorted(out.order) == [0, 1, 2]


def test_naive_requires_honest_in_active():
    adv, rng = passive(3, 0)
    with pytest.raises(ValueError):
        naive_perm([1, 2], 0, adv, rng)


# --- cyclic-shift attack -----------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5])
def test_cyclic_forces_rank_one_all_honest_permutations(n):
    adv = CyclicShiftAdversary(Budget.unlimited())
    adv.reset(n=n, honest=n - 1, rng=substream(5, "adversary"))
    for perm in itertools.permutations(range(n)):
        out = naive_perm(range(n), n - 1, adv, IdentityRng(perm))
        assert out.rank_of(n - 1) == 1
        assert len(out.dev) <= 1


def test_cyclic_zero_shift_needs_no_abort():
    n = 4
    adv = CyclicShiftAdversary(Budget.unlimited())
    adv.reset(n=n, honest=n - 1, rng=substream(6, "adversary"))
    seen_zero = False
    for perm in itertools.permutations(range(n)):
        out = naive_perm(range(n), n - 1, adv, IdentityRng(perm))
        if not out.dev:
            seen_zero = True
    assert seen_zero  # some honest opening already lands on rank 1


def test_cyclic_infeasible_unless_honest_composes_last():
    adv = CyclicShiftAdversary(Budget.unlimited())
    with pytest.raises(ProtocolInfeasible):
        adv.reset(n=4, honest=1, rng=substream(7, "adversary"))


def test_cyclic_budget_exhaustion_turns_passive():
    n = 3
    adv = CyclicShiftAdversary(Budget.known(1))
    adv.reset(n=n, honest=n - 1, rng=substream(8, "adversary"))
    rng = substream(8, "honest")
    total_dev = 0
    for _ in range(50):
        total_dev += len(naive_perm(range(n), n - 1, adv, rng).dev)
    assert total_dev == 1


# --- elimination round ---------------------------------------------------------------

def test_rand_elim_singleton():
    adv, rng = passive(1, 0)
    assert rand_elim([0], 0, adv, rng) == (0, frozenset())


def test_rand_elim_uniform():
    adv, rng = passive(4, 0, seed=9)
    counts = Counter()
    trials = 40_000
    for _ in range(trials):
        eliminated, dev = rand_elim([0, 1, 2, 3], 0, adv, rng)
        assert dev == frozenset()
        counts[eliminated] += 1
    for p in range(4):
        assert abs(counts[p] / trials - 0.25) < 0.01


def test_rand_elim_dev_smallest_index_eliminated():
    adv = ScriptedAdversary({(0, 0): {2, 3}})
    adv.reset(n=4, honest=0, rng=substream(10, "adversary"))
    eliminated, dev = rand_elim([0, 1, 2, 3], 0, adv, substream(10, "honest"))
    assert dev == frozenset({2, 3})
    assert eliminated == 2


def test_rand_elim_without_honest_member():
    adv, _ = passive(4, 0, seed=11)
    eliminated, dev = rand_elim([1, 2, 3], None, adv, substream(11, "honest"))
    assert eliminated in (1, 2, 3) and dev == frozenset()


@pytest.mark.parametrize("protocol", [rand_elim, seq_perm])
def test_pool_as_range_list_or_unsorted_tuple_gives_the_same_result(protocol):
    for seed in range(30):
        results = []
        for pool in (range(6), list(range(6)), (3, 0, 5, 1, 4, 2)):
            adv = RecordingAdversary()
            adv.reset(n=6, honest=2, rng=substream(35, seed, "adversary"))
            results.append((protocol(pool, 2, adv, substream(35, seed, "honest")),
                            [v.active_set for v in adv.commit_views]))
        assert results[0] == results[1] == results[2]
        assert results[0][1][0] == tuple(range(6))


# --- sequential permutation -----------------------------------------------------------

def test_seq_single_player():
    adv, rng = passive(1, 0)
    out = seq_perm([0], 0, adv, rng)
    assert out.order == (0,) and out.dev == frozenset()


def test_seq_passive_rank_uniform():
    adv, rng = passive(5, 0, seed=12)
    counts = Counter()
    trials = 50_000
    for _ in range(trials):
        counts[seq_perm(range(5), 0, adv, rng).rank_of(0)] += 1
    for rank in range(1, 6):
        assert abs(counts[rank] / trials - 0.2) < 0.01


def test_seq_multi_abort_fills_least_preferable_block():
    # first round aborts two players: they take ranks 1-2 in id order, the
    # remaining two are ranked by a further elimination round
    adv = ScriptedAdversary({(0, 0): {1, 3}})
    adv.reset(n=4, honest=0, rng=substream(13, "adversary"))
    out = seq_perm([0, 1, 2, 3], 0, adv, substream(13, "honest"))
    assert out.order[:2] == (1, 3)
    assert sorted(out.order[2:]) == [0, 2]
    assert out.dev == frozenset({1, 3})
    assert out.violations_used == 2


def test_seq_dev_blocks_contiguous_at_detection_point():
    adv = ScriptedAdversary({(0, 1): {2, 4}, (0, 3): {5}})
    adv.reset(n=6, honest=0, rng=substream(14, "adversary"))
    out = seq_perm(range(6), 0, adv, substream(14, "honest"))
    # whichever of {2, 4} survived round 0 fills ranks 2.. as one block, in
    # ascending id order at the detection point
    block = sorted({2, 4} - {out.order[0]})
    assert list(out.order[1:1 + len(block)]) == block
    assert out.dev >= frozenset(block)


@given(st.integers(0, 10_000), st.integers(2, 6))
def test_seq_output_always_bijection(seed, n):
    adv = PassiveAdversary()
    adv.reset(n=n, honest=0, rng=substream(seed, "adversary"))
    out = seq_perm(range(n), 0, adv, substream(seed, "honest"))
    assert sorted(out.order) == list(range(n))


# --- information-flow contracts ---------------------------------------------------------

def test_hiding_honest_value_never_visible_at_commit():
    adv = RecordingAdversary()
    adv.reset(n=4, honest=3, rng=substream(15, "adversary"))
    rng = substream(15, "honest")
    for _ in range(20):
        naive_perm(range(4), 3, adv, rng)
        seq_perm(range(4), 3, adv, rng)
    assert adv.commit_views and adv.open_views
    for view in adv.commit_views:
        assert view.honest_revealed is None
    for view in adv.open_views:
        if 3 in view.active_set:  # honest still participating
            assert view.honest_revealed is not None


def test_hiding_sentinel_leak():
    # rig the honest stream to a sentinel permutation; its bytes must not be
    # reachable from anything shown at commit time
    sentinel = [2, 0, 3, 1]
    adv = RecordingAdversary()
    adv.reset(n=4, honest=3, rng=substream(16, "adversary"))
    naive_perm(range(4), 3, adv, IdentityRng(sentinel))
    import dataclasses

    commit_view = adv.commit_views[0]
    assert commit_view.honest_revealed is None
    fields = [getattr(commit_view, f.name) for f in dataclasses.fields(commit_view)]
    assert not any(isinstance(x, np.ndarray) for x in fields)
    open_view = adv.open_views[0]
    assert list(open_view.honest_revealed) == sentinel


def test_binding_mismatched_opening_is_violation():
    adv = BindingBreaker({1})
    adv.reset(n=3, honest=2, rng=substream(17, "adversary"))
    out = naive_perm(range(3), 2, adv, substream(17, "honest"))
    assert 1 in out.dev

    adv = BindingBreaker({1})
    adv.reset(n=3, honest=0, rng=substream(18, "adversary"))
    eliminated, dev = rand_elim(range(3), 0, adv, substream(18, "honest"))
    assert dev == frozenset({1})
    assert eliminated == 1


class RecordEditor(PassiveAdversary):
    """Tries to rewrite the protocol-held record from inside an open hook.

    In ``open_permutations`` it edits one committed permutation in place,
    sending every slot to slot 0; in ``open_draws`` it replaces one
    committed draw, after seeing the honest draw, so that the sum
    eliminates the honest player.  Each refused edit is counted.

    With ``rebind`` the draw is replaced by rebinding the record's values
    slot with ``object.__setattr__``; the hook then opens the tampered
    record itself (``"record"``) or its ``copy()`` (``"copy"``).  ``forged``
    is the player whose draw it replaced and ``changed`` whether the forged
    draw differs from the committed one.
    """

    def __init__(self, rebind=None):
        super().__init__()
        self.rebind = rebind
        self.refused = 0

    def open_permutations(self, view, susceptible, commitments, m):
        try:
            commitments[min(commitments)][:] = 0
        except TypeError:
            self.refused += 1
        return commitments

    def open_draws(self, view, susceptible, commitments, k):
        if view.honest_revealed is None or not commitments:
            return commitments
        p = min(commitments)
        rest = view.honest_revealed + sum(v for q, v in commitments.items() if q != p)
        forged = (view.active_set.index(self.honest) - rest) % k
        if self.rebind is None:
            try:
                commitments[p] = forged
            except TypeError:
                self.refused += 1
            return commitments
        self.forged, self.changed = p, forged != commitments[p]
        values = tuple(forged if q == p else v for q, v in commitments.items())
        object.__setattr__(commitments, "_values", values)
        assert commitments[p] == forged and commitments.copy()[p] == forged  # the edit landed
        return commitments if self.rebind == "record" else commitments.copy()


def test_open_hook_cannot_rewrite_committed_permutations():
    editor, twin = RecordEditor(), PassiveAdversary()
    for adv in (editor, twin):
        adv.reset(n=4, honest=3, rng=substream(29, "adversary"))
    rngs = [substream(29, "honest"), substream(29, "honest")]
    for _ in range(200):
        out = naive_perm(range(4), 3, editor, rngs[0])
        assert out == naive_perm(range(4), 3, twin, rngs[1])  # order as committed
        assert out.dev == frozenset()
    assert editor.refused == 200


def test_open_hook_cannot_rewrite_committed_draws():
    trials = 20_000
    for size in range(2, 6):
        adv = RecordEditor()
        adv.reset(n=size, honest=0, rng=substream(30, "adversary", size))
        rng = substream(30, "honest", size)
        hits = 0
        for _ in range(trials):
            eliminated, dev = rand_elim(range(size), 0, adv, rng)
            assert dev == frozenset()
            hits += eliminated == 0
        bound = 1 / size
        assert hits / trials <= bound + 3 * math.sqrt(bound * (1 - bound) / trials), size
        assert adv.refused == trials


@pytest.mark.parametrize("rebind", ["record", "copy"])
def test_open_hook_that_rebinds_the_record_slots_changes_nothing(rebind):
    editor, twin = RecordEditor(rebind), PassiveAdversary()
    for adv in (editor, twin):
        adv.reset(n=5, honest=4, rng=substream(36, "adversary"))
    rngs = [substream(36, "honest"), substream(36, "honest")]
    changed = 0
    for _ in range(500):
        out = rand_elim(range(5), 4, editor, rngs[0])
        expected = rand_elim(range(5), 4, twin, rngs[1])
        if rebind == "copy" and editor.changed:  # the forged opening is a detected violation
            expected = (editor.forged, frozenset({editor.forged}))
        assert out == expected
        changed += editor.changed
        if rebind == "record":
            assert seq_perm(range(5), 4, editor, rngs[0]) == seq_perm(range(5), 4, twin, rngs[1])
    assert changed > 300


class RecordKeeper(Malformer):
    """Commits like :class:`Malformer` and keeps the record its open hook got,
    with the dict of in-range draws that the record should equal."""

    def commit_draws(self, view, susceptible, k):
        committed = super().commit_draws(view, susceptible, k)
        self.expected = {p: d for p, d in zip(susceptible, committed.tolist()) if 0 <= d < k}
        return committed

    def open_draws(self, view, susceptible, commitments, k):
        self.record = commitments
        return commitments


@pytest.mark.parametrize("bad", [(), (1,), (0, 3), (0, 1, 2, 3)],
                         ids=["all-valid", "one-out", "two-out", "all-out"])
def test_elimination_record_behaves_like_the_dict_of_kept_draws(bad):
    for seed in range(10):
        adv = RecordKeeper(bad, 5 + seed % 3)  # draws of k=5 and beyond are out of range
        adv.reset(n=5, honest=4, rng=substream(35, seed, "adversary"))
        _, dev = rand_elim(range(5), 4, adv, substream(35, seed, "honest"))
        record, expected = adv.record, adv.expected
        assert dev == frozenset(bad)  # the dropped players, and only they, violate
        assert sorted(expected) == sorted(set(range(4)) - set(bad))
        assert record == expected and expected == record and dict(record) == expected
        assert len(record) == len(expected) and list(record) == list(expected)
        assert list(record.keys()) == list(expected.keys())
        assert list(record.values()) == list(expected.values())
        assert all(type(v) is int for v in record.values())
        assert list(record.items()) == list(expected.items())
        assert record.items() == expected.items()
        for p in [*range(6), -1, "x"]:
            assert (p in record) == (p in expected)
            assert record.get(p) == expected.get(p)
            assert record.get(p, "absent") == expected.get(p, "absent")
        with pytest.raises(KeyError):
            record[4]  # the honest player is never in it
        with pytest.raises(TypeError):
            record[0] = 1
        copy = record.copy()
        assert type(copy) is dict and copy == expected
        copy[min(expected, default=0)] = None  # the copy is the strategy's own
        assert record == expected


def test_seq_perm_plays_every_round_through_the_module_rand_elim(monkeypatch):
    from shapsim import protocols
    rounds = []
    original = protocols.rand_elim

    def counting(pool, *args, **kwargs):
        rounds.append(len(pool))
        return original(pool, *args, **kwargs)

    monkeypatch.setattr(protocols, "rand_elim", counting)
    adv, rng = passive(6, 2, seed=37)
    for sample in range(1, 4):
        seq_perm(range(6), 2, adv, rng)
        assert rounds == [6, 5, 4, 3, 2, 1] * sample


class ArrayEditor(PassiveAdversary):
    """Keeps its committed array and rewrites it from inside the open hook.

    In ``open_permutations`` every row is overwritten with slot 0; in
    ``open_draws`` one draw is replaced, after seeing the honest draw, so
    that a sum read from the array would eliminate the honest player.
    """

    def commit_permutations(self, view, susceptible, m):
        self.committed = super().commit_permutations(view, susceptible, m)
        return self.committed

    def commit_draws(self, view, susceptible, k):
        self.committed = super().commit_draws(view, susceptible, k)
        return self.committed

    def open_permutations(self, view, susceptible, commitments, m):
        self.committed[:] = 0
        return commitments

    def open_draws(self, view, susceptible, commitments, k):
        if view.honest_revealed is not None and len(self.committed):
            rest = view.honest_revealed + int(self.committed[1:].sum())
            self.committed[0] = (view.active_set.index(self.honest) - rest) % k
        return commitments


def test_editing_the_committed_array_after_commit_changes_nothing():
    editor, twin = ArrayEditor(), PassiveAdversary()
    for adv in (editor, twin):
        adv.reset(n=5, honest=4, rng=substream(31, "adversary"))
    rngs = [substream(31, "honest"), substream(31, "honest")]
    for _ in range(200):
        out = naive_perm(range(5), 4, editor, rngs[0])
        assert out == naive_perm(range(5), 4, twin, rngs[1])
        assert out.dev == frozenset()
        assert not editor.committed.any()  # the edit did land in the array
        assert rand_elim(range(5), 4, editor, rngs[0]) == rand_elim(range(5), 4, twin, rngs[1])
        assert seq_perm(range(5), 4, editor, rngs[0]) == seq_perm(range(5), 4, twin, rngs[1])


def test_rushing_open_sees_honest_commit_value():
    class Rusher(PassiveAdversary):
        def __init__(self):
            super().__init__()
            self.seen = []

        def open_draws(self, view, susceptible, commitments, k):
            self.seen.append(view.honest_revealed)
            return super().open_draws(view, susceptible, commitments, k)

    adv = Rusher()
    adv.reset(n=3, honest=0, rng=substream(19, "adversary"))
    rand_elim(range(3), 0, adv, substream(19, "honest"))
    assert len(adv.seen) == 1 and 0 <= adv.seen[0] < 3


# --- malformed commitments and openings -------------------------------------------------
# Every value an adversary returns is either a well-formed, faithfully opened
# commitment or a detected violation; the protocols never raise on it.

class ZeroCommitter(PassiveAdversary):
    def commit_permutations(self, view, susceptible, m):
        return np.zeros((len(susceptible), m), dtype=np.int64)


def test_naive_all_zeros_commitments_are_violations():
    adv = ZeroCommitter()
    adv.reset(n=4, honest=3, rng=substream(20, "adversary"))
    out = naive_perm(range(4), 3, adv, substream(20, "honest"))
    assert out.dev == frozenset({0, 1, 2})
    assert out.violations_used == 3
    assert sorted(out.order) == [0, 1, 2, 3]


@pytest.mark.parametrize("value", malformed_perms(4), ids=repr)
def test_naive_malformed_commitment_is_violation(value):
    adv = Malformer({1}, value)
    adv.reset(n=4, honest=3, rng=substream(21, "adversary"))
    out = naive_perm(range(4), 3, adv, substream(21, "honest"))
    assert out.dev == frozenset({1})
    assert out.violations_used == 1
    assert sorted(out.order) == [0, 1, 2, 3]


@pytest.mark.parametrize("value", malformed_draws(4), ids=repr)
def test_elimination_malformed_commitment_is_violation(value):
    adv = Malformer({2}, value)
    adv.reset(n=4, honest=0, rng=substream(22, "adversary"))
    assert rand_elim(range(4), 0, adv, substream(22, "honest")) == (2, frozenset({2}))
    out = seq_perm(range(4), 0, adv, substream(22, "honest"))
    assert out.order[0] == 2 and out.dev == frozenset({2})
    assert sorted(out.order) == [0, 1, 2, 3]


@pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint8, np.uint64])
@pytest.mark.parametrize("bad", [(), (0,), (2,), (0, 3), (0, 1, 2, 3)])
def test_each_malformed_entry_makes_exactly_its_player_violate(bad, dtype):
    for seed in range(20):
        adv = Malformer(bad, [4] * 5, dtype)
        adv.reset(n=5, honest=4, rng=substream(32, seed, "adversary"))
        out = naive_perm(range(5), 4, adv, substream(32, seed, "honest"))
        assert out.dev == frozenset(bad) and out.violations_used == len(bad)
        assert sorted(out.order) == list(range(5))
        adv = Malformer(bad, 5, dtype)
        adv.reset(n=5, honest=4, rng=substream(32, seed, "adversary"))
        eliminated, dev = rand_elim(range(5), 4, adv, substream(32, seed, "honest"))
        assert dev == frozenset(bad) and (not bad or eliminated == min(bad))
    # unsigned and narrow integer arrays are accepted like int64 ones
    for protocol, value in [(naive_perm, [4] * 5), (seq_perm, 5)]:
        twin, adv = Malformer(bad, value), Malformer(bad, value, dtype)
        for a in (twin, adv):
            a.reset(n=5, honest=4, rng=substream(33, "adversary"))
        assert (protocol(range(5), 4, adv, substream(33, "honest"))
                == protocol(range(5), 4, twin, substream(33, "honest")))


class WholeReturn(PassiveAdversary):
    """Returns ``make(s, shape)`` from a commit hook instead of its array."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def commit_permutations(self, view, susceptible, m):
        return self.make(len(susceptible), (len(susceptible), m))

    def commit_draws(self, view, susceptible, k):
        return self.make(len(susceptible), (len(susceptible),))


def _commit_id(value) -> str:
    if isinstance(value, (np.ndarray, np.generic)):
        return f"{type(value).__name__}-{value.dtype}-{value.shape}"
    return type(value).__name__


@pytest.mark.parametrize("case", range(len(malformed_commits(3, (3,)))),
                         ids=list(map(_commit_id, malformed_commits(3, (3,)))))
def test_commit_that_is_not_an_integer_array_of_the_shape_makes_every_player_violate(case):
    adv = WholeReturn(lambda s, shape: malformed_commits(s, shape)[case])
    adv.reset(n=4, honest=3, rng=substream(34, "adversary"))
    out = naive_perm(range(4), 3, adv, substream(34, "honest"))
    assert out.dev == frozenset({0, 1, 2}) and sorted(out.order) == [0, 1, 2, 3]
    assert rand_elim(range(4), 3, adv, substream(34, "honest")) == (0, frozenset({0, 1, 2}))
    out = seq_perm(range(4), 3, adv, substream(34, "honest"))
    assert out.order[:3] == (0, 1, 2) and out.dev == frozenset({0, 1, 2})


class MalformedOpener(PassiveAdversary):
    def __init__(self, forge):
        super().__init__()
        self.forge = forge

    def open_permutations(self, view, susceptible, commitments, m):
        return {**commitments, 1: self.forge(commitments[1])}

    def open_draws(self, view, susceptible, commitments, k):
        return {**commitments, 1: self.forge(commitments[1])}


@pytest.mark.parametrize("forge", [
    lambda v: np.asarray(v, dtype=np.float64),  # the committed value, as floats
    lambda v: str(np.asarray(v).tolist()),
    lambda v: [v, v],
    lambda v: np.asarray(v) - np.asarray(v).size,  # wraps onto the committed slots
], ids=["float", "str", "nested", "negative"])
def test_malformed_opening_is_violation(forge):
    adv = MalformedOpener(forge)
    adv.reset(n=4, honest=3, rng=substream(23, "adversary"))
    out = naive_perm(range(4), 3, adv, substream(23, "honest"))
    assert out.dev == frozenset({1}) and sorted(out.order) == [0, 1, 2, 3]
    assert rand_elim(range(4), 3, adv, substream(23, "honest")) == (1, frozenset({1}))


class ByValueOpener(PassiveAdversary):
    def open_permutations(self, view, susceptible, commitments, m):
        return {p: np.asarray(v).tolist() for p, v in commitments.items()}

    def open_draws(self, view, susceptible, commitments, k):
        return {p: np.int32(v) for p, v in commitments.items()}


def test_opening_an_equal_copy_is_faithful():
    adv = ByValueOpener()
    adv.reset(n=4, honest=3, rng=substream(24, "adversary"))
    assert naive_perm(range(4), 3, adv, substream(24, "honest")).dev == frozenset()
    assert seq_perm(range(4), 3, adv, substream(24, "honest")).dev == frozenset()


class NonDictAdversary(PassiveAdversary):
    """At commit, returns its well-formed values as a dict keyed by player
    instead of an array; at open, returns a list instead of a mapping."""

    def __init__(self, phase):
        super().__init__()
        self.phase = phase

    def _as_dict(self, committed, susceptible):
        return dict(zip(susceptible, committed)) if self.phase == "commit" else committed

    def commit_permutations(self, view, susceptible, m):
        return self._as_dict(super().commit_permutations(view, susceptible, m), susceptible)

    def commit_draws(self, view, susceptible, k):
        return self._as_dict(super().commit_draws(view, susceptible, k), susceptible)

    def open_permutations(self, view, susceptible, commitments, m):
        return [] if self.phase == "open" else commitments

    def open_draws(self, view, susceptible, commitments, k):
        return [] if self.phase == "open" else commitments


@pytest.mark.parametrize("phase", ["commit", "open"])
def test_record_that_is_not_a_dict_makes_every_susceptible_player_violate(phase):
    adv = NonDictAdversary(phase)
    adv.reset(n=4, honest=3, rng=substream(25, "adversary"))
    assert naive_perm(range(4), 3, adv, substream(25, "honest")).dev == frozenset({0, 1, 2})
    assert rand_elim(range(4), 3, adv, substream(25, "honest")) == (0, frozenset({0, 1, 2}))


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
    st.integers(-3, 8).map(np.int64),
    st.lists(st.one_of(st.none(), st.integers(-3, 8), st.floats(), st.text(max_size=1)),
             max_size=7),
    hnp.arrays(st.sampled_from([np.int64, np.uint8, np.float64, np.bool_]),
               hnp.array_shapes(min_dims=0, max_dims=2, max_side=7)),
)


# ``_opens_to`` against parse-then-compare: an opening parsed as a draw in
# [0, k) or a permutation of 0..m-1 must equal the committed value
_COMMITTED = [((0, 1, 2, 3), lambda v: as_perm(v, [0, 1, 2, 3])),
              ((2, 0, 3, 1), lambda v: as_perm(v, [0, 1, 2, 3])),
              *[(draw, lambda v: as_draw(v, 4)) for draw in range(4)]]


def _agrees_with_parse_then_compare(value):
    for committed, parse in _COMMITTED:
        assert _opens_to(value, committed) == (parse(value) == committed), (value, committed)


@given(_JUNK)
def test_opens_to_agrees_with_parse_then_compare_on_junk(value):
    _agrees_with_parse_then_compare(value)


_OPENINGS = [*opening_junk(4), *malformed_perms(4), *malformed_draws(4),
             # equal copies of committed values, which open them
             [2, 0, 3, 1], np.int32(3), np.array([2, 0, 3, 1], np.int8),
             np.array([2, 0, 3, 1], np.uint64), True]


@pytest.mark.parametrize("value", _OPENINGS,
                         ids=[f"{type(v).__name__}-{i}" for i, v in enumerate(_OPENINGS)])
def test_opens_to_agrees_with_parse_then_compare(value):
    _agrees_with_parse_then_compare(value)


class HostileAdversary(Adversary):
    """Every callback returns what ``data`` draws.

    A commit hook returns an integer array whose entries mix well-formed and
    malformed values, or junk; an open hook returns the record itself or a
    mapping with junk, gaps, extra keys and forgeries.
    """

    def __init__(self, data):
        super().__init__()
        self.data = data

    def _record(self, keys, value_of):
        draw = self.data.draw
        if draw(st.integers(0, 9)) == 0:
            return draw(_JUNK)  # not a record at all
        extra = draw(st.sets(st.sampled_from([-1, self.honest, self.n, "x"])))
        return {p: draw(value_of(p)) for p in [*keys, *extra] if draw(st.integers(0, 7))}

    def _open(self, commitments, copy):
        if self.data.draw(st.booleans()):
            return commitments  # the protocol's own record, returned as is
        return self._record(commitments, lambda p: st.one_of(
            st.just(commitments.get(p)), st.just(copy(commitments.get(p))), _JUNK))

    def _commit(self, s, entries, width=()):
        draw = self.data.draw
        if draw(st.integers(0, 9)) == 0:
            return draw(_JUNK)  # not an array of the right shape, or by chance one
        dtype = draw(st.sampled_from([np.int64, np.int16]))
        return np.array(draw(st.lists(entries, min_size=s, max_size=s)),
                        dtype=dtype).reshape((s, *width))

    def commit_permutations(self, view, susceptible, m):
        rows = st.one_of(st.permutations(range(m)),
                         st.lists(st.integers(-2, m + 2), min_size=m, max_size=m))
        return self._commit(len(susceptible), rows, (m,))

    def open_permutations(self, view, susceptible, commitments, m):
        return self._open(commitments, lambda v: None if v is None else list(v))

    def commit_draws(self, view, susceptible, k):
        return self._commit(len(susceptible), st.one_of(st.integers(0, k - 1),
                                                        st.integers(-2, k + 2)))

    def open_draws(self, view, susceptible, commitments, k):
        return self._open(commitments, lambda v: None if v is None else np.int64(v))


class HostileWitness(CommitWitness, HostileAdversary):
    pass


class JunkWitness(CommitWitness, JunkAdversary):
    pass


class ScriptedWitness(CommitWitness, ScriptedAdversary):
    pass


@settings(max_examples=300)
@given(st.data(), st.sampled_from(["naive", "seq", "elim"]), st.integers(1, 6),
       st.sampled_from(["hostile", "junk", "scripted"]), st.integers(0, 10_000))
def test_hostile_adversary_output_is_a_permutation_with_accounted_violations(
        data, protocol, n, kind, seed):
    honest = data.draw(st.integers(0, n - 1))
    active = sorted({honest} | data.draw(st.sets(st.integers(0, n - 1))))
    aborts = set()
    if kind == "hostile":
        adv = HostileWitness(data)
    elif kind == "junk":
        adv = JunkWitness()
    else:  # random aborts in the first round; the honest id is no record key
        aborts = data.draw(st.sets(st.sampled_from(active)))
        adv = ScriptedWitness({(0, 0): aborts})
    adv.reset(n=n, honest=honest, rng=substream(26, seed, "adversary"))
    rng = substream(26, seed, "honest")
    susceptible = frozenset(active) - {honest}
    if protocol == "elim":
        in_pool = data.draw(st.booleans())  # else a fully susceptible pool
        eliminated, dev = rand_elim(active, honest if in_pool else None, adv, rng)
        assert eliminated in active
        assert dev == adv.detected(sorted(susceptible) if in_pool else active)
        assert not dev or eliminated == min(dev)
        return
    out = (naive_perm if protocol == "naive" else seq_perm)(active, honest, adv, rng)
    assert sorted(out.order) == active
    assert out.violations_used == len(out.dev)
    assert out.dev <= susceptible
    if protocol == "naive":
        assert out.dev == adv.detected(sorted(susceptible))
        # the order is the reference composition of the faithful rows and the honest row
        assert out.order == adv.faithful_order(active, honest, out.dev)
        if kind == "scripted":
            assert out.dev == aborts - {honest}


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 100])
def test_honest_permutation_takes_the_draws_of_generator_permutation(m):
    adv = RecordingAdversary()
    adv.reset(n=m, honest=m - 1, rng=substream(35, "adversary"))
    rng, twin = substream(35, m, "honest"), substream(35, m, "honest")
    for _ in range(2000 if m < 100 else 200):
        naive_perm(range(m), m - 1, adv, rng)
        assert adv.open_views.pop().honest_revealed == tuple(twin.permutation(m).tolist())
    assert repr(rng.bit_generator.state) == repr(twin.bit_generator.state)  # holds arrays
    assert rng.random() == twin.random()


def test_junk_adversary_keeps_elimination_and_top_k_bounds():
    trials = 20_000
    for size in range(2, 6):
        adv = JunkAdversary()
        adv.reset(n=size, honest=0, rng=substream(27, "adversary", size))
        rng = substream(27, "honest", size)
        hits = sum(rand_elim(range(size), 0, adv, rng)[0] == 0 for _ in range(trials))
        bound = 1 / size
        assert hits / trials <= bound + 3 * math.sqrt(bound * (1 - bound) / trials), size

    n = 5
    adv = JunkAdversary()
    adv.reset(n=n, honest=0, rng=substream(28, "adversary"))
    rng = substream(28, "honest")
    ranks = Counter()
    violations = 0
    for _ in range(trials):
        out = seq_perm(range(n), 0, adv, rng)
        assert sorted(out.order) == list(range(n))
        ranks[out.rank_of(0)] += 1
        violations += out.violations_used
    assert violations > trials  # the strategy does violate, often
    for k in range(1, n):
        freq = sum(ranks[r] for r in range(n - k + 1, n + 1)) / trials
        bound = k / n
        assert freq >= bound - 3 * math.sqrt(bound * (1 - bound) / trials), k
