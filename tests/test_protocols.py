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
from oracles import (MISSING, BindingBreaker, JunkAdversary, Malformer, RecordingAdversary,
                     ScriptedAdversary, malformed_draws, malformed_perms)


def passive(n, honest, seed=1):
    adv = PassiveAdversary()
    adv.reset(n=n, honest=honest, rng=substream(seed, "adversary"))
    return adv, substream(seed, "honest")


class IdentityRng:
    """Stands in for the honest stream with a fixed permutation."""

    def __init__(self, perm):
        self.perm = np.asarray(perm)

    def permutation(self, m):
        return self.perm.copy()


class IdentityAdversary(PassiveAdversary):
    def commit_permutations(self, view, susceptible, m):
        return {p: np.arange(m) for p in susceptible}


# --- full-permutation protocol ---------------------------------------------------

def test_identity_composition_gives_identity():
    adv = IdentityAdversary()
    adv.reset(n=4, honest=3, rng=substream(0, "adversary"))
    out = naive_perm([0, 1, 2, 3], 3, adv, IdentityRng([0, 1, 2, 3]))
    assert out.order == (0, 1, 2, 3)
    assert out.dev == frozenset()
    assert out.violations_used == 0


def test_naive_passive_uniform_small():
    adv, rng = passive(3, 2, seed=2)
    counts = Counter()
    trials = 30_000
    for i in range(trials):
        counts[naive_perm([0, 1, 2], 2, adv, rng, sample_index=i).order] += 1
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
    for i in range(50):
        total_dev += len(naive_perm(range(n), n - 1, adv, rng, sample_index=i).dev)
    assert total_dev == 1


# --- elimination round ---------------------------------------------------------------

def test_rand_elim_singleton():
    adv, rng = passive(1, 0)
    assert rand_elim([0], 0, adv, rng) == (0, frozenset())


def test_rand_elim_uniform():
    adv, rng = passive(4, 0, seed=9)
    counts = Counter()
    trials = 40_000
    for i in range(trials):
        eliminated, dev = rand_elim([0, 1, 2, 3], 0, adv, rng, sample_index=i)
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


# --- sequential permutation -----------------------------------------------------------

def test_seq_single_player():
    adv, rng = passive(1, 0)
    out = seq_perm([0], 0, adv, rng)
    assert out.order == (0,) and out.dev == frozenset()


def test_seq_passive_rank_uniform():
    adv, rng = passive(5, 0, seed=12)
    counts = Counter()
    trials = 50_000
    for i in range(trials):
        counts[seq_perm(range(5), 0, adv, rng, sample_index=i).rank_of(0)] += 1
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
    for i in range(20):
        naive_perm(range(4), 3, adv, rng, sample_index=i)
        seq_perm(range(4), 3, adv, rng, sample_index=i)
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

def _value_id(value) -> str:
    return "missing" if value is MISSING else repr(value)


class ZeroCommitter(PassiveAdversary):
    def commit_permutations(self, view, susceptible, m):
        return {p: np.zeros(m, dtype=np.int64) for p in susceptible}


def test_naive_all_zeros_commitments_are_violations():
    adv = ZeroCommitter()
    adv.reset(n=4, honest=3, rng=substream(20, "adversary"))
    out = naive_perm(range(4), 3, adv, substream(20, "honest"))
    assert out.dev == frozenset({0, 1, 2})
    assert out.violations_used == 3
    assert sorted(out.order) == [0, 1, 2, 3]


@pytest.mark.parametrize("value", malformed_perms(4), ids=_value_id)
def test_naive_malformed_commitment_is_violation(value):
    adv = Malformer(1, value)
    adv.reset(n=4, honest=3, rng=substream(21, "adversary"))
    out = naive_perm(range(4), 3, adv, substream(21, "honest"))
    assert out.dev == frozenset({1})
    assert out.violations_used == 1
    assert sorted(out.order) == [0, 1, 2, 3]


@pytest.mark.parametrize("value", malformed_draws(4), ids=_value_id)
def test_elimination_malformed_commitment_is_violation(value):
    adv = Malformer(2, value)
    adv.reset(n=4, honest=0, rng=substream(22, "adversary"))
    assert rand_elim(range(4), 0, adv, substream(22, "honest")) == (2, frozenset({2}))
    out = seq_perm(range(4), 0, adv, substream(22, "honest"))
    assert out.order[0] == 2 and out.dev == frozenset({2})
    assert sorted(out.order) == [0, 1, 2, 3]


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
    def __init__(self, phase):
        super().__init__()
        self.phase = phase

    def commit_permutations(self, view, susceptible, m):
        return None if self.phase == "commit" else super().commit_permutations(view, susceptible, m)

    def commit_draws(self, view, susceptible, k):
        return None if self.phase == "commit" else super().commit_draws(view, susceptible, k)

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


class HostileAdversary(Adversary):
    """Every callback returns what ``data`` draws: junk, gaps, extra keys, forgeries."""

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

    def commit_permutations(self, view, susceptible, m):
        perms = st.permutations(range(m)).map(np.array)
        return self._record(susceptible, lambda p: st.one_of(perms, _JUNK))

    def open_permutations(self, view, susceptible, commitments, m):
        return self._open(commitments, lambda v: None if v is None else list(v))

    def commit_draws(self, view, susceptible, k):
        return self._record(susceptible, lambda p: st.one_of(st.integers(0, k - 1), _JUNK))

    def open_draws(self, view, susceptible, commitments, k):
        return self._open(commitments, lambda v: None if v is None else np.int64(v))


@settings(max_examples=300)
@given(st.data(), st.sampled_from(["naive", "seq", "elim"]), st.integers(1, 6))
def test_hostile_adversary_output_is_a_permutation_with_accounted_violations(data, protocol, n):
    honest = data.draw(st.integers(0, n - 1))
    active = sorted({honest} | data.draw(st.sets(st.integers(0, n - 1))))
    adv = HostileAdversary(data)
    adv.reset(n=n, honest=honest, rng=substream(26, "adversary"))
    rng = substream(26, "honest")
    susceptible = frozenset(active) - {honest}
    if protocol == "elim":
        in_pool = data.draw(st.booleans())  # else a fully susceptible pool
        eliminated, dev = rand_elim(active, honest if in_pool else None, adv, rng)
        assert eliminated in active
        assert dev <= (susceptible if in_pool else frozenset(active))
        assert not dev or eliminated == min(dev)
        return
    out = (naive_perm if protocol == "naive" else seq_perm)(active, honest, adv, rng)
    assert sorted(out.order) == active
    assert out.violations_used == len(out.dev)
    assert out.dev <= susceptible


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
    for i in range(trials):
        out = seq_perm(range(n), 0, adv, rng, sample_index=i)
        assert sorted(out.order) == list(range(n))
        ranks[out.rank_of(0)] += 1
        violations += out.violations_used
    assert violations > trials  # the strategy does violate, often
    for k in range(1, n):
        freq = sum(ranks[r] for r in range(n - k + 1, n + 1)) / trials
        bound = k / n
        assert freq >= bound - 3 * math.sqrt(bound * (1 - bound) / trials), k
