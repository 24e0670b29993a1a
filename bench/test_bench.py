"""Tests for the benchmark's own output checkers, drift statistic and tracer.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from checks import CheckError, check_cdf, check_dp_table, check_simulate, drift  # noqa: E402
from run import WORKLOADS, Child, command, invoke  # noqa: E402
from tracing import Patches, Tracer, count_aborts  # noqa: E402

SIMULATE = b"""# schema-version: 1
j,Y,Z,dev
1,2,2,1
2,0,0,0
3,3.5,1.5,1
4,1.25,0,0
# trailer: R,V,x_honest,eps_hat,seed
4,2,0.8125,nan,7
"""

CDF = b"""# schema-version: 1
# game = lb(n=8)
# honest = 0
# M = 4
# R = 10
# phi = 1
eps_hat,cum_fraction
0,0.25
0.01,0.5
0.01,0.75
0.2,1
"""

DP_TABLE = b"""# schema-version: 1
# game = synergy(n=20,m=14)
# honest = 0
# C = 2
T,c,E_worst
0,0,2.5
0,1,2
0,2,2
1,0,5
1,1,4.5
1,2,4.25
"""


def corrupt(data: bytes, old: bytes, new: bytes) -> bytes:
    assert old in data
    return data.replace(old, new, 1)


def test_valid_outputs_pass_and_report_their_work():
    assert check_simulate(SIMULATE, R=4, seed=7) == 4
    assert check_cdf(CDF, M=4) == 40
    assert check_dp_table(DP_TABLE, R=2, C=2) == 2


@pytest.mark.parametrize("data, kwargs", [
    (corrupt(SIMULATE, b"3,3.5,1.5,1", b"3,3.5,1.5,0"), {}),      # V != sum(dev)
    (corrupt(SIMULATE, b"4,1.25,0,0", b"4,1.5,0,0"), {}),          # x_honest != mean(Y-Z)
    (corrupt(SIMULATE, b"2,0,0,0\n", b""), {}),                    # a row missing
    (corrupt(SIMULATE, b"4,2,0.8125,nan,7", b"5,2,0.8125,nan,7"), {}),  # trailer R
    (SIMULATE, {"R": 5}),                                          # not the requested R
    (SIMULATE, {"seed": 8}),                                       # not the requested seed
    (SIMULATE[:-1], {}),                                           # truncated
    (corrupt(SIMULATE, b"j,Y,Z,dev", b"j,Y,Z"), {}),
])
def test_corrupted_simulate_output_is_rejected(data, kwargs):
    with pytest.raises(CheckError):
        check_simulate(data, **{"R": 4, "seed": 7, **kwargs})


@pytest.mark.parametrize("data, M", [
    (corrupt(CDF, b"0.01,0.75", b"0.001,0.75"), 4),   # not sorted
    (corrupt(CDF, b"0.2,1", b"0.2,0.99"), 4),         # last cum_fraction is not 1
    (corrupt(CDF, b"0.01,0.5\n", b""), 4),            # a row missing
    (CDF, 5),                                         # not the requested M
    (corrupt(CDF, b"0,0.25", b"-0.1,0.25"), 4),       # negative error
])
def test_corrupted_cdf_output_is_rejected(data, M):
    with pytest.raises(CheckError):
        check_cdf(data, M=M)


@pytest.mark.parametrize("data, R", [
    (corrupt(DP_TABLE, b"1,2,4.25", b"1,2,4.75"), 2),  # E_worst increases in c
    (corrupt(DP_TABLE, b"0,1,2\n", b""), 2),           # a row missing
    (corrupt(DP_TABLE, b"1,1,4.5", b"1,1,nan"), 2),
    (DP_TABLE, 3),                                     # not R*(C+1) rows
    (corrupt(DP_TABLE, b"# C = 2", b"# C = 1"), 2),
])
def test_corrupted_dp_table_output_is_rejected(data, R):
    with pytest.raises(CheckError):
        check_dp_table(data, R=R, C=2)


def test_drift_of_constant_linear_and_empty_series():
    assert drift([3.0] * 50) == pytest.approx(1.0)
    # costs 1..100: last tenth averages 95.5, first tenth 5.5
    assert drift([float(i) for i in range(1, 101)]) == pytest.approx(95.5 / 5.5)
    assert drift([2.0, 4.0]) == pytest.approx(2.0)
    assert drift([]) == 0.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_runner_sample_costs_and_drift_from_synthetic_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def psample():
        clock.now += 1.0  # protocol work, a child of the runner

    def oracle():
        clock.now += 0.5  # oracle work, also a child of the runner

    traced_psample = tracer.wrap("protocols.psample", psample, before=tracer.mark_sample)
    traced_oracle = tracer.wrap("games.oracle", oracle)

    def run():
        clock.now += 100.0  # set-up before the first sample
        for i in range(20):
            traced_psample()
            traced_oracle()
            clock.now += i + 1  # bookkeeping that grows with the sample index

    tracer.wrap("runner.run", run, after=tracer.end_run)()

    assert tracer.runner_sample_s == pytest.approx([float(i + 1) for i in range(20)])
    assert drift(tracer.runner_sample_s) == pytest.approx(19.5 / 1.5)
    assert tracer.self_s["runner.run"] == pytest.approx(100.0 + 210.0)
    assert tracer.incl_s["runner.run"] == pytest.approx(100.0 + 210.0 + 20 * 1.5)
    assert tracer.calls["protocols.psample"] == 20
    assert tracer.incl_s["games.oracle"] == pytest.approx(10.0)


def test_nested_spans_of_one_name_count_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 2.0

    traced_inner = tracer.wrap("adversaries.callback", inner)

    def outer():
        clock.now += 1.0
        traced_inner()

    tracer.wrap("adversaries.callback", outer)()
    assert tracer.calls["adversaries.callback"] == 1
    assert tracer.incl_s["adversaries.callback"] == pytest.approx(3.0)
    assert tracer.self_s["adversaries.callback"] == pytest.approx(3.0)


def test_aborts_are_missing_or_changed_openings():
    committed = {1: 3, 2: 0, 4: 1}
    assert count_aborts(committed, committed) == 0
    assert count_aborts(committed, {1: 3, 2: None, 4: 2}) == 2
    perms = {1: [0, 1, 2], 2: [2, 1, 0]}
    assert count_aborts(perms, {1: [0, 1, 2], 2: None}) == 1
    assert count_aborts(perms, {1: [1, 0, 2], 2: perms[2]}) == 1


def test_patches_restore_every_binding():
    mod = types.SimpleNamespace(f=len)
    table = {"a": min}

    class Base:
        def hook(self):
            return "base"

    class Sub(Base):
        pass

    patches = Patches()
    patches.setattr(mod, "f", max)
    patches.setitem(table, "a", max)
    patches.setattr(Sub, "hook", lambda self: "wrapped")
    assert Sub().hook() == "wrapped"
    assert patches.restore() == []
    assert mod.f is len and table["a"] is min
    assert "hook" not in vars(Sub) and Sub().hook() == "base"


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "cdf-lb8",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_each_workload_size_reaches_its_command_once():
    for w in WORKLOADS.values():
        cmd = command(w, 5, Path("out.csv"))
        for flag, value in w.size.items():
            assert cmd.count(f"--{flag}") == 1
            assert cmd[cmd.index(f"--{flag}") + 1] == str(value)


class NoOutputRunner:
    """Children that exit 0 without writing their output file."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def spawn(self, args, log_name):
        return Child(rc=0, wall_s=1.0, peak_rss_mb=10.0)

    def log_tail(self, log_name):
        return "(no output)"


def test_a_missing_output_fails_the_invocation_without_raising(tmp_path):
    result = invoke(NoOutputRunner(tmp_path), "sim-naive-cyclic", 1, tmp_path / "x.csv", {})
    assert result.data is None and result.work == 0
    assert "x.csv" in result.why
