#!/usr/bin/env python3
"""shapsim benchmark: four experiment workloads through the ``shapsim`` CLI.

Run from the root of a source checkout (it runs the code under ``src/``):

    python3 bench/run.py --workload cdf-lb8 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all          # every workload, one after another
    python3 bench/run.py --record-digests        # rewrite bench/digests.json

Each command invocation is a fresh, single-threaded interpreter.  With
``--trace 0`` a run repeats a triple until ``--seconds`` have passed: a set-up
probe (the command stopped at its first P-sample, DP row or lockstep step),
the full command, whose output is checked, and ``reference.py``, which gauges
the host's speed.  It reports the medians of the end-to-end metrics, with
times corrected for that speed.  With ``--trace 1`` it repeats a pair of the command
untraced and the command under the span wrappers of ``tracing.py``,
requiring byte-identical output, and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Raw per-invocation data goes to ``.bench_run/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable, NamedTuple

from checks import CheckError, check_cdf, check_dp_table, check_simulate, sha256_hex

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
RUN_DIR = ".bench_run"
DEFAULT_SEED = 1
# Median wall time of reference.py over 182 runs on a 2-core Xeon VM (see run_untraced).
REFERENCE_S = 0.45
# A run must end within 180 s; stop starting invocations past this point.
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]  # the command without its sizes, seed and --out
    size: dict[str, int]  # size flags: {"R": 500} adds "--R 500"
    seeded: bool
    check: Callable[[bytes, int, dict], int]  # (output, seed, size) -> work units done
    work_metric: str


# Why each workload is here: bench/README.md and BENCHMARK.json.
WORKLOADS = {
    "cdf-lb8": Workload(
        argv=("cdf", "--game", "lb", "--n", "8", "--protocol", "seq", "--adversary", "dp",
              "--stopping", "known", "--budget", "2", "--eps", "0.4", "--delta", "0.1"),
        size={"M": 1000},
        seeded=True,
        check=lambda data, seed, size: check_cdf(data, M=size["M"]),
        work_metric="psamples_per_s"),
    "table-collab20": Workload(
        argv=("dp-table", "--hypergraph", "data/collab_reconstruction.hg", "--honest", "0",
              "--padding", "6"),
        size={"budget": 2, "R": 8},
        seeded=False,
        check=lambda data, seed, size: check_dp_table(data, R=size["R"], C=size["budget"]),
        work_metric="dp_rows_per_s"),
    "sim-seq-lb100": Workload(
        argv=("simulate", "--game", "lb", "--n", "100", "--protocol", "seq",
              "--adversary", "passive"),
        size={"R": 500},
        seeded=True,
        check=lambda data, seed, size: check_simulate(data, R=size["R"], seed=seed),
        work_metric="psamples_per_s"),
    "sim-naive-cyclic": Workload(
        argv=("simulate", "--game", "pair", "--n", "4", "--i-star", "3", "--j-star", "2",
              "--protocol", "naive", "--adversary", "cyclic", "--budget", "100000"),
        size={"R": 20000},
        seeded=True,
        check=lambda data, seed, size: check_simulate(data, R=size["R"], seed=seed),
        work_metric="psamples_per_s"),
}


def metric_units(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark at all."""


@dataclass
class Child:
    rc: int
    wall_s: float
    peak_rss_mb: float


class Runner:
    """Spawns and times the child interpreters of one benchmark run."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.out_dir = root / RUN_DIR
        self.out_dir.mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.env.pop("SHAPSIM_OUTPUT_DIR", None)

    def spawn(self, args: list[str], log_name: str) -> Child:
        """Run ``python3 args`` to completion; peak RSS is this child's own,
        read from ``wait4`` and not from the all-children maximum."""
        timeout = max(1.0, self.deadline + 5.0 - time.monotonic())
        with open(self.out_dir / log_name, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0)

    def log_tail(self, log_name: str) -> str:
        text = (self.out_dir / log_name).read_text(encoding="utf-8", errors="replace")
        return text.strip().splitlines()[-1] if text.strip() else "(no output)"

    def another(self, start: float, seconds: float, last_wall: float) -> bool:
        """Whether to start one more invocation: measured time should come
        out near ``seconds``, and the run must end before its deadline."""
        now = time.monotonic()
        return (now - start + last_wall / 2 < seconds
                and now + 1.25 * last_wall < self.deadline)


def preflight(root: Path) -> None:
    for rel in ("BENCHMARK.json", "src/shapsim/cli.py", "data/collab_reconstruction.hg"):
        if not (root / rel).is_file():
            raise SetupError(f"{rel} not found under {root}; run from a shapsim checkout")


def command(w: Workload, seed: int, out: Path) -> list[str]:
    size_args = [arg for flag, value in w.size.items() for arg in (f"--{flag}", str(value))]
    seed_args = ["--seed", str(seed)] if w.seeded else []
    return [*w.argv, *size_args, *seed_args, "--out", str(out)]


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}


def check_output(name: str, w: Workload, seed: int, data: bytes, digests: dict) -> int:
    """Invariants at any seed; byte identity where a digest was recorded."""
    work = w.check(data, seed, w.size)
    recorded = digests.get(name)
    if recorded and (not w.seeded or recorded["seed"] == seed):
        if sha256_hex(data) != recorded["sha256"]:
            raise CheckError(f"output digest differs from the one recorded in {DIGESTS.name}")
    return work


CLI = ("-m", "shapsim.cli")


class Invocation(NamedTuple):
    child: Child
    data: bytes | None  # the checked output; None if the invocation failed
    work: int
    why: str  # why it failed; empty if it did not


def invoke(runner: Runner, name: str, seed: int, out: Path, digests: dict,
           via: tuple[str, ...] = CLI, log: str = "command.log") -> Invocation:
    """Run the workload's command once under ``python3 *via`` and check what it wrote."""
    w = WORKLOADS[name]
    out.unlink(missing_ok=True)
    child = runner.spawn([*via, *command(w, seed, out)], log)
    if child.rc != 0:
        return Invocation(child, None, 0, f"exit {child.rc}: {runner.log_tail(log)}")
    try:
        data = out.read_bytes()
        return Invocation(child, data, check_output(name, w, seed, data, digests), "")
    except (CheckError, OSError) as exc:
        return Invocation(child, None, 0, str(exc))


def warm_up(runner: Runner) -> None:
    """Compile bytecode once and check that ``shapsim`` comes from this checkout."""
    probe = runner.out_dir / "import_path.txt"
    child = runner.spawn(["-c", "import shapsim.cli, sys; "
                          f"open({str(probe)!r}, 'w').write(shapsim.__file__)"], "warm_up.log")
    if child.rc != 0:
        raise SetupError(f"cannot import shapsim: {runner.log_tail('warm_up.log')}")
    src = (runner.root / "src").resolve()
    if src not in Path(probe.read_text(encoding="utf-8")).resolve().parents:
        raise SetupError(f"shapsim imported from {probe.read_text()}, not from {src}")


class Tally:
    """Attempted and failed child processes of one run, with the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def setup_probe(runner: Runner, name: str, seed: int) -> Child:
    """The command in a fresh interpreter, stopped at its first P-sample, DP row
    or lockstep step; it writes no output."""
    stop = (str(BENCH_DIR / "tracing.py"), "--stop-at-first-work", "--")
    return runner.spawn([*stop, *command(WORKLOADS[name], seed, runner.out_dir / "setup.csv")],
                        "setup.log")


def reference_s(runner: Runner) -> float:
    """Wall time of one run of ``reference.py``."""
    child = runner.spawn([str(BENCH_DIR / "reference.py")], "reference.log")
    if child.rc != 0:
        raise SetupError(f"reference.py: exit {child.rc}: {runner.log_tail('reference.log')}")
    return child.wall_s


def run_untraced(name: str, seed: int, seconds: float, runner: Runner, tally: Tally,
                 digests: dict) -> tuple[dict, dict]:
    """Triples of a set-up probe, a full invocation and a reference run, until
    ``seconds`` pass, so that probes and invocations are sampled over the same
    stretch of time, each between two reference runs.

    The host's speed moves by tens of percent, within seconds and over
    minutes.  Each probe's and invocation's time is divided by the mean of the
    reference times on either side of it, over ``REFERENCE_S``: the times
    reported are those of a host on which the reference takes ``REFERENCE_S``.
    """
    out = runner.out_dir / f"{name}.csv"
    setup, walls, rates, rss, raw_walls, refs = [], [], [], [], [], []
    ref_before = reference_s(runner)
    refs.append(ref_before)
    start = time.monotonic()
    while True:
        probe = setup_probe(runner, name, seed)
        run = invoke(runner, name, seed, out, digests)
        ref_after = reference_s(runner)
        refs.append(ref_after)
        slowdown = (ref_before + ref_after) / (2 * REFERENCE_S)
        ref_before = ref_after
        if tally.record(probe.rc == 0, f"setup probe {len(setup) + 1}: exit {probe.rc}: "
                                       f"{runner.log_tail('setup.log')}"):
            setup.append(probe.wall_s / slowdown)
        if tally.record(not run.why, f"invocation {len(walls) + 1}: {run.why}"):
            walls.append(run.child.wall_s / slowdown)
            rates.append(run.work * slowdown / run.child.wall_s)
            rss.append(run.child.peak_rss_mb)
            raw_walls.append(run.child.wall_s)
        if not runner.another(start, seconds, probe.wall_s + run.child.wall_s + ref_after):
            break
    samples = {"wall_s": walls, "setup_s": setup, "work_per_s": rates, "peak_rss_mb": rss,
               "uncorrected_wall_s": raw_walls, "reference_s": refs}
    return {k: median(v) if v else 0.0 for k, v in samples.items()}, samples


def run_traced(name: str, seed: int, seconds: float, runner: Runner, tally: Tally,
               digests: dict) -> tuple[dict, dict]:
    """Pairs of an untraced and a traced invocation, until ``seconds`` pass."""
    out = runner.out_dir / f"{name}.csv"
    traced_out = runner.out_dir / f"{name}.traced.csv"
    metrics_path = runner.out_dir / f"{name}.layers.json"
    tracer = (str(BENCH_DIR / "tracing.py"), "--metrics-out", str(metrics_path), "--")
    runs: list[dict] = []
    untraced_walls, traced_walls = [], []
    start = time.monotonic()
    while True:
        metrics_path.unlink(missing_ok=True)
        plain = invoke(runner, name, seed, out, digests)
        if tally.record(not plain.why, f"untraced invocation {len(untraced_walls) + 1}: "
                                       f"{plain.why}"):
            untraced_walls.append(plain.child.wall_s)
        traced = invoke(runner, name, seed, traced_out, digests, via=tracer, log="traced.log")
        why = traced.why
        if not why and plain.why:
            why = "no untraced output to compare with"
        elif not why and traced.data != plain.data:
            why = "traced output differs from the untraced output"
        if not why:
            try:
                layers = json.loads(metrics_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                why = f"no per-layer metrics: {exc}"
        if tally.record(not why, f"traced invocation {len(traced_walls) + 1}: {why}"):
            runs.append(layers)
            traced_walls.append(traced.child.wall_s)
        if not runner.another(start, seconds, plain.child.wall_s + traced.child.wall_s):
            break
    samples = {k: [r[k] for r in runs] for k in metric_units("per_layer")
               if k != "trace.overhead_ratio"}
    samples["trace.overhead_ratio"] = (
        [median(traced_walls) / median(untraced_walls)] if runs and untraced_walls else [])
    return {k: median(v) if v else 0.0 for k, v in samples.items()}, samples


def environment(root: Path, seed: int) -> dict:
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"git_sha": sha, "src_sha256": src.hexdigest(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version, "cpu": cpu,
            "seed": seed, "loadavg": list(os.getloadavg())}


def high_percentile(values: list[float]) -> str:
    """The highest whole percentile with at least ten values above it."""
    n = len(values)
    if n < 11:
        return "p-high n/a (fewer than 11 values)"
    return f"p{100 * (n - 10) // n} {sorted(values)[n - 11]:.6g}"


def report(name: str, w: Workload, trace: int, metrics: dict, samples: dict,
           tally: Tally) -> list[str]:
    lines = [f"workload {name}  trace {trace}"]
    units = metric_units("per_layer" if trace else "end_to_end")
    # The untraced run's uncorrected command times and reference times, in s.
    units.update((k, "s") for k in samples if k not in units)
    for key, unit in units.items():
        label = w.work_metric if key == "work_per_s" else key
        vals = samples[key]
        lines.append(f"  {label:<34} {metrics[key]:>14.6g} {unit:<6} median of {len(vals)}; "
                     f"{high_percentile(vals)}")
    failed = len(tally.failures)
    lines.append(f"  {'failed_frac':<34} {failed / max(1, tally.attempted):>14.6g} "
                 f"{'ratio':<6} {failed} of {tally.attempted} child runs")
    lines.extend(f"  failure: {f}" for f in tally.failures)
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: int, root: Path,
                 digests: dict) -> dict:
    w = WORKLOADS[name]
    runner = Runner(root, time.monotonic() + DEADLINE_S)
    warm_up(runner)
    tally = Tally()
    run = run_traced if trace else run_untraced
    metrics, samples = run(name, seed, seconds, runner, tally, digests)
    env = environment(root, seed)
    for line in report(name, w, trace, metrics, samples, tally):
        print(line)
    print("# env " + json.dumps(env, sort_keys=True))
    units = metric_units("per_layer" if trace else "end_to_end")
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {"workload": name, "trace": trace, "seconds": seconds, "env": env,
              "result": result, "samples": samples, "failures": tally.failures}
    (runner.out_dir / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return result


def record_digests(root: Path) -> None:
    runner = Runner(root, time.monotonic() + 10 * DEADLINE_S)
    warm_up(runner)
    digests = {}
    for name, w in WORKLOADS.items():
        run = invoke(runner, name, DEFAULT_SEED, runner.out_dir / f"{name}.csv", {})
        if run.why:
            raise SetupError(f"{name}: {run.why}")
        digests[name] = {"seed": DEFAULT_SEED if w.seeded else None,
                         "sha256": sha256_hex(run.data)}
        print(f"{name}: {digests[name]['sha256']}")
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="shapsim benchmark")
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help=f"run each workload at seed {DEFAULT_SEED} and rewrite {DIGESTS.name}")
    args = ap.parse_args(argv)
    # Terminate like an interrupt, so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd().resolve()
    try:
        preflight(root)
        if args.record_digests:
            record_digests(root)
            return 0
        digests = load_digests()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_workload(name, args.seed, args.seconds, args.trace, root, digests)
                   for name in names}
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
