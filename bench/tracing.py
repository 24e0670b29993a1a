"""Layer-boundary spans around shapsim's public calls, from outside the library.

Run as a script, it executes one ``shapsim`` CLI command in this fresh
interpreter:

    PYTHONPATH=src python3 bench/tracing.py --metrics-out m.json -- <cli args>
    PYTHONPATH=src python3 bench/tracing.py --stop-at-first-work -- <cli args>

The first form installs the span wrappers, runs the command, restores every
original binding, checks that each one is back, and writes the per-layer
metrics of :func:`layer_metrics` as JSON.  The second installs only stop
hooks and exits with code 0 at the first P-sample, DP boundary row or
lockstep step, so timing that process measures the command's set-up:
interpreter start, imports, game build, exact values and state-space build.

Wrappers go where each name is looked up at call time: every ``shapsim``
module namespace that binds a wrapped function, the ``runner.PROTOCOLS``
table, the hook methods of every adversary class, the ``DPTable``,
``StateSpace`` and ``RunRecord`` classes, and the ``utility`` of each
``Game`` as it is constructed.  A span's self time is its duration minus
that of the spans it directly encloses.  A span nested inside another of the
same name adds self time but is not counted or timed again.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

from checks import drift

ADVERSARY_HOOKS = ("reset", "begin_sample", "commit_permutations",
                   "open_permutations", "commit_draws", "open_draws")
EXIT_STOP_NOT_REACHED = 4
EXIT_NOT_RESTORED = 5


class Tracer:
    """Span totals, counters and per-item cost series, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, seconds of directly enclosed spans]
        self.depth: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.slice_rebuild_s = 0.0
        self.row_s: list[float] = []
        self.runner_sample_s: list[float] = []
        self._marks: list[tuple[float, float]] = []

    def wrap(self, name, fn, *, before=None, after=None):
        """``fn`` inside span ``name``.

        ``before(args)`` runs on entry, outside the span.  For outermost
        spans of ``name``, ``after(result, args, kwargs, seconds,
        child_seconds)`` runs on normal return, outside the span.
        """
        stack, depth, clock = self.stack, self.depth, self.clock
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                self_s[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if depth[name] == 0:
                incl_s[name] += dt
                calls[name] += 1
                if after is not None:
                    after(result, args, kwargs, dt, frame[1])
            return result

        return wrapper

    def mark_sample(self, args) -> None:
        """At each P-sample started directly by a runner, note the clock and
        the time the runner's enclosed spans have used so far."""
        if self.stack and self.stack[-1][0] == "runner.run":
            self._marks.append((self.clock(), self.stack[-1][1]))

    def end_run(self, result, args, kwargs, dt, child_s) -> None:
        """Split the run's self time into one cost per P-sample: the runner's
        own time from one P-sample's start to the next (or to the run's end)."""
        marks = self._marks + [(self.clock(), child_s)]
        for (t0, c0), (t1, c1) in zip(marks, marks[1:]):
            self.runner_sample_s.append((t1 - t0) - (c1 - c0))
        self._marks = []


def count_aborts(commitments: dict, opened: dict) -> int:
    """Susceptible players whose opening is missing or differs from the commitment."""
    if opened is commitments:
        return 0
    aborts = 0
    for p, committed in commitments.items():
        value = opened.get(p)
        if value is committed:
            continue
        if value is None:
            aborts += 1
            continue
        try:
            same = list(value) == list(committed)
        except TypeError:  # scalar draws
            same = value == committed
        aborts += not same
    return aborts


class Patches:
    """Each replaced binding, so that :meth:`restore` can put it back."""

    def __init__(self):
        self.done: list[tuple[object, object, object, bool | None]] = []

    def setattr(self, obj, attr: str, new) -> None:
        own = attr in vars(obj)
        self.done.append((obj, attr, vars(obj)[attr] if own else None, own))
        setattr(obj, attr, new)

    def setitem(self, mapping: dict, key, new) -> None:
        self.done.append((mapping, key, mapping[key], None))
        mapping[key] = new

    def everywhere(self, original, new) -> None:
        """Rebind ``original`` to ``new`` in every loaded shapsim module."""
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == "shapsim" or name.startswith("shapsim.")):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self.setattr(mod, attr, new)

    def restore(self) -> list[str]:
        """Undo every patch, newest first; return the bindings left wrong."""
        for obj, key, original, own in reversed(self.done):
            if own is None:
                obj[key] = original
            elif own:
                setattr(obj, key, original)
            else:
                delattr(obj, key)
        wrong = []
        for obj, key, original, own in self.done:
            if own is None:
                ok = obj[key] is original
            elif own:
                ok = vars(obj).get(key) is original
            else:
                ok = key not in vars(obj)
            if not ok:
                wrong.append(f"{getattr(obj, '__name__', type(obj).__name__)}.{key}")
        self.done.clear()
        return wrong


def _adversary_classes(base) -> list[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer boundary of the loaded ``shapsim`` package."""
    import shapsim.cli  # noqa: F401  (loads every module the CLI uses)
    from shapsim import adversaries, csvio, dp, games, protocols, runner, streams

    t = tracer

    def on_psample(result, args, kwargs, dt, child_s):
        t.counts["violations"] += getattr(result, "violations_used", 0)

    for key, fn in list(runner.PROTOCOLS.items()):
        w = t.wrap("protocols.psample", fn, before=t.mark_sample, after=on_psample)
        patches.setitem(runner.PROTOCOLS, key, w)
        patches.everywhere(fn, w)
    patches.everywhere(protocols.rand_elim, t.wrap("protocols.round", protocols.rand_elim))

    for fn in (runner.run_allocation, runner.run_adaptive):
        patches.everywhere(fn, t.wrap("runner.run", fn, after=t.end_run))

    lockstep_sig = inspect.signature(dp.parallel_runs)

    def on_lockstep(result, args, kwargs, dt, child_s):
        bound = lockstep_sig.bind(*args, **kwargs).arguments
        t.counts["lockstep_run_samples"] += bound["R"] * bound["M"]

    patches.everywhere(dp.parallel_runs,
                       t.wrap("dp.lockstep", dp.parallel_runs, after=on_lockstep))

    # One span per boundary row: a multi-row extend is issued one row at a
    # time, which builds the same rows in the same order.
    extend_to = vars(dp.DPTable)["extend_to"]
    row = t.wrap("dp.row", extend_to,
                 after=lambda result, args, kwargs, dt, child_s: t.row_s.append(dt))

    def extend_by_rows(table, R):
        while table.R < R:
            built = table.R
            row(table, built + 1)
            if table.R <= built:
                break
        return extend_to(table, R)

    patches.setattr(dp.DPTable, "extend_to", functools.wraps(extend_to)(extend_by_rows))

    def on_slice(result, args, kwargs, dt, child_s):
        if getattr(args[0], "slices", None) is None:  # boundary-only table
            t.counts["slices_rebuilt"] += 1
            t.slice_rebuild_s += dt

    patches.setattr(dp.DPTable, "slice_at",
                    t.wrap("dp.slice", vars(dp.DPTable)["slice_at"], after=on_slice))

    def on_space(result, args, kwargs, dt, child_s):
        t.counts["states"] = max(t.counts["states"], result.n_states)

    build = vars(dp.StateSpace)["build"].__func__
    patches.setattr(dp.StateSpace, "build",
                    classmethod(t.wrap("dp.state_space", build, after=on_space)))

    def on_open(result, args, kwargs, dt, child_s):
        # (adversary, view, susceptible, commitments, size)
        commitments = args[3] if len(args) > 3 else kwargs["commitments"]
        t.counts["aborts"] += count_aborts(commitments, result)

    for cls in _adversary_classes(adversaries.Adversary):
        for hook in ADVERSARY_HOOKS:
            if hook in vars(cls):
                after = on_open if hook.startswith("open_") else None
                patches.setattr(cls, hook, t.wrap("adversaries.callback", vars(cls)[hook],
                                                  after=after))

    game_init = vars(games.Game)["__init__"]

    @functools.wraps(game_init)
    def traced_init(game, *args, **kwargs):
        game_init(game, *args, **kwargs)
        patches.setattr(game, "utility", t.wrap("games.oracle", game.utility))

    patches.setattr(games.Game, "__init__", traced_init)

    patches.everywhere(streams.substream, t.wrap("streams.substream", streams.substream))

    patches.everywhere(csvio.render_csv, t.wrap("csvio.render", csvio.render_csv))
    patches.setattr(runner.RunRecord, "to_csv",
                    t.wrap("csvio.render", vars(runner.RunRecord)["to_csv"]))

    def on_write(args):
        t.counts["bytes_out"] += len(str(args[1]).encode("utf-8"))

    patches.everywhere(csvio.write_text, t.wrap("csvio.write", csvio.write_text, before=on_write))


def install_stop_hooks(patches: Patches) -> None:
    """Exit the process at the first P-sample, DP row or lockstep step."""
    import shapsim.cli  # noqa: F401
    from shapsim import dp, runner

    def stop_before(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sys.stdout.flush()
            os._exit(0)
        return wrapper

    for key, fn in list(runner.PROTOCOLS.items()):
        patches.setitem(runner.PROTOCOLS, key, stop_before(fn))
    patches.setattr(dp.DPTable, "extend_to", stop_before(vars(dp.DPTable)["extend_to"]))
    patches.everywhere(dp.parallel_runs, stop_before(dp.parallel_runs))


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced command; 0 where a layer did not run."""
    s, incl, calls, n = t.self_s, t.incl_s, t.calls, t.counts
    rows, rounds, psamples = calls["dp.row"], calls["protocols.round"], calls["protocols.psample"]
    callbacks = calls["adversaries.callback"]
    samples = len(t.runner_sample_s)
    protocol_s = s["protocols.psample"] + s["protocols.round"]
    lockstep_s = s["dp.lockstep"]
    return {
        "dp.row_ms": _per(incl["dp.row"], rows, 1e3),
        "dp.row_ms_drift": drift(t.row_s),
        "dp.rows_built": rows,
        "dp.states": n["states"],
        "dp.slices_rebuilt": n["slices_rebuilt"],
        "dp.slice_rebuild_s": t.slice_rebuild_s,
        "dp.rebuild_ratio": _per(n["slices_rebuilt"], rows),
        "dp.lockstep_s": lockstep_s,
        "dp.lockstep_us_per_run_sample": _per(lockstep_s, n["lockstep_run_samples"], 1e6),
        "dp.state_space_s": incl["dp.state_space"],
        "games.oracle_calls": calls["games.oracle"],
        "games.oracle_s": incl["games.oracle"],
        "protocols.psamples": psamples,
        "protocols.elim_rounds": rounds,
        "protocols.self_s": protocol_s,
        "protocols.us_per_round": _per(s["protocols.round"], rounds, 1e6),
        "protocols.us_per_psample": _per(protocol_s, psamples, 1e6),
        "protocols.violations": n["violations"],
        "adversaries.callbacks": callbacks,
        "adversaries.self_s": s["adversaries.callback"],
        "adversaries.us_per_callback": _per(s["adversaries.callback"], callbacks, 1e6),
        "adversaries.aborts": n["aborts"],
        "runner.samples": samples,
        "runner.self_s": s["runner.run"],
        "runner.us_per_sample": _per(s["runner.run"], samples, 1e6),
        "runner.sample_cost_drift": drift(t.runner_sample_s),
        "streams.substreams": calls["streams.substream"],
        "streams.s": incl["streams.substream"],
        "csvio.render_s": incl["csvio.render"],
        "csvio.bytes_out": n["bytes_out"],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--metrics-out", help="write the per-layer metrics here as JSON")
    ap.add_argument("--stop-at-first-work", action="store_true",
                    help="exit at the first P-sample, DP row or lockstep step")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then shapsim CLI arguments")
    args = ap.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import shapsim.cli

    patches = Patches()
    if args.stop_at_first_work:
        install_stop_hooks(patches)
        shapsim.cli.main(cli_args)
        print("the command finished without reaching a P-sample, DP row or lockstep step",
              file=sys.stderr)
        return EXIT_STOP_NOT_REACHED

    tracer = Tracer()
    install(tracer, patches)
    try:
        rc = shapsim.cli.main(cli_args)
    finally:
        wrong = patches.restore()
    if wrong:
        print(f"bindings not restored: {', '.join(wrong)}", file=sys.stderr)
        return EXIT_NOT_RESTORED
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(layer_metrics(tracer), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
