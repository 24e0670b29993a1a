#!/usr/bin/env python3
"""A fixed reference program that gauges how fast the host runs right now.

The benchmark times it, in a fresh interpreter, before and after each
command, and divides the command's times by how much slower than usual the
reference ran (see ``run.py``).  It does the kinds of work shapsim's commands
do: interpreter start and the numpy import, dict and tuple bookkeeping with
``random.Random`` draws, many small numpy calls, and numpy passes over an
array of a few MB.  It never imports shapsim, so no change to shapsim can move
its time.  It writes nothing.
"""

import random

import numpy as np


def main() -> None:
    rng = random.Random(12345)
    counts: dict[tuple[int, int], int] = {}
    history = []
    for i in range(120_000):
        key = (rng.randrange(64), i & 7)
        counts[key] = counts.get(key, 0) + 1
        history.append(key)
    wide = np.random.default_rng(1).random((8192, 16))
    total = 0.0
    for _ in range(200):
        total += float(np.maximum(wide[:, :8], wide[:, 8:]).sum())
    small = np.arange(20.0)
    for _ in range(20_000):
        small = np.minimum(small * 1.0001, 50.0)
    if len(counts) != 512 or len(history) != 120_000 or not total > 0:
        raise SystemExit("reference computation went wrong")


if __name__ == "__main__":
    main()
