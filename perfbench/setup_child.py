"""Set-up as a user pays it, in a fresh interpreter.

Usage: python setup_child.py WORKDIR

Imports seqpava and builds the workload's inputs through the public
constructors (``group``, ``WeightedSeries``, ``init``) from the arrays in
WORKDIR, then prints n, m and the sum of the initial fit for the check.
"""
import json
import sys

import numpy as np

import seqpava
from seqpava.sequential import init


def main() -> None:
    work = sys.argv[1]
    pairs = np.load(f"{work}/pairs.npy")
    z = np.load(f"{work}/z.npy")
    w = np.load(f"{work}/w.npy")
    obs = seqpava.group(pairs)
    state = init(seqpava.WeightedSeries(z, w))
    print(json.dumps({"n": obs.n, "m": obs.m, "fit_sum": float(state.fit().sum())}))


if __name__ == "__main__":
    main()
