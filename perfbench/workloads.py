"""The benchmark's workloads: which CLI commands run, on which inputs.

Each workload is a fixed list of ``cayleyx`` CLI invocations (ops).  The
``full`` size is what the benchmark measures; the ``toy`` size runs the same
commands on tiny inputs, for warm-up and for the self-test.

Why these three workloads:

* ``construct`` -- a few large graphs (n = 1024, 256).  BFS statistics
  dominate; GF(2^m) scalar enumeration and artifact writing are the rest.
  It is the only workload that exercises ``gf2``.
* ``search`` -- thousands of tiny graphs and subsets, so per-call overhead
  dominates.  It bypasses ``gf2`` and all dense linear algebra, so fixed
  per-call set-up added to ``spectral`` or ``graphs`` shows here as a loss.
* ``analyze`` -- random symmetric connection sets made from the seed and
  read back from graph.json: the read side of serialization, connection-set
  validation, the dense oracle, the dense srg check and crossing batches.
  It bypasses ``gf2`` and ``search``.

``construct`` and ``search`` do not depend on the seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

import checks

WORKLOADS = ("construct", "search", "analyze")
# Workloads whose wall_s is rescaled by the machine speed (see run.py): their
# passes are pure-Python loops like the calibration kernel.  analyze spends
# about half its time in dense BLAS, which the kernel does not track
# (rescaling doubled its run-to-run spread), so it is reported unscaled.
CALIBRATED = ("construct", "search")

CONSTRUCT = {
    "full": [("kloosterman-trace", {"m": 10}), ("polar-trace", {"m": 5}),
             ("bent-hadamard", {"u": 5}), ("theorem33", {"s": 16, "r": 16}),
             ("dij", {"m": 10, "i": 0, "j": 1})],
    "toy": [("kloosterman-trace", {"m": 4}), ("polar-trace", {"m": 2}),
            ("bent-hadamard", {"u": 2}), ("theorem33", {"s": 4, "r": 4}),
            ("dij", {"m": 4, "i": 0, "j": 1})],
}

SEARCH = {
    "full": [("ramanujan", 24), ("gds", 18)],
    "toy": [("ramanujan", 8), ("gds", 6)],
}

# (factors, degree).  No degree k here makes 4(k-1) a perfect square, so an
# integer eigenvalue never sits exactly on the Ramanujan bound.
ANALYZE = {
    "full": [((16, 16, 8), 40), ((2,) * 11, 60), ((2048,), 30), ((32, 32), 256)],
    "toy": [((4, 4, 2), 6), ((2,) * 5, 8), ((32,), 6), ((8, 8), 16)],
}

@dataclass
class Op:
    """One CLI invocation, where it writes, and what its outputs must show."""

    label: str
    kind: str                 # construct | search | analyze
    argv: list
    out: str
    expect: dict = field(default_factory=dict)
    graph: tuple = None       # analyze: (factors, connection set) it reads
    scanned: int = 0          # search: candidate subsets the scan visits


def load_reference():
    """Verdicts and hit counts recorded for construct and search."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")) as f:
        return json.load(f)


def construct_label(name, params):
    return name + " " + " ".join(f"{k}={v}" for k, v in params.items())


def search_label(mode, n):
    return f"{mode} n={n}"


def search_scanned(mode, n):
    """Subsets the exhaustive scan visits: 2^floor(n/2) - 1 symmetric
    encodings for circulants, 2^n bitmasks for GDS."""
    return (1 << (n // 2)) - 1 if mode == "ramanujan" else 1 << n


def make_ops(workload, size, seed, workdir, reference):
    """The workload's ops, with their inputs written under ``workdir``."""
    ops = []
    if workload == "construct":
        for i, (name, params) in enumerate(CONSTRUCT[size]):
            label = construct_label(name, params)
            out = os.path.join(workdir, f"op{i}")
            argv = ["construct", name] + [a for k, v in params.items()
                                          for a in (f"--{k}", str(v))]
            ops.append(Op(label, "construct", argv + ["--out", out], out,
                          expect=dict(reference["construct"][size][label])))
    elif workload == "search":
        for i, (mode, n) in enumerate(SEARCH[size]):
            label = search_label(mode, n)
            out = os.path.join(workdir, f"op{i}")
            ops.append(Op(label, "search",
                          ["search", mode, "--n", str(n), "--out", out], out,
                          expect={"hits": reference["search"][size][label]},
                          scanned=search_scanned(mode, n)))
    elif workload == "analyze":
        rng = random.Random(seed)
        inputs = os.path.join(workdir, "inputs")
        os.makedirs(inputs, exist_ok=True)
        for i, (factors, k) in enumerate(ANALYZE[size]):
            conn = random_connected_set(factors, k, rng)
            path = os.path.join(inputs, f"graph{i}.json")
            with open(path, "w") as f:
                json.dump({"factors": list(factors), "connection_set": conn}, f)
            out = os.path.join(workdir, f"op{i}")
            label = f"Z{'xZ'.join(map(str, factors))} k={k}"
            ops.append(Op(label, "analyze",
                          ["analyze", path, "--out", out, "--seed", str(seed)], out,
                          graph=(tuple(factors), conn)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def random_connected_set(factors, k, rng):
    """A uniformly shuffled symmetric, identity-free set of exactly k elements
    (as coordinate lists) whose Cayley graph is connected."""
    n = math.prod(factors)
    coords = np.indices(factors).reshape(len(factors), -1)
    neg = np.ravel_multi_index(tuple((-coords) % np.array(factors)[:, None]), factors)
    pairs = [(i,) if neg[i] == i else (i, int(neg[i]))
             for i in range(1, n) if i <= neg[i]]
    for _attempt in range(1000):
        rng.shuffle(pairs)
        chosen = []
        for p in pairs:
            if len(chosen) + len(p) <= k:
                chosen.extend(p)
                if len(chosen) == k:
                    break
        if len(chosen) != k:
            continue  # the order left an odd remainder and no fixed point
        conn = sorted(coords[:, i].tolist() for i in chosen)
        if checks.bfs_stats(factors, conn)["components"] == 1:
            return conn
    raise ValueError(f"no connected symmetric set of size {k} in {factors}")
