"""Output checks for the benchmark's ops, keyed to meaning rather than bytes.

An op fails when it exits non-zero or when one of these does not hold:

* spectrum.csv: sum of multiplicities = n, sum m*lambda = 0 and
  sum m*lambda^2 = n*k; exact entries are summed exactly, and only
  non-exact entries get a float tolerance;
* degree, components, bipartite, diameter and is_ramanujan equal the
  reference: recorded in reference.json for ``construct``, computed here by
  an independent numpy BFS and FFT for the seeded ``analyze`` graphs;
* analyze: ``oracle_agrees`` is true;
* search: the hit count equals the reference and hits.jsonl lists them in
  strictly increasing encoding order.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from fractions import Fraction

import numpy as np

SUMMARY = re.compile(r"components=(\d+) bipartite=(True|False) diameter=(\S+)")
RAMANUJAN_MARGIN = 1e-6


def check_op(op, rc, stdout):
    """Problems with one op's run, as a list of messages (empty when fine)."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        if op.kind == "search":
            return _check_search(op)
        return _check_graph_artifacts(op, stdout)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"unreadable output: {type(e).__name__}: {e}"]


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def _check_graph_artifacts(op, stdout):
    graph = _read_json(os.path.join(op.out, "graph.json"))
    verdict = _read_json(os.path.join(op.out, "verdict.json"))
    n = math.prod(graph["factors"])
    k = len(graph["connection_set"])
    problems = spectrum_problems(os.path.join(op.out, "spectrum.csv"), n, k)
    observed = {"degree": k, "is_ramanujan": verdict.get("is_ramanujan")}
    for key in ("components", "bipartite", "diameter"):
        if key in verdict:
            observed[key] = verdict[key]
    match = SUMMARY.search(stdout)
    if match:
        observed.setdefault("components", int(match.group(1)))
        observed.setdefault("bipartite", match.group(2) == "True")
        diameter = match.group(3)
        observed.setdefault("diameter", None if diameter == "inf" else int(diameter))
    if op.kind == "analyze":
        if not op.expect:
            op.expect = graph_reference(*op.graph)
        if verdict.get("oracle_agrees") is not True:
            problems.append("oracle_agrees is not true")
    for key, want in op.expect.items():
        if observed.get(key, "missing") != want:
            problems.append(f"{key}: got {observed.get(key, 'missing')}, reference {want}")
    return problems


def spectrum_problems(path, n, k):
    """Trace identities of a k-regular simple graph on n vertices."""
    count = 0
    exact1 = exact2 = Fraction(0)
    approx1 = approx2 = scale1 = scale2 = 0.0
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            m = int(row["multiplicity"])
            count += m
            if row["exact"] == "1":
                v = Fraction(row["value"])
                exact1 += m * v
                exact2 += m * v * v
            else:
                v = float(row["value"])
                approx1 += m * v
                approx2 += m * v * v
                scale1 += m * abs(v)
                scale2 += m * v * v
    problems = []
    if count != n:
        problems.append(f"spectrum multiplicities sum to {count}, not n={n}")
    # the tolerances are 0 when every entry is exact
    trace = float(exact1) + approx1
    if abs(trace) > 1e-9 * scale1:
        problems.append(f"spectrum trace is {trace}, not 0")
    squares = float(exact2 - n * k) + approx2
    if abs(squares) > 1e-9 * scale2:
        problems.append(f"spectrum sum of squares is off n*k={n * k} by {squares}")
    return problems


def _check_search(op):
    encodings = []
    with open(os.path.join(op.out, "hits.jsonl")) as f:
        for line in f:
            hit = json.loads(line)
            if "s" in hit:
                encodings.append(hit["s"])
            else:
                encodings.append(sum(1 << c for c in hit["C"]))
    problems = []
    if len(encodings) != op.expect["hits"]:
        problems.append(f"{len(encodings)} hits, reference {op.expect['hits']}")
    if any(a >= b for a, b in zip(encodings, encodings[1:])):
        problems.append("hits are not in increasing encoding order")
    return problems


def neighbor_table(factors, conn):
    """n x k array: row v lists the lexicographic indices of v + c."""
    coords = np.indices(factors).reshape(len(factors), -1)
    C = np.array(conn, dtype=np.int64).T
    mod = np.array(factors)[:, None, None]
    return np.ravel_multi_index(tuple((coords[:, :, None] + C[:, None, :]) % mod), factors)


def bfs_stats(factors, conn):
    """Components, bipartiteness and diameter by level-synchronous BFS."""
    nb = neighbor_table(factors, conn)
    n = nb.shape[0]
    dist = np.full(n, -1, dtype=np.int64)
    components = 0
    while True:
        todo = np.flatnonzero(dist < 0)
        if todo.size == 0:
            break
        components += 1
        frontier = todo[:1]
        dist[frontier] = 0
        level = 0
        while frontier.size:
            nxt = np.unique(nb[frontier].ravel())
            nxt = nxt[dist[nxt] < 0]
            level += 1
            dist[nxt] = level
            frontier = nxt
    # BFS levels 2-colour a component unless an edge joins two vertices of
    # the same level parity, which closes an odd cycle
    bipartite = bool(np.all((dist[:, None] + dist[nb]) % 2 == 1))
    # vertex-transitive: the eccentricity of vertex 0 is the diameter
    diameter = int(dist.max()) if components == 1 else None
    return {"components": components, "bipartite": bipartite, "diameter": diameter}


def graph_reference(factors, conn):
    """Expected verdict fields for a Cayley graph, computed without cayleyx.

    ``is_ramanujan`` is left out when the largest non-trivial |eigenvalue|
    lies within RAMANUJAN_MARGIN of 2*sqrt(k-1), where floats cannot decide.
    """
    k = len(conn)
    ref = {"degree": k, **bfs_stats(factors, conn)}
    ind = np.zeros(factors)
    ind[tuple(np.array(conn).T)] = 1.0
    lam = np.abs(np.fft.fftn(ind).real.ravel())
    rest = lam[np.abs(lam - k) > RAMANUJAN_MARGIN]
    second = float(rest.max()) if rest.size else 0.0
    bound = 2.0 * math.sqrt(k - 1)
    if ref["components"] != 1:
        ref["is_ramanujan"] = False
    elif abs(second - bound) > RAMANUJAN_MARGIN:
        ref["is_ramanujan"] = second < bound
    return ref
