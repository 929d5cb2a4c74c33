"""Command-line front door: construct, analyze, search, export.

Human-readable summary goes to stdout; machine artifacts (graph.json,
spectrum.csv, verdict.json, hits.jsonl, graph.dot) go to --out.  Exit codes:
0 success, 2 usage/parameter error, 3 data-invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

from . import constructions, search
from .graphs import CayleyGraph, InvariantError
from .groupring import _certificate, search_gds
from .spectral import (
    ORACLE_MAX_N,
    ramanujan_check,
    spectra_agree,
    spectrum_by_characters,
    spectrum_oracle,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVARIANT = 3
CROSSING_TRIALS = 64


class ParameterError(Exception):
    pass


def _write(outdir, name, text):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w") as f:
        f.write(text)
    return path


def _emit_graph_artifacts(args, graph, spectrum, verdict, extra=None):
    outdir = args.out
    _write(outdir, "graph.json", json.dumps(graph.to_json(), sort_keys=True, indent=2) + "\n")
    _write(outdir, "spectrum.csv", spectrum.to_csv())
    payload = verdict.to_json()
    if extra:
        payload.update(extra)
    _write(outdir, "verdict.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if args.format == "dot":
        _write(outdir, "graph.dot", graph.to_dot())


def cmd_construct(args):
    name = args.name
    try:
        if name == "theorem33":
            _require(args, "s", "r")
            report = constructions.theorem33_set(args.s, args.r)
        elif name == "kloosterman-trace":
            _require(args, "m")
            report = constructions.kloosterman_trace_set(args.m)
        elif name == "polar-trace":
            _require(args, "m")
            report = constructions.polar_trace_set(args.m)
        elif name == "bent-hadamard":
            _require(args, "u")
            report = constructions.bent_hadamard_set(args.u)
        elif name == "dij":
            _require(args, "m", "i", "j")
            conn = constructions.dij_set(args.m, args.i, args.j)
            if not conn:
                raise ParameterError(f"D_{args.i},{args.j} is empty for m={args.m}")
            graph = CayleyGraph(conn)
            spec = spectrum_by_characters(graph)
            verdict = ramanujan_check(spec, graph.k, graph.is_connected())
            _emit_graph_artifacts(args, graph, spec, verdict)
            print(f"dij m={args.m} i={args.i} j={args.j}: degree {graph.k}, "
                  f"ramanujan={verdict.is_ramanujan}")
            return EXIT_OK
        else:  # pragma: no cover - argparse restricts choices
            raise ParameterError(f"unknown construction {name}")
    except ValueError as e:
        raise ParameterError(str(e))
    extra = {
        "predicted_degree": report.predicted_degree,
        "predicted_ramanujan": report.predicted_ramanujan,
        "discrepancies": report.discrepancies,
        "notes": report.notes,
    }
    _emit_graph_artifacts(args, report.graph, report.spectrum, report.verdict, extra)
    st = report.stats
    print(f"{name}: n={report.graph.n} degree={report.graph.k} "
          f"components={st.component_count} bipartite={st.bipartite} "
          f"diameter={st.diameter} ramanujan={report.verdict.is_ramanujan}")
    for d in report.discrepancies:
        print(f"  discrepancy: {d}")
    return EXIT_OK


def _require(args, *names):
    for nm in names:
        if getattr(args, nm, None) is None:
            raise ParameterError(f"construction {args.name!r} needs --{nm}")


def _seeded_crossing_check(graph, spec, seed):
    """Crossing-edge bound (k - lambda2)|O1||O2|/n versus exact counts on
    seeded random partitions; deterministic per seed."""
    import numpy as np

    from .spectral import crossing_counts_batch, second_largest_by_index

    rng = np.random.default_rng(seed)
    X = (rng.random((graph.n, CROSSING_TRIALS)) < 0.5).astype(float)
    actual, sizes = crossing_counts_batch(graph, X)
    gap = graph.k - second_largest_by_index(spec, graph.k)
    bounds = gap * sizes * (graph.n - sizes) / graph.n
    violations = int((actual < bounds - 1e-9).sum())
    return {"seed": seed, "trials": CROSSING_TRIALS, "violations": violations}


def cmd_analyze(args):
    try:
        with open(args.input) as f:
            obj = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read graph JSON: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        graph = CayleyGraph.from_json(obj)
    except InvariantError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except (KeyError, TypeError, ValueError) as e:
        print(f"error: malformed graph JSON: {e}", file=sys.stderr)
        return EXIT_USAGE
    spec = spectrum_by_characters(graph)
    oracle_ok = "skipped"  # the dense oracle is capped at ORACLE_MAX_N
    if graph.n <= ORACLE_MAX_N:
        oracle_ok = spectra_agree(spec, spectrum_oracle(graph))
    st = graph.stats()
    verdict = ramanujan_check(spec, graph.k, st.component_count == 1)
    # C = -C, so the common-neighbour counts are the difference counts
    cert = _certificate(graph.group, graph.connection.indices,
                        graph.common_neighbor_counts().ravel()[1:].tolist())
    srg = None
    if st.component_count == 1:
        srg = graph.srg_check()
    crossing = _seeded_crossing_check(graph, spec, args.seed)
    extra = {
        "crossing_checks": crossing,
        "components": st.component_count,
        "bipartite": st.bipartite,
        "diameter": st.diameter if st.diameter != float("inf") else None,
        "oracle_agrees": oracle_ok,
        "gds": cert.to_json() if cert else None,
        "srg": list(srg) if srg else None,
    }
    _emit_graph_artifacts(args, graph, spec, verdict, extra)
    print(f"n={graph.n} k={graph.k} components={st.component_count} "
          f"bipartite={st.bipartite} diameter={st.diameter}")
    print(f"ramanujan={verdict.is_ramanujan} oracle_agrees={oracle_ok}")
    if cert:
        print(f"gds={cert.parameters}")
    if srg:
        print(f"srg={srg}")
    return EXIT_OK


def cmd_search(args):
    t0 = time.time()
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "hits.jsonl")
    count = 0
    try:
        with open(path, "w") as f:
            if args.mode == "ramanujan":
                with open(os.path.join(outdir, "hits.csv"), "w") as g:
                    rows = csv.writer(g)
                    rows.writerow(search.CSV_HEADER)
                    for hit in search.search_ramanujan_circulant(args.n, args.minDegree):
                        f.write(hit.to_json_line() + "\n")
                        rows.writerow(hit.csv_row())
                        count += 1
            else:
                for C, cert in search_gds(args.n):
                    line = {"n": args.n, "C": C.tolist(),
                            "certificate": cert.to_json()}
                    f.write(json.dumps(line, sort_keys=True) + "\n")
                    count += 1
    except ValueError as e:
        raise ParameterError(str(e))
    print(f"search {args.mode} n={args.n}: {count} hits in {time.time() - t0:.2f}s "
          f"-> {path}")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="cayleyx",
                                description="Cayley graph spectra and expander certification")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a named construction and certify it")
    c.add_argument("name", choices=["theorem33", "kloosterman-trace", "polar-trace",
                                    "bent-hadamard", "dij"])
    c.add_argument("--s", type=int)
    c.add_argument("--r", type=int)
    c.add_argument("--m", type=int)
    c.add_argument("--u", type=int)
    c.add_argument("--i", type=int)
    c.add_argument("--j", type=int)
    c.add_argument("--out", default=".")
    c.add_argument("--format", choices=["json", "dot"], default="json")
    c.set_defaults(func=cmd_construct)

    a = sub.add_parser("analyze", help="analyze a graph JSON file")
    a.add_argument("input")
    a.add_argument("--out", default=".")
    a.add_argument("--format", choices=["json", "dot"], default="json")
    a.add_argument("--seed", type=int, default=0)
    a.set_defaults(func=cmd_analyze)

    s = sub.add_parser("search", help="exhaustive GDS / Ramanujan-circulant search")
    s.add_argument("mode", choices=["gds", "ramanujan"])
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--minDegree", type=int, default=2)
    s.add_argument("--out", default=".")
    s.set_defaults(func=cmd_search)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
