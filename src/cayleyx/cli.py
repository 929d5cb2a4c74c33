"""Command-line front door: construct, analyze, search.

Human-readable summary goes to stdout; machine artifacts (graph.json,
spectrum.csv, verdict.json, hits.jsonl, graph.dot) go to --out, each created
afresh by :func:`_create`, never truncated in place or written through a link.
construct and analyze run no check themselves: both write the report of
:func:`cayleyx.constructions.certify` (construct adds its predictions).
Exit codes: 0 success, 2 usage/parameter error (an unwritable --out among
them), 3 data-invariant violation or failed exactness check (an
ArithmeticError of the exact routes).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
import time

import numpy as np

from . import constructions, groupring, search
from .graphs import DOT_MAX_EDGES, CayleyGraph, InvariantError
from .groups import AbelianGroup, check_order

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVARIANT = 3
COORDINATE_ROWS = 4096  # rows per formatted chunk of a streamed coordinate list
COORDINATE_TABLE = 4096  # entries of a table of formatted coordinates, at most
HIT_DIGIT_BITS = 8  # bits of a hit's mask read per token-table lookup


class ParameterError(Exception):
    pass


def _make_out(outdir):
    """Make the output directory (once per command, after its refusals)."""
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as e:
        raise ParameterError(f"cannot write {outdir}: {e.strerror}") from e
    return outdir


@contextlib.contextmanager
def _create(path):
    """``path`` opened for writing as a new file, what was there unlinked (on
    ext4, truncating a file costs several times an unlink and a create).
    An OSError while opening or writing is a :class:`ParameterError`."""
    try:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        with open(path, "x") as f:
            yield f
    except OSError as e:
        raise ParameterError(f"cannot write {path}: {e.strerror}") from e


def _write(outdir, name, text):
    with _create(os.path.join(outdir, name)) as f:
        f.write(text)


def _write_coordinates(f, factors, indices):
    """Write the list of coordinate lists of the flat ``indices`` on the
    grid ``factors`` to ``f`` as ``json.dumps`` with ``indent=2`` lays out
    a value of a top-level key.

    Consecutive factors are merged into runs whose product is at most
    ``COORDINATE_TABLE`` and at most a quarter of the rows, so the tables
    cost little next to the rows.  A run's part of a row is read from a
    table of its formatted coordinates by the run's digit of the flat index
    (``AbelianGroup.digits`` on the grid of the runs' products); a single
    larger factor is formatted as an int.
    The rows go ``COORDINATE_ROWS`` at a time: one ``%`` per chunk, written
    at once.
    """
    if not indices.size:
        f.write("[]")
        return
    sep, limit = ",\n      ", min(COORDINATE_TABLE, max(2, indices.size // 4))
    runs = []  # [product, factors] of each run, first to last
    for d in factors:
        if runs and runs[-1][0] * d <= limit:
            runs[-1][0] *= d
            runs[-1][1].append(d)
        else:
            runs.append([d, [d]])
    tables = []
    for size, run in runs:
        table = None
        if size <= limit:  # the run's formatted coordinates, in ravel order
            table = [str(x) for x in range(run[0])]
            for d in run[1:]:
                tail = [sep + str(x) for x in range(d)]
                table = [t + u for t in table for u in tail]
            table = np.array(table, dtype=object)
        tables.append(table)
    grid = AbelianGroup([size for size, _ in runs])
    fields = ["%d" if table is None else "%s" for table in tables]
    row = "    [\n      " + sep.join(fields) + "\n    ]"
    f.write("[\n")
    for at in range(0, indices.size, COORDINATE_ROWS):
        chunk = indices[at:at + COORDINATE_ROWS]
        parts = np.empty((chunk.size, len(tables)), dtype=object)
        for j, digit in grid.digits(chunk):
            parts[:, j] = digit if tables[j] is None else tables[j][digit]
        if at:
            f.write(",\n")
        f.write(",\n".join([row] * chunk.size) % tuple(parts.ravel().tolist()))
    f.write("\n  ]")


def _write_graph(outdir, factors, indices):
    """Write graph.json, ``json.dumps(..., sort_keys=True, indent=2) + "\\n"``
    of the graph's ``to_json()`` byte for byte, its connection set streamed
    by :func:`_write_coordinates`."""
    with _create(os.path.join(outdir, "graph.json")) as f:
        f.write('{\n  "connection_set": ')
        _write_coordinates(f, factors, indices)
        f.write("," + json.dumps({"factors": factors}, indent=2)[1:] + "\n")


def _check_format(args, graph):
    """Refuse ``--format dot`` above ``DOT_MAX_EDGES`` edges, before any
    artifact is written: its n x k neighbour array would not fit."""
    edges = graph.n * graph.k // 2
    if args.format == "dot" and edges > DOT_MAX_EDGES:
        raise ParameterError(f"--format dot is limited to {DOT_MAX_EDGES} edges; "
                             f"this graph has {edges}")


def _emit_graph_artifacts(args, report, verdict):
    """Write graph.json, spectrum.csv, verdict.json (the dict ``verdict``)
    and, with ``--format dot``, graph.dot."""
    graph = report.graph
    _check_format(args, graph)
    outdir = _make_out(args.out)
    _write_graph(outdir, list(graph.group.factors), graph.connection.indices)
    _write(outdir, "spectrum.csv", report.spectrum.to_csv())
    _write(outdir, "verdict.json", json.dumps(verdict, sort_keys=True, indent=2) + "\n")
    if args.format == "dot":
        _write(outdir, "graph.dot", graph.to_dot())
    else:  # an earlier run's graph.dot would show another graph (a directory stays)
        with contextlib.suppress(FileNotFoundError, IsADirectoryError):
            os.unlink(os.path.join(outdir, "graph.dot"))


def _dij(m, i, j):
    """The certification of D_{i,j}, which has no closed forms."""
    return constructions.certify(CayleyGraph(constructions.dij_set(m, i, j)))


# name -> (builder of its report, the options it takes, in order)
CONSTRUCTIONS = {
    "theorem33": (constructions.theorem33_set, ("s", "r")),
    "kloosterman-trace": (constructions.kloosterman_trace_set, ("m",)),
    "polar-trace": (constructions.polar_trace_set, ("m",)),
    "bent-hadamard": (constructions.bent_hadamard_set, ("u",)),
    "dij": (_dij, ("m", "i", "j")),
}


def _construct_options():
    """Every option of a construct name, in table order."""
    return list(dict.fromkeys(nm for _, names in CONSTRUCTIONS.values() for nm in names))


def cmd_construct(args):
    build, names = CONSTRUCTIONS[args.name]
    for nm in _construct_options():
        given = getattr(args, nm) is not None
        if nm in names and not given:
            raise ParameterError(f"construction {args.name!r} needs --{nm}")
        if given and nm not in names:
            raise ParameterError(f"construction {args.name!r} takes no --{nm}")
    try:
        report = build(*(getattr(args, nm) for nm in names))
    except ValueError as e:
        raise ParameterError(str(e))
    _emit_graph_artifacts(args, report, {
        **report.to_json(), "predicted_degree": report.predicted_degree,
        "predicted_ramanujan": report.predicted_ramanujan,
        "discrepancies": report.discrepancies, "notes": report.notes})
    graph, st = report.graph, report.stats
    print(f"{args.name}: n={graph.n} degree={graph.k} "
          f"components={st.component_count} bipartite={st.bipartite} "
          f"diameter={st.diameter} ramanujan={report.verdict.is_ramanujan}")
    for d in report.discrepancies:
        print(f"  discrepancy: {d}")
    return EXIT_OK


def cmd_analyze(args):
    if args.seed < 0:  # the table identity draws its weights from --seed
        raise ParameterError(f"--seed must be >= 0, got {args.seed}")
    try:
        with open(args.input, encoding="utf-8") as f:
            obj = json.load(f)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        print(f"error: cannot read graph JSON: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        n = AbelianGroup.from_json(obj).order  # before anything of size n exists
        try:  # the limit of every construction, so analyze refuses no graph construct writes
            check_order(n, "analyze")
        except ValueError as e:
            raise ParameterError(str(e))
        graph = CayleyGraph.from_json(obj)
    except InvariantError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except (KeyError, TypeError, ValueError) as e:
        print(f"error: malformed graph JSON: {e}", file=sys.stderr)
        return EXIT_USAGE
    _check_format(args, graph)
    report = constructions.certify(graph, args.seed)
    _emit_graph_artifacts(args, report, report.to_json())
    st = report.stats
    print(f"n={graph.n} k={graph.k} components={st.component_count} "
          f"bipartite={st.bipartite} diameter={st.diameter}")
    print(f"ramanujan={report.verdict.is_ramanujan} oracle_agrees={report.oracle_agrees}")
    if report.gds:
        print(f"gds={report.gds.parameters}")
    if report.srg:
        print(f"srg={report.srg}")
    return EXIT_OK


class _SetText:
    """``", ".join`` of the elements of sets of Z_n held as int masks (bit i
    <-> i), one list per array of masks.

    A mask is read ``HIT_DIGIT_BITS`` bits at a time.  Each digit has a
    table, built once, whose entry v is the text ``", " + str(i)`` of every
    set bit i of v in that digit, ascending; a set's text is its digits'
    looked-up entries added up as object arrays, less the leading ``", "``.
    """

    def __init__(self, n):
        self.tables = []
        for low in range(0, n, HIT_DIGIT_BITS):
            table = [""]
            for i in range(low, min(low + HIT_DIGIT_BITS, n)):
                token = ", " + str(i)
                table += [t + token for t in table]  # the values with bit i set
            self.tables.append(np.array(table, dtype=object))

    def __call__(self, masks):
        masks, digit = np.asarray(masks, dtype=np.int64), (1 << HIT_DIGIT_BITS) - 1
        text = self.tables[0][masks & digit]
        for j, table in enumerate(self.tables[1:], 1):
            text += table[masks >> (j * HIT_DIGIT_BITS) & digit]
        return [t[2:] for t in text.tolist()]


def _fill(template, *columns):
    """``template`` once per row, filled by one ``%`` from the fields of
    ``columns`` (equal-length sequences) in row-major order."""
    return (template * len(columns[0])) % tuple(itertools.chain.from_iterable(zip(*columns)))


def _ramanujan_text(n):
    """The formatter of the circulant hits of Z_n: a function from a chunk
    (see :func:`cayleyx.search._chunks`) to its hits.jsonl lines, byte for
    byte ``json.dumps({"C", "boundary_flag", "lambda2_abs", "n", "s"},
    sort_keys=True)`` of each hit: ints print as themselves and floats by
    ``repr``.  Each C is read from a :class:`_SetText` table; the hits share
    few distinct eigenvalues, so their ``repr`` is kept per value and type.
    The chunk's text is one ``%`` format."""
    C_text, number = _SetText(n), functools.lru_cache(maxsize=None, typed=True)(repr)
    line = '{"C": [%s], "boundary_flag": %s, "lambda2_abs": %s, "n": ' + str(n) + ', "s": %d}\n'

    def text(chunk):
        s, _, masks, second, boundary = chunk
        flag = np.where(boundary, "true", "false").tolist()
        return _fill(line, C_text(masks), flag, list(map(number, second)), s.tolist())
    return text


def _gds_text(n):
    """The formatter of the GDS hits of Z_n: a function from a chunk (see
    :func:`cayleyx.groupring._chunks`) to its hits.jsonl lines, byte for byte
    ``json.dumps({"C", "gds", "n"}, sort_keys=True)`` of each hit, ``gds``
    being the certificate's ``[n, |S|, k, mu1, mu2]``.  C is read from a
    :class:`_SetText` table, |S| and k are row sums of the presentation's
    and the masks' bits; the chunk's text is one ``%`` format."""
    C_text = _SetText(n)
    line = '{"C": [%s], "gds": [' + str(n) + ', %d, %d, %d, %d], "n": ' + str(n) + '}\n'

    def text(chunk):
        masks, counts = chunk
        mu1, mu2, in_S = groupring._presentation(counts)
        return _fill(line, C_text(masks), in_S.sum(axis=1).tolist(),
                     np.bitwise_count(masks).tolist(), mu1.tolist(), mu2.tolist())
    return text


def cmd_search(args):
    """Write the hits of one search to hits.jsonl, one write per chunk of
    hits.  n, and that ``--minDegree`` (default 2) is given to the circulant
    search only and is at least 1, are checked before any file is opened."""
    t0 = time.perf_counter()
    n, outdir = args.n, args.out
    try:
        if args.mode == "ramanujan":
            min_degree = 2 if args.minDegree is None else args.minDegree
            chunks, text = search._chunks(n, min_degree), _ramanujan_text(n)
        elif args.minDegree is not None:
            raise ParameterError("--minDegree applies to search ramanujan only")
        else:
            chunks, text = groupring._chunks(n), _gds_text(n)
    except ValueError as e:
        raise ParameterError(str(e))
    _make_out(outdir)
    path = os.path.join(outdir, "hits.jsonl")
    count = 0
    with _create(path) as f:
        for chunk in chunks:
            f.write(text(chunk))
            count += len(chunk[0])
    print(f"search {args.mode} n={n}: {count} hits in {time.perf_counter() - t0:.2f}s "
          f"-> {path}")
    return EXIT_OK


@functools.cache
def build_parser():
    p = argparse.ArgumentParser(prog="cayleyx",
                                description="Cayley graph spectra and expander certification")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a named construction and certify it")
    c.add_argument("name", choices=list(CONSTRUCTIONS))
    for nm in _construct_options():
        c.add_argument(f"--{nm}", type=int)
    c.add_argument("--out", default=".")
    c.add_argument("--format", choices=["json", "dot"], default="json")
    c.set_defaults(func=cmd_construct)

    a = sub.add_parser("analyze", help="analyze a graph JSON file")
    a.add_argument("input")
    a.add_argument("--out", default=".")
    a.add_argument("--format", choices=["json", "dot"], default="json")
    a.add_argument("--seed", type=int, default=0,
                   help="seed of the randomized checks, >= 0 (the character-table identity "
                        "draws its weights from it)")
    a.set_defaults(func=cmd_analyze)

    s = sub.add_parser("search", help="exhaustive GDS / Ramanujan-circulant search")
    s.add_argument("mode", choices=["gds", "ramanujan"])
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--minDegree", type=int,
                   help="smallest degree of a circulant hit (ramanujan only; default 2)")
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
    except ArithmeticError as e:
        print(f"error: exactness check failed: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
