"""End-to-end CLI behavior: artifacts, exit codes, round trips."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from cayleyx import (
    AbelianGroup,
    CayleyGraph,
    GdsCertificate,
    Gf2Field,
    KloostermanTable,
    bent_hadamard_set,
    cli,
    constructions,
    cyclic,
    dij_set,
    groups,
    kloosterman_trace_set,
    kloosterman_value_set,
    polar_trace_set,
    spectral,
    theorem33_set,
    verify_gds,
)
from cayleyx.cli import main
from test_cayley import _random_symmetric


def run(args):
    return main(list(args))


def test_construct_product_set(tmp_path, capsys):
    out = tmp_path / "a"
    assert run(["construct", "theorem33", "--s", "4", "--r", "4", "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["is_ramanujan"] is True
    spectrum = (out / "spectrum.csv").read_text().strip().splitlines()
    assert spectrum[0] == "value,multiplicity,exact"
    values = {int(line.split(",")[0]) for line in spectrum[1:]}
    assert values == {6, 2, -2}
    assert "ramanujan=True" in capsys.readouterr().out


def test_construct_polar(tmp_path):
    out = tmp_path / "b"
    assert run(["construct", "polar-trace", "--m", "2", "--out", str(out)]) == 0
    rows = (out / "spectrum.csv").read_text().strip().splitlines()[1:]
    assert {int(r.split(",")[0]) for r in rows} == {4, 2, 0, -2, -4}


def test_construct_kloosterman_m1(tmp_path, capsys):
    out = tmp_path / "c"
    assert run(["construct", "kloosterman-trace", "--m", "1", "--out", str(out)]) == 0
    graph = CayleyGraph.from_json(json.loads((out / "graph.json").read_text()))
    assert graph.n == 2 and graph.k == 1


def test_construct_dot_format(tmp_path):
    out = tmp_path / "d"
    assert run(["construct", "bent-hadamard", "--u", "2", "--out", str(out),
                "--format", "dot"]) == 0
    assert (out / "graph.dot").read_text().startswith("graph cayley {")


def test_dot_refused_above_the_edge_limit(tmp_path, capsys, monkeypatch):
    """One edge over DOT_MAX_EDGES exits 2 before any artifact is written or
    any neighbour array is built, and names both numbers; at the limit the
    DOT file is written."""
    edges = 48  # bent-hadamard u=2: n = 16, k = 6
    argv = ["construct", "bent-hadamard", "--u", "2", "--format", "dot"]
    monkeypatch.setattr(cli, "DOT_MAX_EDGES", edges - 1)
    monkeypatch.setattr(CayleyGraph, "to_dot", lambda self: pytest.fail("to_dot called"))
    assert run(argv + ["--out", str(tmp_path / "over")]) == 2
    assert f"limited to {edges - 1} edges; this graph has {edges}" in capsys.readouterr().err
    assert not (tmp_path / "over").exists()
    monkeypatch.undo()
    monkeypatch.setattr(cli, "DOT_MAX_EDGES", edges)
    assert run(argv + ["--out", str(tmp_path / "at")]) == 0
    assert (tmp_path / "at" / "graph.dot").read_text().count(" -- ") == edges


def test_dot_refused_at_the_real_limit(tmp_path, capsys, monkeypatch):
    """Z_2^20 with three generators has 3 * 2^19 edges, above DOT_MAX_EDGES:
    analyze refuses it before any statistics, and ``to_dot`` refuses it."""
    C = [[int(i == j) for i in range(20)] for j in range(3)]
    edges = 3 << 19
    assert edges > cli.DOT_MAX_EDGES
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"factors": [2] * 20, "connection_set": C}))
    monkeypatch.setattr(CayleyGraph, "stats", lambda self: pytest.fail("stats computed"))
    assert run(["analyze", str(gpath), "--format", "dot", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"limited to {cli.DOT_MAX_EDGES} edges; this graph has {edges}" in err
    assert not (tmp_path / "o").exists()
    with pytest.raises(ValueError, match=f"this graph has {edges}"):
        CayleyGraph.build(AbelianGroup([2] * 20), C).to_dot()


def test_construct_parameter_errors(tmp_path):
    assert run(["construct", "theorem33", "--s", "5", "--r", "6",
                "--out", str(tmp_path)]) == 2
    assert run(["construct", "theorem33", "--s", "4", "--out", str(tmp_path)]) == 2
    assert run(["construct", "polar-trace", "--m", "99", "--out", str(tmp_path)]) == 2


def test_construct_dij_writes_the_common_schema(tmp_path, capsys):
    """D_{0,1} at m = 10 prints the summary line of every construction and
    writes its statistics, with no closed-form predictions."""
    out = tmp_path / "o"
    assert run(["construct", "dij", "--m", "10", "--i", "0", "--j", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ("dij: n=1024 degree=270 components=2 bipartite=False "
                                       "diameter=inf ramanujan=False\n")
    verdict = json.loads((out / "verdict.json").read_text())
    assert set(verdict) == {"is_ramanujan", "second_largest_abs", "bound", "connected",
                            "boundary_flag", "reason", "components", "bipartite", "diameter",
                            "oracle_agrees", "crossing_checks", "gds", "srg",
                            "predicted_degree", "predicted_ramanujan", "discrepancies", "notes"}
    assert (verdict["components"], verdict["bipartite"], verdict["diameter"]) == (2, False, None)
    assert verdict["predicted_degree"] is None and verdict["predicted_ramanujan"] is None
    assert verdict["discrepancies"] == [] and verdict["notes"] == []
    assert verdict["is_ramanujan"] is False and verdict["reason"] == "not connected"


@pytest.mark.parametrize("argv, message", [
    (["dij", "--m", "3", "--i", "0", "--j", "0"], "D_0,0 is empty for m=3"),
    (["dij", "--m", "10", "--i", "0"], "construction 'dij' needs --j"),
    (["theorem33", "--s", "4"], "construction 'theorem33' needs --r"),
    (["bent-hadamard", "--u", "2", "--m", "99"], "construction 'bent-hadamard' takes no --m"),
    (["kloosterman-trace", "--m", "4", "--j", "1"],
     "construction 'kloosterman-trace' takes no --j"),
    (["theorem33", "--s", "4", "--r", "4", "--u", "0"], "construction 'theorem33' takes no --u"),
])
def test_construct_refusals_make_no_directory(argv, message, tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["construct"] + argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_construct_choices_are_the_table():
    construct = cli.build_parser()._subparsers._group_actions[0].choices["construct"]
    name = next(a for a in construct._actions if a.dest == "name")
    assert name.choices == list(cli.CONSTRUCTIONS)


@pytest.mark.parametrize("argv", [
    ["kloosterman-trace", "--m", "10"],
    ["polar-trace", "--m", "5"],
    ["bent-hadamard", "--u", "5"],
    ["theorem33", "--s", "16", "--r", "16"],
    ["dij", "--m", "10", "--i", "0", "--j", "1"],
])
def test_construct_and_analyze_write_the_same_statistics(argv, tmp_path):
    """construct's verdict.json is analyze's for the graph.json construct
    wrote, key for key (the checks among them), plus the four predictions."""
    assert run(["construct"] + argv + ["--out", str(tmp_path / "c")]) == 0
    assert run(["analyze", str(tmp_path / "c" / "graph.json"), "--out", str(tmp_path / "a")]) == 0
    built, analyzed = (json.loads((tmp_path / d / "verdict.json").read_text()) for d in "ca")
    predictions = {"predicted_degree", "predicted_ramanujan", "discrepancies", "notes"}
    assert set(built) == set(analyzed) | predictions and not predictions & set(analyzed)
    assert {k: v for k, v in built.items() if k not in predictions} == analyzed
    assert analyzed["oracle_agrees"] is True and analyzed["crossing_checks"]["violations"] == 0


@pytest.mark.parametrize("argv, what, n", [
    (["theorem33", "--s", "4", "--r", str(1 << 23)], "theorem33", 1 << 25),
    (["kloosterman-trace", "--m", "25"], "GF(2^25)", 1 << 25),
    (["polar-trace", "--m", "13"], "GF(2^26)", 1 << 26),
    (["bent-hadamard", "--u", "13"], "bent-hadamard", 1 << 26),
    (["kloosterman-trace", "--m", str(1 << 63)], f"GF(2^{1 << 63})", f"2^{1 << 63}"),
    (["bent-hadamard", "--u", "100000000000"], "bent-hadamard", "2^200000000000"),
    (["theorem33", "--s", "2" * 4000, "--r", "2" * 4000], "theorem33", ">= 2^26571"),
], ids=["theorem33", "kloosterman-trace", "polar-trace", "bent-hadamard",
        "kloosterman-exponent", "bent-exponent", "theorem33-digits"])
def test_construct_refuses_orders_analyze_refuses(argv, what, n, tmp_path, capsys):
    """An order above ``MAX_ORDER``, analyze's limit too, exits 2 before
    any array of that size exists, with no output directory.  A power of
    two is compared by its exponent, so a huge exponent builds no huge int;
    an order beyond 64 bits is stated as a power of two, since str()
    refuses ints of more than 4300 digits."""
    assert groups.MAX_ORDER == 1 << 24
    tracemalloc.start()
    try:
        code = run(["construct"] + argv + ["--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 1 << 20
    err = capsys.readouterr().err
    assert f"error: {what} is limited to n <= 16777216, got {n}\n" in err
    assert not (tmp_path / "o").exists()


def test_max_order_is_the_one_size_limit(tmp_path, capsys, monkeypatch):
    """``groups.MAX_ORDER``, read at call time, bounds every construction,
    every GF(2^m) table and analyze: patched to 64, each accepts its largest
    size <= 64 and refuses the next, and analyze reads the graph of n = 64
    construct writes and refuses n = 128."""
    monkeypatch.setattr(groups, "MAX_ORDER", 64)
    accepted = [lambda: kloosterman_trace_set(6).graph.n, lambda: polar_trace_set(3).graph.n,
                lambda: bent_hadamard_set(3).graph.n, lambda: theorem33_set(8, 8).graph.n,
                lambda: Gf2Field(6).order, lambda: KloostermanTable.compute(6).values.size,
                lambda: dij_set(6, 1, 1).group.order]
    assert [f() for f in accepted] == [64] * len(accepted)
    refused = [(lambda: kloosterman_trace_set(7), "GF(2^7)", 128),
               (lambda: polar_trace_set(4), "GF(2^8)", 256),
               (lambda: bent_hadamard_set(4), "bent-hadamard", 256),
               (lambda: theorem33_set(8, 10), "theorem33", 80),
               (lambda: Gf2Field(7), "GF(2^7)", 128),
               (lambda: KloostermanTable.compute(7), "GF(2^7)", 128),
               (lambda: kloosterman_value_set(7), "GF(2^7)", 128),
               (lambda: dij_set(7, 1, 1), "GF(2^7)", 128)]
    for f, what, n in refused:
        with pytest.raises(ValueError, match=re.escape(f"{what} is limited to n <= 64, got {n}")):
            f()
    assert run(["construct", "polar-trace", "--m", "3", "--out", str(tmp_path / "c")]) == 0
    assert run(["analyze", str(tmp_path / "c" / "graph.json"), "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    gpath = tmp_path / "big.json"
    gpath.write_text(json.dumps({"factors": [128], "connection_set": [[1], [127]]}))
    assert run(["analyze", str(gpath), "--out", str(tmp_path / "o")]) == 2
    assert "error: analyze is limited to n <= 64, got 128\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_analyze_product_graph(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(theorem33_set(4, 4).graph.to_json()))
    out = tmp_path / "out"
    assert run(["analyze", str(gpath), "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["is_ramanujan"] is True
    assert verdict["srg"] == [16, 6, 2, 2]
    assert verdict["oracle_agrees"] is True
    assert verdict["crossing_checks"]["violations"] == 0


def test_analyze_computes_common_neighbours_once(tmp_path, monkeypatch):
    """The statistics, the GDS certificate and the srg check share one
    common-neighbour table: an analyze op, and a construct op of the same
    graph, computes C*C (the graph's character table times itself) once,
    and writes the verdict of a run that recomputes it at every call."""
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(theorem33_set(4, 6).graph.to_json()))
    graphs, calls = [], []
    init, counts = CayleyGraph.__init__, AbelianGroup.counts
    monkeypatch.setattr(CayleyGraph, "__init__",
                        lambda self, connection: graphs.append(self) or init(self, connection))
    monkeypatch.setattr(AbelianGroup, "counts", lambda self, a, b: calls.append(
        any(a is g.characters and b is g.characters for g in graphs)) or counts(self, a, b))
    commands = {"analyze": ["analyze", str(gpath)],
                "construct": ["construct", "theorem33", "--s", "4", "--r", "6"]}

    def write(command, out):
        calls.clear()
        assert run(commands[command] + ["--out", str(tmp_path / out)]) == 0
        return sum(calls), (tmp_path / out / "verdict.json").read_text()

    once = {c: write(c, c + "-once") for c in commands}
    monkeypatch.setattr(CayleyGraph, "common_neighbor_counts",
                        lambda self: self.group.counts(self.characters, self.characters))
    for command in commands:
        recomputed = write(command, command + "-recomputed")
        assert once[command] == (1, recomputed[1])
        assert recomputed[0] > 1


def _move_a_table_entry(monkeypatch, graph):
    """Move entry 1 of ``graph``'s character table by 1e-3 in every table
    taken of its indicator from now on."""
    target = graph.group.indicator(graph.connection.indices)
    table = AbelianGroup.character_sum_table

    def wrong(self, x):
        t = table(self, x)
        if np.shape(x) == target.shape and np.array_equal(x, target):
            t = t.copy()
            t.flat[1] += 1e-3
        return t

    monkeypatch.setattr(AbelianGroup, "character_sum_table", wrong)


@pytest.mark.parametrize("n", [4095, 2048])
def test_analyze_oracle_catches_a_wrong_character_table(n, tmp_path, monkeypatch):
    """The oracle reads no transform of the graph's indicator: with one entry
    of the graph's character table off by 1e-3 (well inside the rounding of
    every count made from the table), analyze still runs and reports that
    the table fails its check."""
    C = [1, 5, 77, 300, 1000, 2000]
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"factors": [n],
                                 "connection_set": [[c] for c in C + [n - c for c in C]]}))
    _move_a_table_entry(monkeypatch, CayleyGraph.from_json(json.loads(gpath.read_text())))
    out = tmp_path / "out"
    assert run(["analyze", str(gpath), "--out", str(out)]) == 0
    assert json.loads((out / "verdict.json").read_text())["oracle_agrees"] is False


def test_construct_oracle_catches_a_wrong_character_table(tmp_path, monkeypatch):
    """construct runs the same oracle: with one entry of the table of the
    product set on Z_4 x Z_6 (off Z_2^m) moved by 1e-3, it still exits 0
    and reports that the table fails its check."""
    _move_a_table_entry(monkeypatch, theorem33_set(4, 6).graph)
    out = tmp_path / "out"
    assert run(["construct", "theorem33", "--s", "4", "--r", "6", "--out", str(out)]) == 0
    assert json.loads((out / "verdict.json").read_text())["oracle_agrees"] is False


@pytest.mark.parametrize("command", ["analyze", "construct"])
def test_each_command_writes_the_one_report(command, tmp_path, monkeypatch):
    """construct and analyze call ``certify`` once and write its report's
    ``to_json()``, construct with its four predictions added."""
    built = theorem33_set(4, 4)
    (tmp_path / "g.json").write_text(json.dumps(built.graph.to_json()))
    reports, certify = [], constructions.certify
    monkeypatch.setattr(constructions, "certify",
                        lambda *a: reports.append(certify(*a)) or reports[-1])
    argv = (["analyze", str(tmp_path / "g.json"), "--seed", "3"] if command == "analyze"
            else ["construct", "theorem33", "--s", "4", "--r", "4"])
    assert run(argv + ["--out", str(tmp_path / "o")]) == 0
    verdict = json.loads((tmp_path / "o" / "verdict.json").read_text())
    assert len(reports) == 1
    want = json.loads(json.dumps(reports[0].to_json()))
    if command == "construct":
        want.update(predicted_degree=built.predicted_degree, notes=built.notes,
                    predicted_ramanujan=built.predicted_ramanujan,
                    discrepancies=built.discrepancies)
    assert verdict == want
    assert verdict["srg"] == [16, 6, 2, 2] and verdict["gds"] == list(built.gds.parameters)


def test_the_parser_is_built_once(tmp_path, monkeypatch):
    """Two commands parse with one parser, built once, and the second sees
    none of the first's values."""
    seen, parse = [], argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, argv: seen.append((self, parse(self, argv))) or seen[-1][1])
    assert run(["construct", "theorem33", "--s", "4", "--r", "4", "--format", "dot",
                "--out", str(tmp_path / "t")]) == 0
    assert run(["construct", "bent-hadamard", "--u", "2", "--out", str(tmp_path / "b")]) == 0
    (first, a), (second, b) = seen
    assert second is first
    assert (a.s, a.r, a.u, a.format) == (4, 4, None, "dot")
    assert (b.s, b.r, b.u, b.format) == (None, None, 2, "json")
    assert not (tmp_path / "b" / "graph.dot").exists()


def test_analyze_checks_the_table_above_4096(tmp_path, capsys):
    """The table identity runs at every n: on Z_5000 (a cycle, diameter
    2500) the verdict reports a checked ``oracle_agrees``."""
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"factors": [5000], "connection_set": [[1], [4999]]}))
    out = tmp_path / "out"
    assert run(["analyze", str(gpath), "--out", str(out)]) == 0
    assert json.loads((out / "verdict.json").read_text())["oracle_agrees"] is True
    assert "oracle_agrees=True" in capsys.readouterr().out


def test_analyze_prime_n_holds_no_dense_matrix(tmp_path):
    """On Z_4093 (prime n, about 20 elements, small diameter) analyze checks
    the table and stays below a quarter of the 8 n^2 bytes of one n x n
    float matrix."""
    gpath = tmp_path / "g.json"
    gpath.write_text(_random_symmetric([4093], 20, seed=4093).to_json_str())
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert run(["analyze", str(gpath), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads((out / "verdict.json").read_text())["oracle_agrees"] is True
    assert peak < 0.25 * 8 * 4093 ** 2


def test_analyze_disconnected_gds(tmp_path):
    graph = CayleyGraph.build(cyclic(20), [(4,), (8,), (12,), (16,)])
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(graph.to_json()))
    out = tmp_path / "out"
    assert run(["analyze", str(gpath), "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["is_ramanujan"] is False
    assert verdict["components"] == 4
    assert verdict["gds"] == [20, 16, 4, 0, 3]  # (n, |S|, k, mu1, mu2)


def test_analyze_hypercube_gds_is_its_parameters(tmp_path):
    """Q_10 (Z_2^10, the unit vectors) is a GDS with mu1 = 0 off the
    pairwise sums of the unit vectors, so |S| = n - C(10, 2); verdict.json
    states it as its parameters and stays small (listing C and S takes
    about 200 KB)."""
    group = AbelianGroup([2] * 10)
    graph = CayleyGraph.build(group, [tuple(int(i == j) for j in range(10)) for i in range(10)])
    (tmp_path / "g.json").write_text(json.dumps(graph.to_json()))
    assert run(["analyze", str(tmp_path / "g.json"), "--out", str(tmp_path / "o")]) == 0
    path = tmp_path / "o" / "verdict.json"
    assert json.loads(path.read_text())["gds"] == [1024, 1024 - math.comb(10, 2), 10, 0, 2]
    assert path.stat().st_size < 2048


def test_analyze_invariant_violation(tmp_path):
    gpath = tmp_path / "bad.json"
    gpath.write_text(json.dumps({"factors": [10], "connection_set": [[1], [2]]}))
    assert run(["analyze", str(gpath), "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("conn, bad", [
    ([[1.5], [8.5]], "(1.5,)"),
    ([["a"], ["b"]], "('a',)"),
])
def test_analyze_non_integer_coordinates(conn, bad, tmp_path, capsys):
    gpath = tmp_path / "bad.json"
    gpath.write_text(json.dumps({"factors": [10], "connection_set": conn}))
    assert run(["analyze", str(gpath), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"element {bad} has a non-integer coordinate" in err


@pytest.mark.parametrize("conn, words", [
    ([[1], [1], [7], [9]], "element (1,) coincides with an earlier element"),
    ([[1], [7], [9]], "element (9,) coincides with an earlier element"),
    ([[True], [7]], "element (True,) has a non-integer coordinate"),
])
def test_analyze_refuses_elements_it_would_normalise(conn, words, tmp_path, capsys):
    """Z_8 elements that coincide after reduction, or a bool read as 1, are
    refused instead of analysing a smaller set than the file lists."""
    gpath = tmp_path / "bad.json"
    gpath.write_text(json.dumps({"factors": [8], "connection_set": conn}))
    assert run(["analyze", str(gpath), "--out", str(tmp_path / "o")]) == 2
    assert f"malformed graph JSON: {words}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("factors", [[10.9], ["7"]])
def test_analyze_non_integer_factors(factors, tmp_path, capsys):
    gpath = tmp_path / "bad.json"
    gpath.write_text(json.dumps({"factors": factors, "connection_set": [[1], [9]]}))
    assert run(["analyze", str(gpath), "--out", str(tmp_path / "o")]) == 2
    assert "malformed graph JSON: factors must be integers" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("factors, conn", [([2] * 44, [[1] + [0] * 43]),
                                           ([2 ** 25], [[1], [2 ** 25 - 1]])])
def test_analyze_refuses_orders_above_its_limit(factors, conn, tmp_path, capsys):
    """Refused with exit 2 before anything of size n is allocated (2^44
    floats would be 128 TiB)."""
    gpath = tmp_path / "big.json"
    gpath.write_text(json.dumps({"factors": factors, "connection_set": conn}))
    tracemalloc.start()
    try:
        code = run(["analyze", str(gpath), "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 1 << 20
    err = capsys.readouterr().err
    assert f"error: analyze is limited to n <= 16777216, got {math.prod(factors)}\n" in err
    assert not (tmp_path / "o").exists()


def test_analyze_malformed_json(tmp_path):
    gpath = tmp_path / "junk.json"
    gpath.write_text("{not json")
    assert run(["analyze", str(gpath), "--out", str(tmp_path / "o")]) == 2
    gpath2 = tmp_path / "wrong.json"
    gpath2.write_text(json.dumps({"something": 1}))
    assert run(["analyze", str(gpath2), "--out", str(tmp_path / "o")]) == 2


def test_analyze_refuses_a_file_that_is_not_utf8(tmp_path, capsys):
    """Bytes that do not decode are a read error, exit 2, and no output
    directory is made."""
    gpath = tmp_path / "bom.json"
    gpath.write_bytes(b"\xff\xfe{}")
    assert run(["analyze", str(gpath), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read graph JSON: ")
    assert not (tmp_path / "o").exists()


def test_analyze_refuses_a_negative_seed(tmp_path, capsys, monkeypatch):
    """``--seed`` seeds the weights of the table identity: a negative seed
    exits 2 before the graph is read, with no output directory."""
    def refuse(*args, **kwargs):
        raise AssertionError("the graph was read")

    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(theorem33_set(4, 4).graph.to_json()))
    monkeypatch.setattr(json, "load", refuse)
    assert run(["analyze", str(gpath), "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2
    assert "error: --seed must be >= 0, got -1\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_analyze_reports_an_inexact_table_as_an_invariant_failure(tmp_path, capsys,
                                                                 monkeypatch):
    """A Z_2^10 table with lambda_2's entry moved by 2 fails an exact route
    (the statistics' inverse transform): exit 3 with one error line, no
    traceback and no artifacts."""
    graph = _random_symmetric([2] * 10, 40, seed=10)
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(graph.to_json()))
    build = CayleyGraph.__init__

    def tampered(self, connection):
        build(self, connection)
        self.characters.ravel()[spectral._witnesses(self.characters.ravel(), self.k)[0]] += 2

    monkeypatch.setattr(CayleyGraph, "__init__", tampered)
    assert run(["analyze", str(gpath), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: exactness check failed: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_analyze_writes_the_quotient_cuts(tmp_path):
    """verdict.json's crossing block lists the cut at lambda_2's character
    and at the Ramanujan witness, each with its order, bound and direct value."""
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(theorem33_set(4, 6).graph.to_json()))
    assert run(["analyze", str(gpath), "--out", str(tmp_path / "o")]) == 0
    block = json.loads((tmp_path / "o" / "verdict.json").read_text())["crossing_checks"]
    assert set(block) == {"cuts", "violations"} and block["violations"] == 0
    for cut in block["cuts"]:
        assert set(cut) == {"character", "order", "cut", "bound", "direct"}
        assert cut["cut"] >= cut["bound"]


def test_analyze_seed_determinism(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(theorem33_set(4, 6).graph.to_json()))
    outs = []
    for d in ("o1", "o2"):
        assert run(["analyze", str(gpath), "--out", str(tmp_path / d), "--seed", "9"]) == 0
        outs.append((tmp_path / d / "verdict.json").read_text())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("make_graph", [
    pytest.param(lambda: theorem33_set(4, 6).graph, id="Z4xZ6"),
    pytest.param(lambda: _random_symmetric([2] * 10, 40, seed=10), id="Z2^10"),
])
def test_analyze_verdict_is_the_same_for_every_seed(make_graph, tmp_path):
    """A correct table passes the identity whatever the seed: seeds 0, 1 and
    2^70 each give ``oracle_agrees: true`` and the same verdict.json bytes,
    twice over."""
    gpath = tmp_path / "g.json"
    gpath.write_text(make_graph().to_json_str())
    texts = set()
    for seed in (0, 1, 2 ** 70):
        for again in range(2):
            out = tmp_path / f"{seed}-{again}"
            assert run(["analyze", str(gpath), "--out", str(out), "--seed", str(seed)]) == 0
            texts.add((out / "verdict.json").read_text())
    assert len(texts) == 1
    assert json.loads(texts.pop())["oracle_agrees"] is True


def test_roundtrip_byte_identical(tmp_path):
    out1 = tmp_path / "r1"
    assert run(["construct", "theorem33", "--s", "4", "--r", "6", "--out", str(out1)]) == 0
    graph = CayleyGraph.from_json(json.loads((out1 / "graph.json").read_text()))
    out2 = tmp_path / "r2"
    (tmp_path / "again.json").write_text(json.dumps(graph.to_json()))
    assert run(["analyze", str(tmp_path / "again.json"), "--out", str(out2)]) == 0
    g1 = json.loads((out1 / "graph.json").read_text())
    g2 = json.loads((out2 / "graph.json").read_text())
    assert g1 == g2
    s1 = (out1 / "spectrum.csv").read_text()
    s2 = (out2 / "spectrum.csv").read_text()
    assert s1 == s2


def test_search_ramanujan_cli(tmp_path, capsys):
    out = tmp_path / "s"
    assert run(["search", "ramanujan", "--n", "3", "--out", str(out)]) == 0
    lines = (out / "hits.jsonl").read_text().strip().splitlines()
    assert json.loads(lines[0])["C"] == [1, 2]
    assert [p.name for p in out.iterdir()] == ["hits.jsonl"]


def test_search_gds_cli(tmp_path):
    out = tmp_path / "s"
    assert run(["search", "gds", "--n", "7", "--out", str(out)]) == 0
    sets = [json.loads(l)["C"] for l in (out / "hits.jsonl").read_text().splitlines()]
    assert [1, 2, 4] in sets


def test_pipeline_takes_uniqueness_by_sort(tmp_path, capsys, monkeypatch):
    """No command calls ``np.unique``: every construct name, analyze and
    both searches run with it refused, and a fresh ``python -m cayleyx.cli``
    construct never imports ``numpy.ma``, which ``np.unique`` pulls in."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", refuse)
    (tmp_path / "cycle.json").write_text(json.dumps({"factors": [7], "connection_set": [[1], [6]]}))
    for i, argv in enumerate([
            ["construct", "theorem33", "--s", "4", "--r", "6"],
            ["construct", "kloosterman-trace", "--m", "4"],
            ["construct", "polar-trace", "--m", "2"],
            ["construct", "bent-hadamard", "--u", "2"],
            ["construct", "dij", "--m", "4", "--i", "1", "--j", "0"],
            ["analyze", str(tmp_path / "0" / "graph.json")],
            ["analyze", str(tmp_path / "cycle.json")],
            ["search", "ramanujan", "--n", "8"],
            ["search", "gds", "--n", "8"]]):
        assert run(argv + ["--out", str(tmp_path / str(i))]) == 0, argv
    capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    for argv in (["theorem33", "--s", "4", "--r", "4"], ["kloosterman-trace", "--m", "4"]):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "cayleyx.cli", "construct",
                               *argv, "--out", str(tmp_path / argv[0])],
                              env=env, capture_output=True, text=True, check=True)
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert "numpy" in imported and "numpy.ma" not in imported, argv


def test_search_budget_exit(tmp_path):
    assert run(["search", "ramanujan", "--n", "40", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("mode, n", [("gds", 30), ("gds", 1), ("ramanujan", 40),
                                     ("ramanujan", 2)])
def test_search_out_of_range_writes_no_hit_files(mode, n, tmp_path, capsys):
    """n is checked before any hit file is opened."""
    out = tmp_path / "d"
    assert run(["search", mode, "--n", str(n), "--out", str(out)]) == 2
    assert "n must be in" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-5"])
def test_search_ramanujan_refuses_min_degree_below_1(value, tmp_path, capsys):
    """--minDegree is checked, like n, before any hit file is opened."""
    out = tmp_path / "d"
    assert run(["search", "ramanujan", "--n", "8", "--minDegree", value, "--out", str(out)]) == 2
    assert f"min_degree must be >= 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "search"])
def test_complex_character_sums_exit_3(command, tmp_path, monkeypatch, capsys):
    """A character table off Z_2^m whose sums of a symmetric set are not
    real fails the exactness check of analyze and of the circulant search."""
    table = AbelianGroup.character_sum_table

    def skewed(self, x):
        t = table(self, x)
        if t.dtype.kind == "c":
            t = t.copy()
            t[..., 1] += 1e-3j
        return t

    monkeypatch.setattr(AbelianGroup, "character_sum_table", skewed)
    gpath, out = tmp_path / "g.json", tmp_path / "out"
    gpath.write_text(json.dumps({"factors": [8], "connection_set": [[1], [7]]}))
    argv = (["analyze", str(gpath)] if command == "analyze"
            else ["search", "ramanujan", "--n", "8"])
    assert run(argv + ["--out", str(out)]) == 3
    assert ("error: exactness check failed: character sums of a symmetric set must be real"
            in capsys.readouterr().err)


@pytest.mark.parametrize("value", ["7", "2"])
def test_search_gds_refuses_min_degree(value, tmp_path, capsys):
    """The GDS search has no degree filter: an explicit --minDegree, even
    the circulant default, exits 2 before any directory is made."""
    out = tmp_path / "d"
    assert run(["search", "gds", "--n", "8", "--minDegree", value, "--out", str(out)]) == 2
    assert "--minDegree applies to search ramanujan only" in capsys.readouterr().err
    assert not out.exists()


def test_search_ramanujan_min_degree_defaults_to_2(tmp_path):
    """Without --minDegree the circulant search writes the same files as
    with --minDegree 2, and a larger value still filters."""
    files = {}
    for name, extra in (("default", []), ("explicit", ["--minDegree", "2"])):
        out = tmp_path / name
        assert run(["search", "ramanujan", "--n", "16", "--out", str(out)] + extra) == 0
        files[name] = (out / "hits.jsonl").read_bytes()
    assert files["default"] and files["default"] == files["explicit"]
    out = tmp_path / "four"
    assert run(["search", "ramanujan", "--n", "16", "--minDegree", "4", "--out", str(out)]) == 0
    assert (out / "hits.jsonl").read_bytes() != files["default"]


@pytest.mark.parametrize("argv", [
    ["construct", "theorem33", "--s", "4", "--r", "4", "--jobs", "2"],
    ["construct", "theorem33", "--s", "4", "--r", "4", "--format", "csv"],
    ["analyze", "g.json", "--jobs", "2"],
    ["analyze", "g.json", "--format", "csv"],
    ["search", "gds", "--n", "7", "--jobs", "2"],
    ["search", "gds", "--n", "7", "--seed", "1"],
])
def test_removed_options_exit_2(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("graph, has_gds", [
    pytest.param(lambda: CayleyGraph.build(cyclic(20), [(4,), (8,), (12,), (16,)]), True, id="Z20"),
    pytest.param(lambda: bent_hadamard_set(3).graph, True, id="Z2^6-bent"),
    pytest.param(lambda: _random_symmetric([2] * 6, 12, seed=0), False, id="Z2^6"),
    pytest.param(lambda: _random_symmetric([4, 6], 7, seed=0), False, id="Z4xZ6"),
    pytest.param(lambda: CayleyGraph.build(cyclic(2), [(1,)]), True, id="Z2-one-element"),
    pytest.param(lambda: theorem33_set(4, 4).graph, True, id="theorem33(4,4)"),
])
def test_streamed_artifacts_equal_json_dumps(graph, has_gds, tmp_path):
    """graph.json and verdict.json of analyze are, byte for byte,
    ``json.dumps(..., sort_keys=True, indent=2) + "\\n"`` of the graph's
    ``to_json()`` and of a verdict whose ``gds`` is the GDS certificate's
    parameters."""
    graph = graph()
    (tmp_path / "g.json").write_text(json.dumps(graph.to_json()))
    assert run(["analyze", str(tmp_path / "g.json"), "--out", str(tmp_path / "o")]) == 0
    text = (tmp_path / "o" / "graph.json").read_text()
    assert text == json.dumps(graph.to_json(), sort_keys=True, indent=2) + "\n"
    text = (tmp_path / "o" / "verdict.json").read_text()
    verdict = json.loads(text)
    cert = verify_gds(graph.group, graph.connection.elements)
    assert (cert is not None) == has_gds
    assert verdict["gds"] == (list(cert.parameters) if cert else None)
    assert text == json.dumps(verdict, sort_keys=True, indent=2) + "\n"


def test_artifacts_are_written_from_index_arrays(tmp_path, monkeypatch):
    """No tuple list is built on the artifact path: the dict forms and
    ``elements_at`` are never called, for a construct and for an analyze
    with a ``gds`` block."""
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(theorem33_set(4, 4).graph.to_json()))
    for cls, name in ((CayleyGraph, "to_json"), (GdsCertificate, "to_json"),
                      (AbelianGroup, "elements_at")):
        monkeypatch.setattr(cls, name, lambda *a: pytest.fail("tuple form built"))
    assert run(["construct", "kloosterman-trace", "--m", "6", "--out", str(tmp_path / "c")]) == 0
    assert run(["analyze", str(gpath), "--out", str(tmp_path / "a")]) == 0
    assert json.loads((tmp_path / "a" / "verdict.json").read_text())["gds"] is not None


def test_streamed_construct_equals_json_dumps(tmp_path):
    assert run(["construct", "kloosterman-trace", "--m", "12", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "graph.json").read_text()
    graph = kloosterman_trace_set(12).graph
    same = text == json.dumps(graph.to_json(), sort_keys=True, indent=2) + "\n"
    assert same  # not a diff of two 1.5 MB strings
    text = (tmp_path / "verdict.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("factors, size", [
    ((2,) * 16, 10000),  # several chunks; every factor in a table
    ((5000, 3), 9000),  # a factor past the table limit, formatted as an int
    ((7,), 0),
])
def test_coordinate_writer_equals_json_dumps(factors, size, tmp_path):
    group = AbelianGroup(factors)
    idx = np.sort(np.random.default_rng(size).choice(group.order, size, replace=False))
    assert size <= cli.COORDINATE_ROWS or size > 2 * cli.COORDINATE_ROWS
    for part in (idx, idx[:1]):
        cli._write_graph(tmp_path, list(factors), part)
        want = {"factors": list(factors),
                "connection_set": [list(e) for e in group.elements_at(part)]}
        text = (tmp_path / "graph.json").read_text()
        same = text == json.dumps(want, sort_keys=True, indent=2) + "\n"
        assert same  # not a diff of two megabyte strings


def test_coordinate_writer_streams(tmp_path):
    """The traced peak does not grow with the list: 65,536 elements of
    Z_2^18 (about 11 MB of text) peak within 25% of 16,384 (json.dumps of
    the list peaks at about 95 MB)."""
    assert cli.COORDINATE_ROWS <= 8192  # both sizes span several chunks
    rng = np.random.default_rng(18)
    factors, peaks = (2,) * 18, []
    for size in (16384, 65536):
        idx = np.sort(rng.choice(2 ** 18, size, replace=False))
        (tmp_path / str(size)).mkdir()  # the command, not the writer, makes --out
        tracemalloc.start()
        try:
            cli._write_graph(tmp_path / str(size), list(factors), idx)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (tmp_path / "65536" / "graph.json").stat().st_size > 10 ** 7
    assert peaks[1] < 1.25 * peaks[0]


# -- the writer: every artifact is created afresh ------------------------------

def _writer_runs(tmp_path):
    """command -> (first argv, second argv, the artifacts both write), the
    two runs writing different bytes to every artifact; --out is appended."""
    for name, n in (("z7.json", 7), ("z9.json", 9)):
        (tmp_path / name).write_text(json.dumps({"factors": [n], "connection_set": [[1], [n - 1]]}))
    graph = ["graph.json", "spectrum.csv", "verdict.json", "graph.dot"]
    return {
        "construct": (["construct", "theorem33", "--s", "4", "--r", "4", "--format", "dot"],
                      ["construct", "theorem33", "--s", "4", "--r", "6", "--format", "dot"],
                      graph),
        "analyze": (["analyze", str(tmp_path / "z7.json"), "--format", "dot"],
                    ["analyze", str(tmp_path / "z9.json"), "--format", "dot"], graph),
        "search": (["search", "gds", "--n", "7"], ["search", "gds", "--n", "13"],
                   ["hits.jsonl"]),
    }


def _artifacts(out, names):
    return {name: (out / name).read_bytes() for name in names}


@pytest.mark.parametrize("command", ["construct", "analyze", "search"])
def test_rerun_into_one_out_writes_the_same_bytes(command, tmp_path, capsys):
    first, _, names = _writer_runs(tmp_path)[command]
    out = tmp_path / "o"
    assert run(first + ["--out", str(out)]) == 0
    before = _artifacts(out, names)
    assert run(first + ["--out", str(out)]) == 0
    assert _artifacts(out, names) == before


@pytest.mark.parametrize("command", ["construct", "analyze", "search"])
def test_rerun_leaves_a_hard_link_with_the_old_bytes(command, tmp_path, capsys):
    """An artifact is unlinked and created afresh, never truncated or
    rewritten in place: a hard link to it keeps the earlier run's bytes."""
    first, second, names = _writer_runs(tmp_path)[command]
    out, links = tmp_path / "o", tmp_path / "links"
    assert run(first + ["--out", str(out)]) == 0
    old = _artifacts(out, names)
    links.mkdir()
    for name in names:
        os.link(out / name, links / name)
    assert run(second + ["--out", str(out)]) == 0
    assert run(second + ["--out", str(tmp_path / "fresh")]) == 0
    new = _artifacts(tmp_path / "fresh", names)
    assert all(old[name] != new[name] for name in names)
    assert _artifacts(links, names) == old
    assert _artifacts(out, names) == new
    for name in names:
        assert not os.path.samefile(links / name, out / name), name


@pytest.mark.parametrize("command", ["construct", "analyze"])
def test_a_run_without_dot_removes_an_earlier_graph_dot(command, tmp_path, capsys):
    """A graph.dot left by an earlier --format dot run would describe another
    graph than the graph.json beside it, so a run that writes no dot removes
    it.  A directory at that path is no artifact, and stays."""
    first, second, _ = _writer_runs(tmp_path)[command]
    out = tmp_path / "o"
    assert run(first + ["--out", str(out)]) == 0
    assert (out / "graph.dot").is_file()
    assert run(second[:-2] + ["--out", str(out)]) == 0
    assert not os.path.lexists(out / "graph.dot")
    assert run(second[:-2] + ["--out", str(out)]) == 0  # nothing to remove
    (out / "graph.dot").mkdir()
    assert run(second[:-2] + ["--out", str(out)]) == 0
    assert (out / "graph.dot").is_dir()


def test_a_symlink_at_an_artifact_is_replaced_not_written_through(tmp_path, capsys):
    out, target = tmp_path / "o", tmp_path / "target.json"
    out.mkdir()
    target.write_text("keep\n")
    (out / "graph.json").symlink_to(target)
    assert run(["construct", "theorem33", "--s", "4", "--r", "4", "--out", str(out)]) == 0
    assert not (out / "graph.json").is_symlink() and (out / "graph.json").is_file()
    assert target.read_text() == "keep\n"
    assert CayleyGraph.from_json(json.loads((out / "graph.json").read_text())).n == 16


def test_analyze_rewrites_its_own_input_byte_for_byte(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["construct", "bent-hadamard", "--u", "2", "--out", str(out)]) == 0
    before = (out / "graph.json").read_bytes()
    assert run(["analyze", str(out / "graph.json"), "--out", str(out)]) == 0
    assert (out / "graph.json").read_bytes() == before


@pytest.mark.parametrize("command", ["construct", "analyze", "search"])
@pytest.mark.parametrize("blocked", ["out-is-a-file", "first-artifact-is-a-directory",
                                     "last-artifact-is-a-directory"])
def test_an_unwritable_out_exits_2(command, blocked, tmp_path, capsys):
    """An --out that is a regular file, or a directory where the first or
    the last artifact goes, exits 2 with ``cannot write``, not with a
    traceback."""
    argv, _, names = _writer_runs(tmp_path)[command]
    out = tmp_path / "o"
    if blocked == "out-is-a-file":
        out.write_text("")
        path, reason = out, "File exists"
    else:
        path, reason = out / names[0 if blocked.startswith("first") else -1], "Is a directory"
        path.mkdir(parents=True)
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {path}: {reason}\n"
