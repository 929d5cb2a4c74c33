"""End-to-end CLI behavior: artifacts, exit codes, round trips."""

import json

import pytest

from cayleyx import CayleyGraph, cyclic, theorem33_set
from cayleyx.cli import main


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


def test_construct_parameter_errors(tmp_path):
    assert run(["construct", "theorem33", "--s", "5", "--r", "6",
                "--out", str(tmp_path)]) == 2
    assert run(["construct", "theorem33", "--s", "4", "--out", str(tmp_path)]) == 2
    assert run(["construct", "polar-trace", "--m", "99", "--out", str(tmp_path)]) == 2


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


def test_analyze_reports_skipped_oracle(tmp_path, capsys):
    """Above ORACLE_MAX_N no oracle runs, and the verdict says so."""
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"factors": [5000], "connection_set": [[1], [4999]]}))
    out = tmp_path / "out"
    assert run(["analyze", str(gpath), "--out", str(out)]) == 0
    assert json.loads((out / "verdict.json").read_text())["oracle_agrees"] == "skipped"
    assert "oracle_agrees=skipped" in capsys.readouterr().out


def test_analyze_disconnected_gds(tmp_path):
    graph = CayleyGraph.build(cyclic(20), [(4,), (8,), (12,), (16,)])
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(graph.to_json()))
    out = tmp_path / "out"
    assert run(["analyze", str(gpath), "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["is_ramanujan"] is False
    assert verdict["components"] == 4
    gds = verdict["gds"]
    assert (gds["n"], len(gds["S"]), gds["k"], gds["mu1"], gds["mu2"]) == (20, 16, 4, 0, 3)


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


def test_analyze_malformed_json(tmp_path):
    gpath = tmp_path / "junk.json"
    gpath.write_text("{not json")
    assert run(["analyze", str(gpath), "--out", str(tmp_path / "o")]) == 2
    gpath2 = tmp_path / "wrong.json"
    gpath2.write_text(json.dumps({"something": 1}))
    assert run(["analyze", str(gpath2), "--out", str(tmp_path / "o")]) == 2


def test_analyze_seed_determinism(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(theorem33_set(4, 6).graph.to_json()))
    outs = []
    for d in ("o1", "o2"):
        assert run(["analyze", str(gpath), "--out", str(tmp_path / d), "--seed", "9"]) == 0
        outs.append((tmp_path / d / "verdict.json").read_text())
    assert outs[0] == outs[1]


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
    rows = (out / "hits.csv").read_text().splitlines()
    assert rows[0] == "n,s,k,lambda2_abs,ramanujan"
    assert [r.split(",")[1] for r in rows[1:]] == [str(json.loads(l)["s"]) for l in lines]


def test_search_gds_cli(tmp_path):
    out = tmp_path / "s"
    assert run(["search", "gds", "--n", "7", "--out", str(out)]) == 0
    sets = [json.loads(l)["C"] for l in (out / "hits.jsonl").read_text().splitlines()]
    assert [1, 2, 4] in sets


def test_search_budget_exit(tmp_path):
    assert run(["search", "ramanujan", "--n", "40", "--out", str(tmp_path)]) == 2


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
