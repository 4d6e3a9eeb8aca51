import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import CORPUS_8_PATH, CORPUS_PATH
import tollhull.check
from tollhull.check import check
from tollhull.cli import EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK, EXIT_USER, _pool_size, run
from tollhull.enumeration import EnumerationError
from tollhull.graph import (
    g12,
    generate,
    parse_graph6,
    star3,
    theta7,
    to_edge_list,
    to_graph6,
)
from tollhull.solver import SolverInvariantError, solve


@pytest.fixture
def fig_file(tmp_path):
    p = tmp_path / "fig.txt"
    p.write_text(to_edge_list(g12()))
    return str(p)


@pytest.fixture
def theta_file(tmp_path):
    p = tmp_path / "theta.txt"
    p.write_text(to_edge_list(theta7()))
    return str(p)


def test_hull_text(fig_file, capsys):
    assert run(["hull", fig_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "hull_number: 4" in out
    assert "hull_set: v1 v2 v3 v11" in out
    assert "extreme_vertices: v1 v2 v3" in out


def test_hull_json_payload(fig_file, capsys):
    assert run(["hull", fig_file, "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "hull"
    assert doc["input"]["n"] == 12 and doc["input"]["m"] == 26
    assert doc["result"]["hull_number"] == 4
    assert doc["result"]["hull_set"] == ["v1", "v2", "v3", "v11"]
    types = {frozenset(b["vertices"]): b["type"] for b in doc["result"]["family"]}
    assert types[frozenset(("v1", "v2", "v3"))] == 3
    assert types[frozenset(("v10", "v11", "v12"))] == 1


def test_json_output_is_reproducible(fig_file, capsys):
    run(["hull", fig_file, "--format", "json", "--trace"])
    first = capsys.readouterr().out
    run(["hull", fig_file, "--format", "json", "--trace"])
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)  # parses


def test_atoms_output(fig_file, capsys):
    assert run(["atoms", fig_file]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    parsed = []
    for line in out:
        body, mark = line.removeprefix("atom: {").split("} ")
        parsed.append((frozenset(body.split()), mark))
    assert (frozenset("v1 v2 v3 v4 v5".split()), "extremal") in parsed
    assert (frozenset("v4 v5 v6 v7".split()), "-") in parsed
    assert (frozenset("v8 v9 v10 v11 v12".split()), "extremal") in parsed
    assert len(parsed) == 4


def test_interval_and_closure(fig_file, capsys):
    assert run(["interval", fig_file, "--x", "v1", "--y", "v11"]) == EXIT_OK
    out = capsys.readouterr().out
    got = set(out.strip().removeprefix("interval: ").split())
    assert got == {f"v{i}" for i in (1, 4, 5, 6, 7, 8, 9, 10, 11, 12)}
    assert run(["closure", fig_file, "--set", "v1,v2,v3,v11"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "is_hull_set: true" in out


def test_extreme(fig_file, capsys):
    assert run(["extreme", fig_file]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "extreme_vertices: v1 v2 v3"


def test_enumerate_streams_json_lines(theta_file, capsys):
    assert run(["enumerate", theta_file, "--limit", "2"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        assert isinstance(json.loads(line), list)


def test_enumerate_negative_limit_is_user_error(theta_file, capsys):
    assert run(["enumerate", theta_file, "--limit", "-1"]) == EXIT_USER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "negative" in captured.err


def test_verify_negative_jobs_is_user_error(theta_file, capsys):
    assert run(["verify", theta_file, "--jobs", "-1"]) == EXIT_USER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--jobs" in captured.err


def test_verify_pool_size():
    # the pool never outgrows the request, the graphs or the cores
    assert _pool_size(2, 5, 8) == 2
    assert _pool_size(64, 3, 8) == 3
    assert _pool_size(10**9, 10**6, 4) == 4
    assert _pool_size(4, 10, None) == 1
    assert _pool_size(1, 10, 8) == 1
    assert _pool_size(0, 10, 8) == 0
    assert _pool_size(4, 0, 8) == 0


def test_verify_fixture(theta_file, capsys):
    assert run(["verify", theta_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "solver=2 oracle=2" in out
    assert "agreement: true" in out


def test_verify_graph6_sweep(tmp_path, capsys):
    lines = [to_graph6(theta7()), to_graph6(g12())]
    p = tmp_path / "sweep.g6"
    p.write_text("\n".join(lines) + "\n")
    assert run(["verify", str(p), "--input-format", "graph6"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "agreement: true" in out
    assert out.count("closure=ok") == 2


def test_verify_directory(tmp_path, capsys):
    (tmp_path / "a.txt").write_text(to_edge_list(theta7()))
    (tmp_path / "b.g6").write_text(to_graph6(g12()) + "\n")
    assert run(["verify", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "a.txt" in out and "b.g6:0" in out


def test_verify_directory_parallel(tmp_path, capsys):
    (tmp_path / "a.txt").write_text(to_edge_list(theta7()))
    (tmp_path / "b.txt").write_text(to_edge_list(star3()))
    assert run(["verify", str(tmp_path), "--jobs", "2"]) == EXIT_OK
    assert "agreement: true" in capsys.readouterr().out


def test_verify_names_the_line_it_cannot_parse(tmp_path, capsys):
    p = tmp_path / "sweep.g6"
    p.write_text(to_graph6(theta7()) + "\n\n" + to_graph6(g12())[:-1] + "\n")
    assert run(["verify", str(p), "--input-format", "graph6"]) == EXIT_USER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {p} line 3: graph6 body length 10, expected 11 for n=12\n"
    )


def test_verify_names_a_disconnected_input(tmp_path, capsys):
    g6 = tmp_path / "isolated.g6"
    g6.write_text("C?\n")
    empty = tmp_path / "empty.g6"
    empty.write_text("?\n")  # a graph with no vertices
    edges = tmp_path / "two.txt"
    edges.write_text("a b\nc d\n")
    graph6 = ["--input-format", "graph6"]
    for path, flags, where, error in (
        (g6, graph6, f"{g6} line 1", "graph is not connected"),
        (empty, graph6, f"{empty} line 1", "graph has no vertices"),
        (edges, [], str(edges), "graph is not connected"),
    ):
        for jobs in ([], ["--jobs", "2"]):
            assert run(["verify", str(path), *flags, *jobs]) == EXIT_USER
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {where}: {error}\n"


def test_check_skips_the_oracles_above_n_12():
    g = generate("random-tree", 20, seed=1)
    report = check(g, solve(g))
    assert report["oracle_hull_number"] is None
    assert report["skipped"] == "oracle hull check skipped above n=12"
    assert report["atoms_match"] is None
    assert report["enumeration_complete"] is None
    assert "enumeration_count" not in report
    assert report["agreement"] is True


def test_check_agrees_on_every_25th_graph_on_8_vertices():
    lines = CORPUS_8_PATH.read_text().splitlines()[::25]
    assert len(lines) == 445
    for line in lines:
        g = parse_graph6(line)
        assert check(g, solve(g))["agreement"], line


def test_verify_mismatch_exit(monkeypatch, theta_file, capsys):
    monkeypatch.setattr(tollhull.check, "bf_hull_number", lambda g: 99)
    assert run(["verify", theta_file]) == EXIT_MISMATCH
    assert "MISMATCH" in capsys.readouterr().out


def test_verify_fails_on_dropped_extreme_vertex(monkeypatch, tmp_path, capsys):
    real = tollhull.check.extreme_vertices
    # the three leaves of the star are extreme; one of them goes missing
    monkeypatch.setattr(tollhull.check, "extreme_vertices", lambda g: real(g) - {min(real(g))})
    p = tmp_path / "star.txt"
    p.write_text(to_edge_list(star3()))
    assert run(["verify", str(p), "--format", "json"]) == EXIT_MISMATCH
    doc = json.loads(capsys.readouterr().out)
    (report,) = doc["result"]["reports"]
    assert report["agreement"] is False
    assert report["mismatches"] == ["oracle_extreme", "extreme"]
    assert report["enumeration_complete"] and report["atoms_match"]
    assert report["oracle_hull_number"] == report["solver_hull_number"]


def verify_report(path, capsys) -> dict:
    """The one report of a JSON ``verify`` run that finds a mismatch."""
    assert run(["verify", str(path), "--format", "json"]) == EXIT_MISMATCH
    doc = json.loads(capsys.readouterr().out)
    (report,) = doc["result"]["reports"]
    assert report["agreement"] is False
    return report


def test_verify_checks_intervals(monkeypatch, theta_file, capsys):
    real = tollhull.check.toll_interval

    def widened(g, x, y):
        # one vertex more than the interval holds, where one is missing
        iv = real(g, x, y)
        return iv | {min(set(range(g.n)) - iv, default=x)}

    monkeypatch.setattr(tollhull.check, "toll_interval", widened)
    assert verify_report(theta_file, capsys)["mismatches"] == ["intervals"]


def test_verify_checks_closure_by_brute_force(monkeypatch, theta_file, capsys):
    real = tollhull.check.bf_hull
    monkeypatch.setattr(tollhull.check, "bf_hull", lambda g, s: real(g, s) - {0})
    report = verify_report(theta_file, capsys)
    assert report["mismatches"] == ["closure"]
    assert report["closure_ok"] is False
    # the text line of a failing graph names its failed checks
    assert run(["verify", theta_file]) == EXIT_MISMATCH
    line = capsys.readouterr().out.splitlines()[0]
    assert line.endswith("closure=FAIL MISMATCH closure")


def test_verify_checks_separation(monkeypatch, tmp_path, capsys):
    real = tollhull.check.atoms

    def misflagged(g):
        # the path's end atom {0, 1} is extremal; removing it leaves 2-3
        # connected, so flagging it non-extremal must fail the check
        dec = real(g)
        return dataclasses.replace(dec, extremal_flags=(False,) + dec.extremal_flags[1:])

    monkeypatch.setattr(tollhull.check, "atoms", misflagged)
    p = tmp_path / "path.txt"
    p.write_text("0 1\n1 2\n2 3\n")
    report = verify_report(p, capsys)
    assert report["mismatches"] == ["separation"]
    assert report["atoms_match"] is True


def test_verify_agreeing_report_keys(theta_file, capsys):
    assert run(["verify", theta_file, "--format", "json"]) == EXIT_OK
    (report,) = json.loads(capsys.readouterr().out)["result"]["reports"]
    assert list(report) == [
        "n", "solver_hull_number", "closure_ok", "oracle_hull_number",
        "atoms_match", "enumeration_complete", "enumeration_count",
        "agreement", "name",
    ]


def test_verify_fails_on_incomplete_enumeration(monkeypatch, theta_file, capsys):
    real = tollhull.check.compare_with_bruteforce

    def incomplete(g):
        # the stream misses its first set
        report = real(g)
        return dataclasses.replace(
            report,
            emitted=report.emitted[1:],
            complete=False,
            missing=report.emitted[:1],
        )

    monkeypatch.setattr(tollhull.check, "compare_with_bruteforce", incomplete)
    assert run(["verify", theta_file, "--format", "json"]) == EXIT_MISMATCH
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["agreement"] is False
    (report,) = doc["result"]["reports"]
    assert report["enumeration_complete"] is False
    assert report["agreement"] is False


def test_gen_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "gen.txt"
    argv = ["gen", "--model", "gnp", "--n", "30", "--p", "0.2",
            "--seed", "7", "--out", str(out_file)]
    assert run(argv) == EXIT_OK
    first = out_file.read_text()
    assert run(argv) == EXIT_OK
    assert out_file.read_text() == first  # seeded determinism
    assert run(["hull", str(out_file)]) == EXIT_OK
    capsys.readouterr()


def test_gen_json_without_out_is_one_document(capsys):
    argv = ["gen", "--model", "tree", "--n", "8", "--seed", "3"]
    assert run(argv) == EXIT_OK
    text = capsys.readouterr().out
    assert run(argv + ["--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["edge_list"] == text
    assert doc["result"]["out"] == "-"


def test_gen_text_timing_goes_to_stderr(capsys):
    argv = ["gen", "--model", "tree", "--n", "8", "--seed", "3"]
    assert run(argv) == EXIT_OK
    plain = capsys.readouterr().out
    assert run(argv + ["--timing"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == plain
    assert captured.err.startswith("elapsed_ms: ")


def test_gen_out_that_cannot_be_written_is_user_error(tmp_path, capsys):
    argv = ["gen", "--model", "gnp", "--n", "4", "--p", "0.5", "--out"]
    for target in (tmp_path, tmp_path / "missing" / "gen.txt"):
        assert run(argv + [str(target)]) == EXIT_USER
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}: ")
        assert captured.err.count("\n") == 1


def test_gen_tree_model(capsys):
    assert run(["gen", "--model", "tree", "--n", "8", "--seed", "3"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7


def test_user_errors(tmp_path, capsys):
    assert run(["hull", str(tmp_path / "missing.txt")]) == EXIT_USER
    bad = tmp_path / "bad.txt"
    bad.write_text("a a\n")
    assert run(["hull", str(bad)]) == EXIT_USER
    disc = tmp_path / "disc.txt"
    disc.write_text("a b\nc d\n")
    assert run(["hull", str(disc)]) == EXIT_USER
    capsys.readouterr()


def test_unreadable_input_is_user_error(monkeypatch, tmp_path, capsys):
    undecodable = tmp_path / "bom.txt"
    undecodable.write_bytes(b"\xff\xfea b\n")
    for argv in (["hull", str(tmp_path)], ["hull", str(undecodable)],
                 ["verify", str(tmp_path)]):
        assert run(argv) == EXIT_USER
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and "Traceback" not in err
    # a strict stdin, and one that lets bad bytes through as surrogates,
    # as UTF-8 mode's does: both are decoded as a file is
    for errors in ("strict", "surrogateescape"):
        stdin = io.TextIOWrapper(
            io.BytesIO(b"\xff\xfea b\n"), encoding="utf-8", errors=errors
        )
        monkeypatch.setattr(sys, "stdin", stdin)
        assert run(["hull", "-"]) == EXIT_USER
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read -")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "target, argv",
    [
        ("parse_graph", ["hull", "FILE"]),
        ("solve", ["hull", "FILE"]),
        ("generate", ["gen", "--model", "tree", "--n", "8"]),
    ],
)
def test_out_of_memory_is_one_error_line(monkeypatch, theta_file, capsys, target, argv):
    import tollhull.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, target, exhausted)
    argv = [theta_file if a == "FILE" else a for a in argv]
    assert run(argv) == EXIT_USER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: the input is too large for this machine\n"


@pytest.mark.parametrize(
    "target, error, argv",
    [
        ("solve", SolverInvariantError, ["hull", "FILE"]),
        ("enumerate_min_hull_sets", EnumerationError, ["enumerate", "FILE"]),
        ("extreme_vertices", AssertionError, ["extreme", "FILE"]),
    ],
)
def test_internal_error_exits_2(monkeypatch, theta_file, capsys, target, error, argv):
    import tollhull.cli as cli

    def broken(*args, **kwargs):
        raise error("broken invariant")

    monkeypatch.setattr(cli, target, broken)
    argv = [theta_file if a == "FILE" else a for a in argv]
    assert run(argv) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: broken invariant\n"


FUZZED_COMMANDS = (
    ["hull"],
    ["atoms"],
    ["extreme"],
    ["enumerate", "--limit", "2"],
    ["verify"],
    ["interval", "--x", "a", "--y", "b"],
    ["closure", "--set", "a,b"],
)


def captured_run(argv, stdin=None):
    """run(argv) with stdin replaced when one is given; returns the exit
    code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = stdin
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60)
@example(b"\xff\xfea b\n")
@example(b"a b\nb c\n")
@given(st.binary(max_size=64))
def test_cli_contract_holds_on_any_bytes(data):
    # any bytes, as a file or on a stdin as lenient as UTF-8 mode's, end
    # in exit 0 or 1 with no traceback, the same code either way
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph"
        path.write_bytes(data)
        for command, *flags in FUZZED_COMMANDS:
            for fmt in ("edge-list", "graph6"):
                tail = [*flags, "--input-format", fmt]
                code, _, err = captured_run([command, str(path), *tail])
                stdin = io.TextIOWrapper(
                    io.BytesIO(data), encoding="utf-8", errors="surrogateescape"
                )
                piped, _, piped_err = captured_run([command, "-", *tail], stdin)
                assert code in (EXIT_OK, EXIT_USER), (command, fmt, err)
                assert piped == code, (command, fmt, err, piped_err)
                assert "Traceback" not in err + piped_err


@settings(max_examples=200, deadline=None)
@given(
    limit=st.integers(-2, 5),
    jobs=st.integers(-2, 4),
    n=st.integers(-2, 30),
    p=st.floats(allow_nan=True, allow_infinity=True),
    seed=st.integers(),
    model=st.sampled_from(("gnp", "tree", "complete", "cycle")),
)
def test_cli_contract_holds_on_any_numeric_flag(limit, jobs, n, p, seed, model):
    # flags as --flag=value, so a negative or infinite value reaches the
    # command instead of reading as an option; verify's one graph caps its
    # pool at one process, so no worker starts
    runs = (
        (["enumerate", "-", f"--limit={limit}"], to_edge_list(theta7())),
        (["verify", "-", f"--jobs={jobs}"], "a b\nb c\nc d\n"),
        (["gen", f"--model={model}", f"--n={n}", f"--p={p}", f"--seed={seed}"], ""),
    )
    for argv, text in runs:
        code, _, err = captured_run(argv, io.StringIO(text))
        assert code in (EXIT_OK, EXIT_USER), (argv, err)
        assert "Traceback" not in err


# sha256 over the `hull - --trace --format json --input-format graph6`
# output of every graph of connected_le7.g6, in file order; a change to a
# chosen set, a rule label or the order of a merge's f_prime and m_prime
# moves it, and scripts/output_digest.py names the graphs that moved
CORPUS_HULL_TRACE_SHA256 = (
    "f48e90d54d0284b0d500ebb11bf1467953a1bc6d242d836e9054772a3f5d457c"
)


def test_hull_trace_output_is_pinned_on_corpus():
    sha = hashlib.sha256()
    argv = ["hull", "-", "--trace", "--format", "json", "--input-format", "graph6"]
    for line in CORPUS_PATH.read_text().split():
        code, out, _ = captured_run(argv, io.StringIO(line))
        assert code == EXIT_OK, line
        sha.update(out.encode())
    assert sha.hexdigest() == CORPUS_HULL_TRACE_SHA256


# sha256 over the exit code and stdout of every subcommand, in text and
# in json, without --timing: each one-graph command on g12 and theta7,
# verify on theta7 and gen on a seeded tree; any byte a command prints
# moves it
CLI_OUTPUT_SHA256 = (
    "ecd111ad71e37dc1f95142c7539742d26c34d248ceea86bb45515782020d8941"
)


def test_cli_output_is_pinned_in_both_formats():
    graphs = {"g12": (g12(), "v1", "v11"), "theta7": (theta7(), "s", "q")}
    runs = []
    for name, (g, x, y) in graphs.items():
        for argv in (["hull", "-", "--trace"], ["atoms", "-"],
                     ["interval", "-", "--x", x, "--y", y],
                     ["closure", "-", "--set", f"{x},{y}"],
                     ["extreme", "-"], ["enumerate", "-"]):
            runs.append((argv, to_edge_list(g)))
    runs.append((["verify", "-"], to_edge_list(theta7())))
    runs.append((["gen", "--model", "tree", "--n", "8", "--seed", "3"], ""))
    sha = hashlib.sha256()
    for argv, text in runs:
        for fmt in ("text", "json"):
            code, out, err = captured_run([*argv, "--format", fmt], io.StringIO(text))
            assert code == EXIT_OK and err == "", (argv, fmt, err)
            sha.update(f"{' '.join(argv)} {fmt} {code}\n{out}".encode())
    assert sha.hexdigest() == CLI_OUTPUT_SHA256


def test_verify_with_nothing_to_check_fails(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    blank = tmp_path / "blank.g6"
    blank.write_text("\n  \n")
    for argv in (["verify", str(empty)],
                 ["verify", str(blank), "--input-format", "graph6"]):
        assert run(argv) == EXIT_USER
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no graphs to verify" in captured.err


def test_flags_only_on_the_commands_that_read_them(capsys):
    # --trace belongs to hull alone, and gen reads no input
    theta = to_edge_list(theta7())
    gen = ["gen", "--model", "tree", "--n", "8"]
    for argv in (["atoms", "-", "--trace"], ["extreme", "-", "--trace"],
                 ["interval", "-", "--x", "s", "--y", "q", "--trace"],
                 ["closure", "-", "--set", "s", "--trace"],
                 ["enumerate", "-", "--trace"], ["verify", "-", "--trace"],
                 [*gen, "--trace"], [*gen, "--input-format", "graph6"]):
        code, out, err = captured_run(argv, io.StringIO(theta))
        assert code == EXIT_USER, argv
        assert out == "" and "unrecognized arguments" in err, argv


def test_hull_rejects_a_graph6_sweep_file(capsys):
    assert run(["hull", str(CORPUS_PATH), "--input-format", "graph6"]) == EXIT_USER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "holds 996 graphs" in captured.err and "verify" in captured.err


def test_unknown_label_is_user_error(fig_file, capsys):
    assert run(["interval", fig_file, "--x", "zz", "--y", "v1"]) == EXIT_USER
    capsys.readouterr()


def test_hull_with_timing_flag(fig_file, capsys):
    assert run(["hull", fig_file, "--timing"]) == EXIT_OK
    assert "elapsed_ms:" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_enumerate_timing_covers_the_stream(monkeypatch, theta_file, capsys, fmt):
    import time

    import tollhull.cli as cli

    real = cli.enumerate_min_hull_sets

    def slow(g, limit=None):
        time.sleep(0.05)
        yield from real(g, limit=limit)

    monkeypatch.setattr(cli, "enumerate_min_hull_sets", slow)
    assert run(["enumerate", theta_file, "--format", fmt, "--timing"]) == EXIT_OK
    out = capsys.readouterr().out
    if fmt == "json":
        elapsed = json.loads(out)["elapsed_ms"]
    else:
        elapsed = float(out.splitlines()[-1].removeprefix("elapsed_ms: "))
    assert elapsed >= 50
