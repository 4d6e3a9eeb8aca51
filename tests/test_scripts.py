import re
import subprocess
import sys

from conftest import CORPUS_PATH, ROOT, load_module

SWEEP = ROOT / "scripts" / "oracle_sweep.py"
TIMING = ROOT / "scripts" / "timing_scaling.py"


def script(path, *args):
    return subprocess.run(
        [sys.executable, str(path), *args],
        capture_output=True, text=True, timeout=120,
    )


def sweep(*args):
    return script(SWEEP, *args)


def test_oracle_sweep_random_smoke():
    done = sweep("--random", "40", "--max-n", "7", "--seed", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "random: 40 graphs, 0 discrepancies" in done.stdout


def test_oracle_sweep_corpus_smoke(tmp_path):
    # the first 20 corpus lines hold five graphs with a non-extremal atom
    # (the path CL among them); the last three are 7-vertex graphs
    lines = CORPUS_PATH.read_text().splitlines()
    corpus = tmp_path / "few.g6"
    corpus.write_text("\n".join(lines[:20] + [""] + lines[-3:]) + "\n")
    done = sweep("--corpus", str(corpus))
    assert done.returncode == 0, done.stdout + done.stderr
    assert "corpus: 23 graphs, 0 discrepancies" in done.stdout


def test_oracle_sweep_rejects_empty_inputs(tmp_path):
    empty = tmp_path / "empty.g6"
    empty.write_text("\n")
    garbled = tmp_path / "garbled.g6"
    garbled.write_text("zzz\n")
    isolated = tmp_path / "isolated.g6"
    isolated.write_text("C?\n")  # four isolated vertices
    no_vertices = tmp_path / "no_vertices.g6"
    no_vertices.write_text("?\n")
    for args, message in (
        (("--corpus", str(empty)), "no graph in"),
        (("--corpus", str(garbled)), "garbled.g6 line 1: graph6 body length"),
        (("--corpus", str(isolated)), "isolated.g6 line 1: graph is not connected"),
        (("--corpus", str(no_vertices)), "no_vertices.g6 line 1: graph has no vertices"),
        (("--corpus", str(tmp_path / "missing.g6")), "no such file"),
        (("--corpus", str(tmp_path)), "cannot read"),
        (("--random", "-5"), "--random must be at least 0"),
        (("--random", "3", "--max-n", "1"), "--max-n must be at least 2"),
    ):
        done = sweep(*args)
        assert done.returncode == 2, args
        assert message in done.stderr and "Traceback" not in done.stderr


def test_timing_scaling_rejects_bad_arguments():
    # each is refused before any graph is built or timed
    for args, message in (
        (("--repeats", "0"), "--repeats must be at least 1"),
        (("--sizes", "10,x"), "--sizes must be comma-separated integers"),
        (("--sizes", "0"), "--sizes must ascend from at least 1"),
        (("--sizes", "10,10"), "--sizes must ascend"),
        (("--families", "--sizes", "3"), "--sizes must ascend from at least 4"),
        (("--p", "0"), "--p must be in (0, 1]"),
    ):
        done = script(TIMING, *args)
        assert done.returncode == 2, args
        assert message in done.stderr and "Traceback" not in done.stderr
        assert done.stdout == ""


def test_timing_scaling_families_smoke():
    done = script(TIMING, "--families", "--sizes", "8,16", "--repeats", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [re.sub(r"=\s+", "=", line).split() for line in done.stdout.splitlines()]
    families = ("tree", "caterpillar", "cactus", "2-tree", "prime-chain", "spider", "broom")
    assert [row[:2] for row in rows] == [
        [name, f"n={n}"] for name in families for n in (8, 16)
    ]
    for row in rows:
        names = [field.split("=")[0] for field in row[2:8]]
        assert names == ["m", "hull", "time", "extreme", "atoms", "parse"]


def test_timing_scaling_gnp_smoke():
    done = script(TIMING, "--sizes", "10,20", "--repeats", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [re.sub(r"=\s+", "=", line).split() for line in done.stdout.splitlines()]
    assert [row[0] for row in rows] == ["n=10", "n=20"]
    names = [[field.split("=")[0] for field in row[1:]] for row in rows]
    assert names == [
        ["m", "seed", "prime", "hull", "time", "atoms", "parse"],
        ["m", "seed", "prime", "hull", "time", "atoms", "parse", "exponent"],
    ]


def test_oracle_sweep_counts_failed_checks(monkeypatch, tmp_path, capsys):
    oracle_sweep = load_module(SWEEP)
    real = oracle_sweep.check

    def failing(g, r):
        # every check passes but the interval one
        return dict(real(g, r), agreement=False, mismatches=["intervals"])

    monkeypatch.setattr(oracle_sweep, "check", failing)
    corpus = tmp_path / "one.g6"
    corpus.write_text(CORPUS_PATH.read_text().splitlines()[5] + "\n")
    graphs = [g for _, g in oracle_sweep.read_graphs(str(corpus), "graph6", None)]
    assert oracle_sweep.sweep_corpus(graphs) == 1
    out = capsys.readouterr().out
    assert "mismatch on " in out and ": intervals" in out
    assert "corpus: 1 graphs, 1 discrepancies" in out
