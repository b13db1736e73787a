import hashlib
import os
import re

import pytest

from graphette.canon import ID_MASK, WITNESS_SHIFT
from graphette.cli import EXIT_BOUND, EXIT_FORMAT, EXIT_IO, EXIT_OK, main


@pytest.fixture(scope="module")
def k3_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("tables") / "k3.table"
    assert main(["build-table", "-k", "3", "-o", str(path)]) == EXIT_OK
    return path


@pytest.fixture(scope="module")
def k4_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("tables") / "k4.table"
    assert main(["build-table", "-k", "4", "-o", str(path)]) == EXIT_OK
    return path


@pytest.fixture(scope="module")
def k5_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("tables") / "k5.table"
    assert main(["build-table", "-k", "5", "-o", str(path)]) == EXIT_OK
    return path


def write_graph(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


K5_EDGES = "\n".join(f"n{i} n{j}" for i in range(5) for j in range(i)) + "\n"


# --- build-table -------------------------------------------------------------


def test_build_table_summary(tmp_path, capsys):
    out = tmp_path / "k4.table"
    assert main(["build-table", "-k", "4", "-o", str(out)]) == EXIT_OK
    err = capsys.readouterr().err
    assert "NC=11" in err and "orbits=20" in err
    assert out.exists()


def test_build_table_partitioned_matches(tmp_path):
    a = tmp_path / "a.table"
    b = tmp_path / "b.table"
    assert main(["build-table", "-k", "4", "-o", str(a)]) == EXIT_OK
    assert main(["build-table", "-k", "4", "-m", "8", "-o", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_build_table_has_no_workers_option():
    with pytest.raises(SystemExit) as exc:
        main(["build-table", "-k", "4", "--workers", "2", "-o", "x.table"])
    assert exc.value.code == 2


def test_build_table_rejects_k0():
    with pytest.raises(SystemExit) as exc:
        main(["build-table", "-k", "0", "-o", "x.table"])
    assert exc.value.code == 2


def test_build_table_rejects_k9(tmp_path, capsys):
    rc = main(["build-table", "-k", "9", "-o", str(tmp_path / "x.table")])
    assert rc == EXIT_FORMAT
    assert "error" in capsys.readouterr().err


def test_build_table_refuses_more_than_half_of_memory(tmp_path, capsys, monkeypatch):
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 150}  # 600 KiB of physical memory
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    one_shot, split = tmp_path / "k6.table", tmp_path / "k6-split.table"
    assert main(["build-table", "-k", "6", "-o", str(one_shot)]) == EXIT_OK
    assert main(["build-table", "-k", "6", "-m", "2", "-o", str(split)]) == EXIT_OK
    assert split.read_bytes() == one_shot.read_bytes()
    out = tmp_path / "k7.table"
    assert main(["build-table", "-k", "7", "-m", "2", "-o", str(out)]) == EXIT_FORMAT
    assert "16777216 bytes" in capsys.readouterr().err
    assert not out.exists()


# --- query -------------------------------------------------------------------


def test_query_refuses_a_table_larger_than_half_of_memory(tmp_path, capsys, monkeypatch):
    table = tmp_path / "k6.table"
    assert main(["build-table", "-k", "6", "-o", str(table)]) == EXIT_OK
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 100}  # 400 KiB of physical memory
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    assert main(["query", "--table", str(table), "--bits", "7"]) == EXIT_FORMAT
    assert "262144 bytes" in capsys.readouterr().err


def test_query_triangle(k3_table, capsys):
    assert main(["query", "--table", str(k3_table), "--bits", "7"]) == EXIT_OK
    out = capsys.readouterr().out.strip()
    fields = dict(part.split("=", 1) for part in out.split("\t"))
    assert fields["connected"] == "1"
    assert fields["witness"] == "0,1,2"  # 7 is canonical
    assert len(set(fields["orbits"].split(","))) == 1


def test_query_bits_out_of_range(k3_table, capsys):
    assert main(["query", "--table", str(k3_table), "--bits", "8"]) == EXIT_FORMAT
    assert "out of range" in capsys.readouterr().err


def test_query_edge_literal(k3_table, capsys):
    assert main(["query", "--table", str(k3_table), "--edges", "0-1,1-2"]) == EXIT_OK
    out = capsys.readouterr().out.strip()
    fields = dict(part.split("=", 1) for part in out.split("\t"))
    assert fields["bits"] == "5"  # edges {1,0} and {2,1}
    assert fields["canonical_bits"] == "3"
    assert fields["canonical_id"] == "2"


def test_query_rejects_a_bad_edge_literal(k3_table, capsys):
    assert main(["query", "--table", str(k3_table), "--edges", "0-1-2"]) == EXIT_FORMAT
    assert "expected 'u-v'" in capsys.readouterr().err


def test_query_noncanonical_witness_is_not_identity(k3_table, capsys):
    assert main(["query", "--table", str(k3_table), "--bits", "2"]) == EXIT_OK
    fields = dict(p.split("=", 1) for p in capsys.readouterr().out.strip().split("\t"))
    assert fields["canonical_bits"] == "1"
    assert fields["witness"] != "0,1,2"


def test_query_corrupt_table(tmp_path, capsys):
    bad = tmp_path / "bad.table"
    bad.write_bytes(b"NOTATABLE!" * 10)
    assert main(["query", "--table", str(bad), "--bits", "0"]) == EXIT_FORMAT


# record 63 of a k=4 table is K4's: every 4-set of K5 reads it
CORRUPT_K4_RECORD_63 = {
    "canonical-id": lambda record: record & ~ID_MASK | 11,  # NC = 11 at k=4
    "witness": lambda record: record | 7 << WITNESS_SHIFT,  # node 0 sent to 7 > k - 1
}


@pytest.mark.parametrize("command", ["query", "sample", "enumerate"])
@pytest.mark.parametrize("field", sorted(CORRUPT_K4_RECORD_63))
def test_corrupt_record_exits_4(k4_table, tmp_path, capsys, field, command):
    blob = bytearray(k4_table.read_bytes())
    record = int.from_bytes(blob[-8:], "little")  # the last of the 64 records
    blob[-8:] = CORRUPT_K4_RECORD_63[field](record).to_bytes(8, "little")
    table = tmp_path / "bad.table"
    table.write_bytes(blob)
    graph = write_graph(tmp_path, "k5.txt", K5_EDGES)
    args = {"query": ["--bits", "63"], "sample": ["--graph", str(graph), "-N", "20"],
            "enumerate": ["--graph", str(graph)]}[command]
    assert main([command, "--table", str(table), *args]) == EXIT_FORMAT
    assert "corrupt record 63" in capsys.readouterr().err


def test_query_missing_table(tmp_path):
    assert main(["query", "--table", str(tmp_path / "nope"), "--bits", "0"]) == EXIT_IO


# --- sample ------------------------------------------------------------------


def test_sample_complete_host(k3_table, tmp_path, capsys):
    graph = write_graph(tmp_path, "k5.txt", K5_EDGES)
    out = tmp_path / "report.tsv"
    rc = main(["sample", "--table", str(k3_table), "--graph", str(graph),
               "-N", "500", "--seed", "3", "-o", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    triangle = [l for l in lines if l.startswith("3\t7\t")]
    assert triangle and triangle[0].split("\t")[4] == "1"
    # progress went to stderr, not into the report
    err = capsys.readouterr().err
    assert re.fullmatch(r"sampled 500 3-sets \(uniform, seed=3\) from 5 nodes in \d+\.\d\ds "
                        r"\(\d+ samples/s\)\n", err)


def test_sample_deterministic_output(k3_table, tmp_path):
    graph = write_graph(tmp_path, "k5.txt", K5_EDGES)
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    for out in (a, b):
        assert main(["sample", "--table", str(k3_table), "--graph", str(graph),
                     "-N", "400", "--seed", "7", "--strategy", "local",
                     "-o", str(out)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_sample_graph_too_small(k4_table, tmp_path, capsys):
    graph = write_graph(tmp_path, "tiny.txt", "a b\nb c\n")
    rc = main(["sample", "--table", str(k4_table), "--graph", str(graph), "-N", "10"])
    assert rc == EXIT_FORMAT


def test_sample_host_smaller_than_k(k3_table, tmp_path):
    graph = write_graph(tmp_path, "p.txt", "a b\n")  # 2 nodes < k=3
    rc = main(["sample", "--table", str(k3_table), "--graph", str(graph),
               "-N", "5", "--strategy", "edge"])
    assert rc == EXIT_FORMAT


# --- enumerate ---------------------------------------------------------------


def test_enumerate_path(k3_table, tmp_path, capsys):
    graph = write_graph(tmp_path, "path.txt", "a b\nb c\n")
    assert main(["enumerate", "--table", str(k3_table), "--graph", str(graph)]) == EXIT_OK
    out, err = capsys.readouterr()
    path_line = [l for l in out.splitlines() if l.startswith("2\t3\t")]
    assert path_line and path_line[0].split("\t")[3] == "1"
    assert re.fullmatch(r"enumerated 1 3-subsets of 3 nodes in \d+\.\d\ds \(\d+ subsets/s\)\n", err)


def test_enumerate_4cycle(k3_table, tmp_path, capsys):
    graph = write_graph(tmp_path, "c4.txt", "a b\nb c\nc d\nd a\n")
    assert main(["enumerate", "--table", str(k3_table), "--graph", str(graph)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    section = lines[2 : lines.index("# orbits")]  # graphette rows only
    rows = {l.split("\t")[0]: l.split("\t") for l in section}
    assert rows["2"][3] == "4"  # four paths
    assert rows["3"][3] == "0"  # no triangles


def test_enumerate_bound_exceeded(k3_table, tmp_path, capsys):
    graph = write_graph(tmp_path, "k5.txt", K5_EDGES)
    rc = main(["enumerate", "--table", str(k3_table), "--graph", str(graph),
               "--bound", "3"])
    assert rc == EXIT_BOUND
    assert "exceeds" in capsys.readouterr().err


def test_sample_and_enumerate_schemas_match(k3_table, tmp_path):
    graph = write_graph(tmp_path, "c4.txt", "a b\nb c\nc d\nd a\n")
    s_out, e_out = tmp_path / "s.tsv", tmp_path / "e.tsv"
    assert main(["sample", "--table", str(k3_table), "--graph", str(graph),
                 "-N", "4", "-o", str(s_out)]) == EXIT_OK
    assert main(["enumerate", "--table", str(k3_table), "--graph", str(graph),
                 "-o", str(e_out)]) == EXIT_OK
    headers = lambda text: [l for l in text.splitlines()
                            if l.startswith("#") or l.split("\t")[0] in ("canonical_id", "orbit_id", "node")]
    assert headers(s_out.read_text()) == headers(e_out.read_text())


# --- orbits ------------------------------------------------------------------


def test_orbits_k3(k3_table, capsys):
    assert main(["orbits", "--table", str(k3_table)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# k=3 canonicals=4 orbits=6"
    triangle = [l for l in lines if "bits=7" in l]
    assert triangle and "orbits=0 1 2" in triangle[0]


def test_orbits_k5(k5_table, capsys):
    assert main(["orbits", "--table", str(k5_table)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "# k=5 canonicals=34 orbits=90"


def test_orbits_k5_bytes_are_pinned(k5_table, capsys):
    # sha256 of `graphette orbits` stdout on a k=5 table
    assert main(["orbits", "--table", str(k5_table)]) == EXIT_OK
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "8c356c4e76f661621d22abc2171c3fea38dc89c08c609d6ca2c64beb1847743c"
    )


@pytest.mark.parametrize("argv", [["-k", "4"], []])
def test_orbits_reads_only_a_table_file(argv):
    with pytest.raises(SystemExit) as exc:
        main(["orbits", *argv])
    assert exc.value.code == 2


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entry_point(k3_table):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "graphette", "orbits", "--table", str(k3_table)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "# k=3 canonicals=4 orbits=6"
