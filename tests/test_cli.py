"""Command-line behavior: outputs, exit codes, determinism, file formats."""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import gaindex
from gaindex import cli
from gaindex.checks import DEFAULT_ALPHAS, run_checks
from gaindex.cli import main
from gaindex.enumeration import enumerate_connected
from gaindex.formats import parse_graph6, parse_graph_spec, to_graph6
from gaindex.indices import IndexValue
from gaindex.report import float_report, json_rows
from gaindex.sweeps import SweepResult


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_cycle4_json(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "C4", "--format", "json")
        assert code == 0
        (row,) = json.loads(out)
        assert row["GA1"]["exact"] == "4"
        assert row["M1"]["exact"] == "16"
        assert row["class"] == "cycle(4)"
        assert row["name"] == "C4"

    def test_star5_exact_value(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "S5", "--format", "json")
        (row,) = json.loads(out)
        assert code == 0 and row["GA1"]["exact"] == "16/5"

    def test_alpha_battery(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "C4", "--alpha", "3/2", "--format", "json"
        )
        (row,) = json.loads(out)
        assert code == 0
        assert row["chi_3/2"]["exact"] == "32"

    def test_exact_value_beyond_the_float_range(self, capsys):
        # M1^(601/2) of K13 is 13 * 12^(601/2), exact but above the float range.
        code, out, _ = run_cli(
            capsys, "compute", "K13", "--alpha", "601/2", "--format", "json"
        )
        (row,) = json.loads(out)
        assert code == 0
        assert row["M1^601/2"] == {
            "exact": f"{26 * 12**300}*sqrt(3)",
            "approx": math.inf,
            "precision_bits": 53,
        }
        code, out, _ = run_cli(capsys, "compute", "K13", "--alpha", "601/2")
        assert code == 0 and "'approx': inf" in out

    @pytest.mark.parametrize(
        "spec, alpha", [("K13", "1000.3"), ("C4", f"{10**400}/3")], ids=["power", "alpha"]
    )
    def test_float_alpha_beyond_the_float_range(self, capsys, spec, alpha):
        code, out, err = run_cli(capsys, "compute", spec, "--alpha", alpha)
        assert code == 2 and out == ""
        assert "is out of range" in err and "OverflowError" not in err

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "paw")
        assert code == 0
        assert "GA1" in out and "sqrt(6)" in out

    def test_connected_graphs_2_to_6_pinned(self, capsys, tmp_path):
        # Pinned bytes of every index of the 142 connected graphs with
        # 2 <= n <= 6, at two exact alphas and at 1/3, which float mode takes.
        graphs = [g for n in range(2, 7) for g in enumerate_connected(n)]
        assert len(graphs) == 142
        path = tmp_path / "graphs.g6"
        path.write_text("".join(to_graph6(g) + "\n" for g in graphs))
        alphas = ("--alpha", "3/2", "--alpha", "1/3", "--alpha=-1/2")
        digests = {
            "json": "cd5e776117e61d43ed3709db7baf2342b048a24fc96f3b98fac121be13c01420",
            "csv": "3b05de957ed4dcce846c30a4832d63574ae77ef1cde79e5838de0c3e8f104b26",
            "text": "1dcb6cbe80d6810b38b32455b3bd131016e897babc2733354c9d3109aebb0813",
        }
        for fmt, digest in digests.items():
            code, out, _ = run_cli(
                capsys, "compute", "-i", str(path), *alphas, "--format", fmt
            )
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "C4", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert "GA1.exact" in header

    def test_no_input_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "compute")
        assert code == 2 and "no input graphs" in err

    def test_bad_graph6_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "!!!")
        assert code == 2 and "error" in err

    def test_graph_without_edges_names_the_reason(self, capsys):
        code, out, err = run_cli(capsys, "compute", "?")  # no vertices
        assert code == 2 and out == ""
        assert err.rstrip().endswith("contain an edge; graph has no edges")
        code, _, err = run_cli(capsys, "compute", "A?")  # two isolated vertices
        assert code == 2 and "isolated vertices: [0, 1]" in err


class TestInputs:
    def test_graph6_file(self, capsys, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text("A_\nBw\n")
        code, out, _ = run_cli(
            capsys, "compute", "-i", str(path), "--format", "json"
        )
        rows = json.loads(out)
        assert code == 0 and [row["n"] for row in rows] == [2, 3]

    def test_edge_list_file(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
        code, out, _ = run_cli(
            capsys, "compute", "-i", str(path), "--format", "json"
        )
        (row,) = json.loads(out)
        assert code == 0 and row["name"] == "C4"

    @pytest.mark.parametrize("command", ["compute", "check"])
    @pytest.mark.parametrize("line", ["0 1", "1 0"], ids=["same", "reversed"])
    def test_repeated_edge_line_exits_2(self, capsys, tmp_path, command, line):
        # Read as one edge, the file would be P2 plus an isolated vertex.
        path = tmp_path / "graph.txt"
        path.write_text(f"3 2\n0 1\n{line}\n")
        code, out, err = run_cli(capsys, command, "-i", str(path))
        assert code == 2 and out == ""
        assert f"repeated edge line '{line}'" in err

    def test_stdin_graph6(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("A_\n"))
        code, out, _ = run_cli(capsys, "compute", "-", "--format", "json")
        (row,) = json.loads(out)
        assert code == 0 and row["n"] == 2


class TestStreamedInput:
    def test_each_graph_is_parsed_when_it_is_checked(
        self, capsys, monkeypatch, tmp_path
    ):
        import gaindex.formats

        events = []
        parse = gaindex.formats.parse_graph6

        def parsing(text):
            events.append("parse")
            return parse(text)

        def checking(g, ids=None, alphas=None):
            events.append("check")
            return run_checks(g, ids=ids, alphas=alphas)

        monkeypatch.setattr(gaindex.formats, "parse_graph6", parsing)
        monkeypatch.setattr(cli, "run_checks", checking)
        path = tmp_path / "graphs.g6"
        path.write_text("A_\nBw\nCr\n")
        code, _, _ = run_cli(capsys, "check", "-i", str(path), "--format", "json")
        assert code == 0 and events == ["parse", "check"] * 3

    def test_bad_line_after_checked_graphs_writes_nothing(
        self, capsys, monkeypatch, tmp_path
    ):
        checked = []

        def spy(g, ids=None, alphas=None):
            checked.append(to_graph6(g))
            return run_checks(g, ids=ids, alphas=alphas)

        monkeypatch.setattr(cli, "run_checks", spy)
        path = tmp_path / "graphs.g6"
        path.write_text("A_\nBw\n!!!\n")
        code, out, err = run_cli(capsys, "check", "-i", str(path))
        assert checked == ["A_", "Bw"]
        assert code == 2 and out == ""
        assert "invalid graph6 character" in err


class TestLinegraph:
    def test_emits_graph6(self, capsys):
        code, out, _ = run_cli(capsys, "linegraph", "P4", "--format", "json")
        (row,) = json.loads(out)
        assert code == 0
        lg = parse_graph6(row["line_graph6"])
        assert lg.n == 3 and lg.m == 2
        assert row["degree_identity"] is True
        assert row["zagreb_identity"] is True

    def test_trivial_input_rejected(self, capsys):
        code, _, err = run_cli(capsys, "linegraph", "P2")
        assert code == 2 and "two edges" in err

    def test_one_line_graph_per_input(self, capsys, monkeypatch):
        import gaindex.linegraph

        built = []
        line_graph = gaindex.linegraph.line_graph

        def counting_line_graph(g):
            built.append(g)
            return line_graph(g)

        monkeypatch.setattr(gaindex.linegraph, "line_graph", counting_line_graph)
        code, _, _ = run_cli(capsys, "linegraph", "P5", "C4", "S5", "paw")
        assert code == 0 and len(built) == 4


class TestCheck:
    def test_star_bound_on_s5(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "S5", "--theorems", "star_lower_bound",
            "--format", "json",
        )
        (row,) = json.loads(out)
        assert code == 0
        assert row["equality"] is True
        assert row["characterization_consistent"] is True

    def test_all_checks_on_c4(self, capsys):
        code, out, _ = run_cli(capsys, "check", "C4", "--format", "json")
        rows = json.loads(out)
        assert code == 0
        assert all(r["holds"] or not r["preconditions_met"] for r in rows)
        assert any(r["equality"] for r in rows)

    def test_skipped_preconditions_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "P5", "--theorems", "line_sqrt_bound",
            "--format", "json",
        )
        (row,) = json.loads(out)
        assert code == 0 and row["preconditions_met"] is False

    def test_line_order_bound_skipped_on_a_disconnected_graph(self, capsys):
        # 2P3: GA1(L(G)) = 2 is below the order bound 3*sqrt(3)/2 of L(G),
        # which holds for connected graphs only.
        code, out, _ = run_cli(capsys, "check", "EW?W", "--format", "json")
        rows = [r for r in json.loads(out) if r["check_id"] == "line_order_bound"]
        assert code == 0
        assert [(r["preconditions_met"], r["notes"]) for r in rows] == [
            (False, "requires a connected graph")
        ]

    def test_unknown_check_id_lists_available(self, capsys):
        code, _, err = run_cli(capsys, "check", "C4", "--theorems", "bogus")
        assert code == 2
        assert "star_lower_bound" in err

    def test_violation_exit_code(self, capsys, monkeypatch):
        from gaindex import cli as cli_module
        from gaindex.report import skipped_report

        broken = skipped_report("fake", ">=", "forced")._replace(
            preconditions_met=True, holds=False
        )
        monkeypatch.setattr(
            cli_module, "run_checks", lambda g, ids=None, alphas=None: [broken]
        )
        code, _, _ = run_cli(capsys, "check", "C4", "--format", "json")
        assert code == 1


def reference_check_json(graphs, ids=None, alphas=DEFAULT_ALPHAS) -> str:
    """``json.dump`` of ``to_dict`` rows: the reference output for ``json_rows``."""
    rows = [
        {**r.to_dict(), "graph6": to_graph6(g)}
        for g in graphs
        for r in run_checks(g, ids=ids, alphas=alphas)
    ]
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


def paw_report():
    """A report with radical sides and a characterization, so no null flags."""
    reports = run_checks(parse_graph_spec("paw"), ids=["star_lower_bound"])
    return next(r for r in reports if r.lhs.exact is not None)


class TestCheckJsonEncoder:
    """The fixed-schema encoder writes the bytes ``json.dump`` wrote."""

    def test_connected_graphs_up_to_5(self, capsys, tmp_path):
        graphs = [g for n in range(1, 6) for g in enumerate_connected(n)]
        path = tmp_path / "graphs.g6"
        path.write_text("".join(to_graph6(g) + "\n" for g in graphs))
        code, out, _ = run_cli(capsys, "check", "-i", str(path), "--format", "json")
        assert code == 0
        assert out == reference_check_json(graphs)

    def test_connected_graphs_up_to_6_pinned(self, capsys, tmp_path):
        # Pinned bytes of every verdict, exact string and float.  At n = 6 the
        # float-mode alpha = 2 bounds add terms whose order changes the last
        # bit, so a reordered float sum shows here as well.  The csv and text
        # rows come from to_dict, which reads the same display floats and
        # strings as the json encoder.
        graphs = [g for n in range(1, 7) for g in enumerate_connected(n)]
        path = tmp_path / "graphs.g6"
        path.write_text("".join(to_graph6(g) + "\n" for g in graphs))
        digests = {
            "json": "fe01dae23a0e3857198c543fcc299e672abc92b23995461386e51004a8a5951c",
            "csv": "e64f6291d5d86bcb1d02428f9288230df381d9103db81f1ff6562182322eadef",
            "text": "2c5f34628c3b6926a6bcd026b345e95c652abe44b5b3791430bc3f12c116a91b",
        }
        for fmt, digest in digests.items():
            code, out, _ = run_cli(capsys, "check", "-i", str(path), "--format", fmt)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt

    def test_float_mode_quotients_and_skipped_rows(self, capsys):
        specs = ["C4", "K5", "S5", "paw", "P5", "K5,20", "DS1,2"]
        alphas = ["2", "3/2", "1e300"]
        argv = ["check", *specs, "--format", "json"]
        for alpha in alphas:
            argv += ["--alpha", alpha]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        expected = reference_check_json(
            [parse_graph_spec(s) for s in specs],
            alphas=tuple(Fraction(a) for a in alphas),
        )
        assert out == expected
        # Pinned bytes, so every float-mode float of the alpha bounds at these
        # alphas is fixed, not only equal to what the same code computes.
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "d7067c1a4b2cc10298266847e4eb8c7db594c37051d24e34c8fc531e6b22534f"
        )
        rows = json.loads(out)
        assert {r["mode"] for r in rows} == {"exact", "float", "skipped"}
        assert any(r["mode"] == "exact" and r["rhs"]["exact"] is None for r in rows)
        assert any(math.isnan(r["slack"]) for r in rows)

    @pytest.mark.parametrize(
        "theorems", ["star_lower_bound,line_sqrt_bound,variable_zagreb_bound", ",", ""]
    )
    def test_theorem_subset(self, capsys, theorems):
        specs = ["C4", "K5", "S5", "paw"]
        code, out, err = run_cli(
            capsys, "check", *specs, "--theorems", theorems, "--format", "json"
        )
        ids = [tok for tok in theorems.split(",") if tok]
        if not ids:  # an empty selection is a usage error, not a clean run
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            return
        assert code == 0
        assert out == reference_check_json([parse_graph_spec(s) for s in specs], ids)

    def test_escapes_and_non_finite_floats(self):
        base = paw_report()
        notes = ['quote " backslash \\ newline \n bell \x07', "non-ASCII: é → 𝔾", ""]
        sides = [
            IndexValue.of_float(math.inf),
            IndexValue.of_float(-math.inf),
            IndexValue.of_float(math.nan),
            base.rhs,
        ]
        reports = [
            base._replace(notes=note, lhs=side, mode="float")
            for note in notes
            for side in sides
        ]
        # No true bound reaches the 256-bit re-check; an apparent violation does.
        reports.append(float_report("forced", ">=", lambda power: (1.0, 1.5)))
        assert "256-bit" in reports[-1].notes
        graph6 = "C\\"  # graph6 characters include the backslash
        rows = json_rows(reports, graph6)
        expected = [{**r.to_dict(), "graph6": graph6} for r in reports]
        assert "[\n" + ",\n".join(rows) + "\n]" == json.dumps(
            expected, indent=2, sort_keys=True
        )

    def test_keys_match_to_dict(self):
        report = paw_report()
        (row,) = json_rows([report], "Cx")
        decoded = json.loads(row)
        fields = report.to_dict()
        assert set(decoded) == set(fields) | {"graph6"}
        assert set(decoded["lhs"]) == set(fields["lhs"])
        assert set(decoded["rhs"]) == set(fields["rhs"])

    def test_int_in_a_float_slot_raises(self):
        # json.dump would print 1 where a float prints 1.0; refuse instead.
        report = paw_report()._replace(lhs=IndexValue(None, lambda: (1, 0.0)))
        with pytest.raises(TypeError):
            json_rows([report], "Cx")


class TestSweep:
    def test_small_sweep_clean(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--nmax", "5", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        agg = {r["check_id"]: r for r in rows if "check_id" in r}
        assert agg["star_lower_bound"]["violations"] == 0

    def test_golden_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--nmax", "6", "--trials", "200", "--seed", "42",
            "--format", "json",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ea4912729887c94096d94a4a004213ede3652ad49f29df5f8dfba0f2e9023724"
        )

    def test_deterministic_output(self, capsys):
        args = ("sweep", "--nmax", "4", "--trials", "25", "--seed", "7",
                "--format", "json")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_nmax_guard(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--nmax", "9")
        (line,) = err.splitlines()
        assert code == 2 and out == ""
        assert line.startswith("error:") and "ENUMERATION_MAX_N = 8" in line

    def test_nmax_8_reaches_the_exhaustive_sweep(self, capsys, monkeypatch):
        # Tier-1 runs no n = 8 sweep; the stand-in records the order asked for.
        asked = []

        def fake_sweep(n_max, alphas):
            asked.append(n_max)
            return SweepResult()

        monkeypatch.setattr(cli, "exhaustive_sweep", fake_sweep)
        code, _, err = run_cli(capsys, "sweep", "--nmax", "8")
        assert code == 0 and err == "" and asked == [8]

    @pytest.mark.parametrize("n_high", ["2", "448", "100000"])
    def test_random_nmax_out_of_range(self, capsys, n_high):
        code, out, err = run_cli(
            capsys, "sweep", "--nmax", "2", "--trials", "1", "--random-nmax", n_high
        )
        (line,) = err.splitlines()
        assert code == 2 and out == ""
        assert line == (
            "error: random graphs need 3 <= n_high <= 447 (MAX_EDGES = 100000), "
            f"got {n_high}"
        )


    @pytest.mark.parametrize(
        "argv,unreached,message",
        [
            (
                ["--nmax", "9", "--trials", "1"],
                "random_sweep",
                "error: order 9 exceeds ENUMERATION_MAX_N = 8",
            ),
            (
                ["--nmax", "8", "--trials", "1", "--random-nmax", "2"],
                "exhaustive_sweep",
                "error: random graphs need 3 <= n_high <= 447 "
                "(MAX_EDGES = 100000), got 2",
            ),
            (
                ["--trials", "-5", "--random-nmax", "100000"],
                "exhaustive_sweep",
                "error: --trials must be at least 0, got -5",
            ),
            (
                ["--nmax", "-3", "--format", "csv"],
                "exhaustive_sweep",
                "error: order -3 is below 2, the least order with an edge",
            ),
            (
                ["--nmax", "1", "--trials", "0"],
                "exhaustive_sweep",
                "error: order 1 is below 2, the least order with an edge",
            ),
        ],
        ids=["nmax", "random-nmax", "trials", "nmax-negative", "nmax-1"],
    )
    def test_bad_arguments_refused_before_either_part(
        self, capsys, monkeypatch, argv, unreached, message
    ):
        def must_not_run(*args, **kwargs):
            pytest.fail(f"{unreached} ran before the arguments were checked")

        monkeypatch.setattr(cli, unreached, must_not_run)
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert code == 2 and out == "" and err.splitlines() == [message]

    def test_bucket_mismatch_exits_1(self, capsys, monkeypatch):
        import gaindex.sweeps

        monkeypatch.setattr(
            gaindex.sweeps, "expected_small_value_families", lambda: {}
        )
        code, out, _ = run_cli(capsys, "sweep", "--nmax", "6")
        assert code == 1
        assert "  buckets: small_value_buckets: bucket membership mismatch\n" in out


class TestExtremal:
    def test_tree_min(self, capsys):
        code, out, _ = run_cli(
            capsys, "extremal", "--n", "5", "--m", "4", "--objective", "min",
            "--format", "json",
        )
        (row,) = json.loads(out)
        assert code == 0
        assert row["name"] == "S5" and row["ga1_exact"] == "16/5"

    def test_infeasible(self, capsys):
        code, _, err = run_cli(
            capsys, "extremal", "--n", "4", "--m", "9", "--objective", "max"
        )
        assert code == 2

    def test_edgeless_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "extremal", "--n", "1", "--m", "0", "--objective", "min"
        )
        assert code == 2 and out == ""
        assert "at least one edge" in err


class TestCensus:
    def test_writes_files(self, capsys, tmp_path):
        outdir = tmp_path / "census"
        code, out, _ = run_cli(
            capsys, "census", "--nmax", "4", "--output", str(outdir)
        )
        assert code == 0
        g6 = (outdir / "census_n4.g6").read_text().splitlines()
        assert len(g6) == 6
        assert all(parse_graph6(line).n == 4 for line in g6)
        csv_text = (outdir / "census_n4.csv").read_text()
        assert csv_text.splitlines()[0] == (
            "canonical_form,name,n,m,ga1_exact,ga1_float"
        )
        assert "C4" in csv_text

    def test_nmax_guard_writes_nothing(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "census", "--nmax", "9", "--output", str(tmp_path)
        )
        (line,) = err.splitlines()
        assert code == 2 and out == ""
        assert line.startswith("error:") and "ENUMERATION_MAX_N = 8" in line
        assert list(tmp_path.iterdir()) == []

    def test_nmax_0_refused_before_any_file(self, capsys, tmp_path):
        outdir = tmp_path / "census"
        code, out, err = run_cli(
            capsys, "census", "--nmax", "0", "--output", str(outdir)
        )
        (line,) = err.splitlines()
        assert code == 2 and out == "" and line.startswith("error:")
        assert not outdir.exists()


class TestPrecisionConfig:
    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("GAINDEX_PRECISION", "48")
        code, out, _ = run_cli(capsys, "compute", "C4", "--format", "json")
        (row,) = json.loads(out)
        assert code == 0 and row["GA1"]["precision_bits"] == 48

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GAINDEX_PRECISION", "48")
        code, out, _ = run_cli(
            capsys, "compute", "C4", "--precision", "40", "--format", "json"
        )
        (row,) = json.loads(out)
        assert code == 0 and row["GA1"]["precision_bits"] == 40

    def test_bad_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("GAINDEX_PRECISION", "lots")
        code, _, err = run_cli(capsys, "compute", "C4")
        assert code == 2 and "GAINDEX_PRECISION" in err

    def test_out_of_range_rejected(self, capsys, monkeypatch):
        for bits in ("200", "16"):
            code, out, err = run_cli(capsys, "compute", "P3", "--precision", bits)
            assert code == 2 and out == ""
            assert "--precision" in err and "32 and 53" in err
            monkeypatch.setenv("GAINDEX_PRECISION", bits)
            code, out, err = run_cli(capsys, "compute", "P3")
            assert code == 2 and out == ""
            assert "GAINDEX_PRECISION" in err and "32 and 53" in err
            monkeypatch.delenv("GAINDEX_PRECISION")

    @pytest.mark.parametrize(
        "argv",
        [["check", "C4", "--precision", "40"], ["linegraph", "P4", "--precision", "7"]],
    )
    def test_only_compute_takes_precision(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--precision" in capsys.readouterr().err

    def test_range_ends_accepted(self, capsys):
        for bits in ("32", "53"):
            code, out, _ = run_cli(
                capsys, "compute", "P3", "--precision", bits, "--format", "json"
            )
            (row,) = json.loads(out)
            assert code == 0 and row["GA1"]["precision_bits"] == int(bits)


class TestAlphaRange:
    def test_huge_exact_exponent_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "compute", "S5", "--alpha", "1e300")
        assert code == 2 and out == ""
        assert "MAX_EXACT_EXPONENT" in err

    def test_huge_alpha_becomes_skipped_reports(self, capsys):
        code, out, err = run_cli(
            capsys, "check", "C4", "--alpha", "1e300", "--format", "json"
        )
        assert code == 0 and err == ""
        rows = [r for r in json.loads(out) if "variable_zagreb" in r["check_id"]]
        assert len(rows) == 2
        assert all(r["mode"] == "skipped" and "alpha=" in r["notes"] for r in rows)

    def test_non_finite_alpha_is_usage_error(self, capsys):
        for alpha in ("inf", "nan"):
            try:
                code = main(["check", "C4", "--alpha", alpha])
            except SystemExit as exc:
                code = exc.code
            assert code == 2
            assert "alpha" in capsys.readouterr().err


class _FailingStdout(io.StringIO):
    def __init__(self, exc: Exception):
        super().__init__()
        self.exc = exc

    def write(self, text):
        raise self.exc


class TestExitCodeContract:
    def test_broken_pipe_is_quiet_and_not_one(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _FailingStdout(BrokenPipeError()))
        code = main(["check", "K5", "--format", "json"])
        assert code not in (0, 1, 2)
        assert capsys.readouterr().err == ""

    def test_other_exception_is_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _FailingStdout(OSError("disk full")))
        code = main(["check", "K5", "--format", "json"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "disk full" in err

    def test_crash_after_first_graph_writes_nothing(self, capsys, monkeypatch):
        from gaindex import cli as cli_module

        checked = []

        def fail_on_second(g, ids=None, alphas=None):
            checked.append(g)
            if len(checked) == 2:
                raise RuntimeError("checker crashed")
            return run_checks(g, ids=ids, alphas=alphas)

        monkeypatch.setattr(cli_module, "run_checks", fail_on_second)
        code, out, err = run_cli(capsys, "check", "C4", "K5", "--format", "json")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "checker crashed" in err

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_failure_after_a_checked_graph_writes_nothing(
        self, capsys, monkeypatch, tmp_path, fmt
    ):
        # C4 is checked and its rows are written to the temporary file; then
        # K20,4980 fails the line-graph size check.  Nothing reaches stdout,
        # and no file is left behind in the temporary directory.
        checked = []

        def spy(g, ids=None, alphas=None):
            reports = run_checks(g, ids=ids, alphas=alphas)
            checked.append(to_graph6(g))
            return reports

        monkeypatch.setattr(cli, "run_checks", spy)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        code, out, err = run_cli(capsys, "check", "C4", "K20,4980", "--format", fmt)
        assert checked == ["Cl"]
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "MAX_EDGES" in err
        assert list(tmp_path.iterdir()) == []

    def test_closed_pipe_in_a_real_process(self):
        src = Path(gaindex.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "gaindex.cli", "check", "K5", "K6"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode not in (0, 1)
        assert b"Traceback" not in err and b"Exception ignored" not in err


class TestCheckMemory:
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_output_is_not_held_in_memory(self, monkeypatch, tmp_path, fmt):
        # stdout is a real file, which holds no output in memory as capsys
        # would, and gives the output size.  Keeping every row until the last
        # graph peaked at 1.3 (json), 12.9 (csv) and 2.5 (text) times the
        # output; one graph's rows at a time, at 0.24, 0.48 and 0.16 in a warm
        # process (csv 0.85 as the first command of a fresh one).  The
        # bound is the output size, not half of it: checking one n = 6 graph
        # plus the csv writer's fixed 128 KiB record buffer come near half of
        # the compact csv output.
        graphs = [g for n in range(2, 7) for g in enumerate_connected(n)]
        assert len(graphs) == 142
        path = tmp_path / "graphs.g6"
        path.write_text("".join(to_graph6(g) + "\n" for g in graphs))
        out_path = tmp_path / f"out.{fmt}"
        with out_path.open("w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = main(["check", "-i", str(path), "--format", fmt])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        size = out_path.stat().st_size
        assert code == 0
        assert peak < size, f"peak {peak} bytes for {size} bytes of output"


class TestInputSizeLimits:
    @pytest.mark.parametrize("spec", ["K100000,100000", "P1000000000"])
    def test_oversized_spec_exits_2(self, capsys, spec):
        code, out, err = run_cli(capsys, "compute", spec)
        assert code == 2 and out == ""
        assert "MAX_VERTICES" in err

    def test_oversized_edge_list_header_exits_2(self, capsys, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("1000000000 0\n")
        code, out, err = run_cli(capsys, "check", "-i", str(path))
        assert code == 2 and out == ""
        assert "MAX_VERTICES" in err

    def test_oversized_graph6_file_exits_2(self, capsys, tmp_path):
        # K600 as one graph6 line: 179,700 edges, every data bit set.
        path = tmp_path / "k600.g6"
        path.write_text("~?HW" + "~" * (600 * 599 // 12) + "\n")
        code, out, err = run_cli(capsys, "compute", "-i", str(path))
        assert code == 2 and out == ""
        assert "179700 edges exceed the input limit MAX_EDGES" in err

    @pytest.mark.parametrize("command", ["check", "linegraph"])
    def test_oversized_line_graph_exits_2(self, capsys, monkeypatch, command):
        # K20,4980 passes the input limits, but its line graph would have
        # about 2.5e8 edges; it must be refused before anything is built.
        import gaindex.linegraph

        def refuse(*args, **kwargs):
            raise AssertionError("the line graph was built before the size check")

        monkeypatch.setattr(gaindex.linegraph, "from_edge_list", refuse)
        code, out, err = run_cli(capsys, command, "K20,4980")
        assert code == 2 and out == ""
        assert "MAX_EDGES" in err

    def test_line_graph_limit_checked_before_any_checker(self, capsys, monkeypatch):
        # K447 has 99,681 edges, within the input limits; its line graph would
        # have about 4.4e7.  No checker may run before that is refused.
        import gaindex.checks

        def must_not_run(f):
            pytest.fail("edge_deletion_drop ran before the line-graph size check")

        monkeypatch.setitem(
            gaindex.checks._PLAIN_CHECKS, "edge_deletion_drop", must_not_run
        )
        code, out, err = run_cli(capsys, "check", "K447")
        assert code == 2 and out == ""
        assert "MAX_EDGES" in err
