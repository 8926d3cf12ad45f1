import csv
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings

from pollsets import cli
from pollsets.cli import main
from pollsets.data import _parse_rows
from test_data import MULTILINE_THEN_FAULT, _reference_parse, _survey_documents

FIXTURE = "weight,parties\n1.0,A\n1.0,A\n1.0,B\n1.0,A;B\n1.0,C\n"
REG = "A,B,C"
WAVE3_SCHEMA = "female,age_65plus,east,high_income,urban"
COALITIONS_2021 = Path(__file__).resolve().parents[1] / "data" / "coalitions_2021.csv"


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "mini.csv"
    path.write_text(FIXTURE)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDescribe:
    def test_wave3_share_and_top(self, capsys, wave3_path):
        schema = "female,age_65plus,east,high_income,urban"
        code, out, _ = run(
            capsys, "describe", "--input", wave3_path, "--registry",
            "SPD,CDU_CSU,GRUENE,FDP,AFD,LINKE", "--schema", schema, "--top", "15",
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["undecided_unweighted"] - 0.1127) < 1e-4
        assert len(doc["groups"]) == 15

    def test_top_five_rows_csv(self, capsys, fixture_csv):
        code, out, _ = run(
            capsys, "describe", "--input", fixture_csv, "--registry", REG,
            "--format", "csv", "--top", "2",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 2

    def test_empty_file_exit_2(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, _, err = run(capsys, "describe", "--input", empty, "--registry", REG)
        assert code == 2
        assert "empty.csv" in err

    def test_negative_top_exit_2(self, capsys, tmp_path):
        # A negative slice bound used to drop the last group silently.
        path = tmp_path / "four.csv"
        path.write_text("weight,parties\n1,A\n1,A\n1,B\n1,A;B\n")
        code, out, err = run(capsys, "describe", "--input", path, "--registry", "A,B", "--format", "csv", "--top", "-1")
        assert code == 2
        assert out == ""
        assert "top must be nonnegative" in err


class TestMalformedInput:
    @pytest.mark.parametrize(
        "command, seats, message",
        [
            ("bounds", ",", "no party codes"),
            ("bounds", "SPD,XX", "unknown party code 'XX'"),
            ("bounds", "LINKE,LINKE", "party code 'LINKE' repeated"),
            ("forecast", "LINKE,LINKE", "party code 'LINKE' repeated"),
        ],
        ids=["bounds-empty", "bounds-unknown", "bounds-repeated", "forecast-repeated"],
    )
    def test_bad_seats_exit_2_naming_the_flag(self, capsys, wave3_path, command, seats, message):
        # The first two once named no flag, and a repeated code was accepted.
        code, out, err = run(capsys, command, "--input", wave3_path, "--schema", WAVE3_SCHEMA, "--seats", seats)
        assert (code, out, err) == (2, "", f"error: --seats: {message}\n")

    def test_registry_code_with_carriage_return_exit_2(self, capsys, tmp_path):
        # parse_survey reads the quoted cell's "\r" as "\n", as the CLI always
        # did, so the row would be dropped as unregistered.
        path = tmp_path / "cr.csv"
        path.write_bytes(b'weight,parties\n1.0,"A\rB"\n1.0,C\n')
        code, out, err = run(capsys, "describe", "--input", path, "--registry", "A\rB,C")
        assert (code, out, err) == (2, "", "error: registry code 'A\\rB' contains a carriage return\n")

    def test_oversized_field_exit_2_with_line(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("weight,parties\n1.0,A\n1.0,\"" + "A" * 140_000 + "\"\n")
        code, _, err = run(capsys, "describe", "--input", path, "--registry", REG)
        assert code == 2
        assert "line 3" in err

    def test_repeated_code_exit_2_with_line(self, capsys, tmp_path):
        path = tmp_path / "repeat.csv"
        path.write_text("weight,parties\n1.0,A\n1.0,A;A\n1.0,B\n")
        code, _, err = run(capsys, "describe", "--input", path, "--registry", REG)
        assert code == 2
        assert "line 3" in err and "repeated" in err

    def test_unterminated_quote_exit_2_with_line(self, capsys, tmp_path):
        # An open quote must not swallow the rest of the file into one dropped
        # row; the error names the line where the quote opened.
        path = tmp_path / "open_quote.csv"
        path.write_text('weight,parties\n1,A\n1,"B\n1,A\n1,C\n')
        code, _, err = run(capsys, "describe", "--input", path, "--registry", REG)
        assert code == 2
        assert "line 3: malformed CSV" in err

    def test_line_counts_physical_lines_after_multiline_field(self, capsys, tmp_path):
        # The quoted parties cell spans lines 2-3, so the bad weight is on line 4.
        path = tmp_path / "multiline.csv"
        path.write_text('weight,parties\n1,"A\nB"\n-1,A\n')
        code, _, err = run(capsys, "describe", "--input", path, "--registry", "A,B")
        assert code == 2
        assert "line 4:" in err

    @pytest.mark.parametrize("listing", [None, "A,B\nC\n"])
    def test_registry_code_with_separator_exit_2(self, capsys, fixture_csv, tmp_path, listing):
        registry = "A;B,C"
        if listing is not None:
            path = tmp_path / "registry.txt"
            path.write_text(listing)
            registry = f"@{path}"
        code, _, err = run(capsys, "describe", "--input", fixture_csv, "--registry", registry)
        assert code == 2
        assert "registry code" in err

    # Blank lines send the document to the row parser, which skips them.
    @pytest.mark.parametrize("newline", ["\n", "\n\n"], ids=["clean-scan", "row-parser"])
    def test_weight_total_past_the_largest_float_exit_2(self, capsys, monkeypatch, tmp_path, newline):
        path = tmp_path / "huge.csv"
        path.write_bytes(newline.join(["weight,parties", "1e308,A", "1e308,B", ""]).encode())
        calls = []
        monkeypatch.setattr("pollsets.data._parse_rows", lambda *args: calls.append(args) or _parse_rows(*args))
        code, out, err = run(capsys, "describe", "--input", path, "--registry", REG)
        assert (code, out, err) == (2, "", "error: total weight exceeds the largest float\n")
        assert bool(calls) == (newline == "\n\n")

    @pytest.mark.parametrize("points", ["-3", "0"])
    def test_grid_points_below_one_exit_2(self, capsys, tmp_path, points):
        # -3 used to exit with numpy's "Number of samples" message, and 0
        # with "lambda grid is empty".
        data = tmp_path / "cov.csv"
        data.write_text("weight,parties,u\n1.0,A,0\n1.0,B,1\n1.0,A;B,1\n1.0,C,0\n")
        code, out, err = run(
            capsys, "ontic", "--input", data, "--registry", REG, "--schema", "u", "--k", "1", "--grid-points", points
        )
        assert (code, out, err) == (2, "", f"error: grid points must be >= 1, got {points}\n")

    @pytest.mark.parametrize("flag", ["--input", "--registry"])
    def test_missing_file_exit_2_names_it(self, capsys, fixture_csv, tmp_path, flag):
        absent = tmp_path / "absent.txt"
        args = {"--input": fixture_csv, "--registry": REG}
        args[flag] = absent if flag == "--input" else f"@{absent}"
        code, _, err = run(capsys, "describe", "--input", args["--input"], "--registry", args["--registry"])
        assert code == 2
        assert str(absent) in err

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("flag", ["--input", "--registry", "--coalitions"])
    def test_bytes_not_utf8_exit_2_names_file_and_line(self, capsys, fixture_csv, tmp_path, flag, newline):
        bad = tmp_path / "latin1.txt"
        contents = {
            "--input": b"weight,parties\n1.0,A\n1.0,\xff\n",
            "--registry": b"A\nB\n\xffC\n",
            "--coalitions": b"# two coalitions\nab,A;B\nc\xff,C\n",
        }
        bad.write_bytes(contents[flag].replace(b"\n", newline))
        coalitions = tmp_path / "coalitions.txt"
        coalitions.write_text("ab,A;B\n")
        args = {"--input": fixture_csv, "--registry": REG, "--coalitions": coalitions}
        args[flag] = f"@{bad}" if flag == "--registry" else bad
        argv = [f for pair in args.items() for f in pair]
        code, out, err = run(capsys, "coalitions", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: line 3: not UTF-8 text (invalid start byte)\n"

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_any_newline_reads_as_lf(self, capsys, fixture_csv, tmp_path, newline):
        path = tmp_path / "newlines.csv"
        path.write_bytes(FIXTURE.replace("\n", newline).encode())
        code, out, _ = run(capsys, "bounds", "--input", path, "--registry", REG)
        _, plain, _ = run(capsys, "bounds", "--input", fixture_csv, "--registry", REG)
        assert (code, out) == (0, plain)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_any_newline_in_a_list_or_coalitions_file_reads_as_lf(self, capsys, fixture_csv, tmp_path, newline):
        files = {"registry.txt": "A\nB\nC\n", "coalitions.txt": "# two coalitions\nab,A;B\nc,C\n"}

        def invoke(folder, ends):
            folder.mkdir()
            for name, text in files.items():
                (folder / name).write_bytes(text.replace("\n", ends).encode())
            registry, coalitions = f"@{folder / 'registry.txt'}", folder / "coalitions.txt"
            return run(capsys, "coalitions", "--input", fixture_csv, "--registry", registry, "--coalitions", coalitions)

        plain = invoke(tmp_path / "lf", "\n")
        assert plain[0] == 0
        assert invoke(tmp_path / "other", newline) == plain

    def test_header_not_utf8_exit_2_names_file_and_line(self, capsys, tmp_path):
        bad = tmp_path / "header.csv"
        bad.write_bytes(b"weig\xfft,parties\n1.0,A\n")
        code, out, err = run(capsys, "describe", "--input", bad, "--registry", REG)
        assert (code, out, err) == (2, "", f"error: {bad}: line 1: not UTF-8 text (invalid start byte)\n")

    def test_leading_byte_order_mark_accepted(self, capsys, fixture_csv, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff" + FIXTURE, encoding="utf-8")
        code, out, _ = run(capsys, "bounds", "--input", path, "--registry", REG)
        _, plain, _ = run(capsys, "bounds", "--input", fixture_csv, "--registry", REG)
        assert code == 0
        assert out == plain

    @pytest.mark.parametrize("flag", ["--registry", "--schema", "--coalitions", "--coef-file"])
    def test_leading_byte_order_mark_skipped_in_every_file(self, capsys, tmp_path, flag):
        files = {
            "--input": "weight,parties,u\n1.0,A,0\n1.0,A,1\n1.0,B,1\n1.0,A;B,0\n1.0,C,1\n",
            "--registry": "A\nB\nC\n",
            "--schema": "u\n",
            # A comment first: a mark in front of its '#' used to make it a coalition line.
            "--coalitions": "# two coalitions\nab,A;B\nc,C\n",
            "--coef-file": "[[0.5, 0.5], [0.0, 0.0], [-0.5, -0.5]]",
        }

        def invoke(bom):
            folder = tmp_path / ("bom" if bom else "plain")
            folder.mkdir()
            paths = {name: folder / name.strip("-") for name in files}
            for name, text in files.items():
                paths[name].write_text(("\ufeff" if bom and name == flag else "") + text, encoding="utf-8")
            if flag == "--coef-file":
                out = folder / "s.csv"
                argv = ["simulate", "--n", "30", "--registry", "A,B,C", "--covariates", "u", "--coef-file", paths[flag]]
                return (*run(capsys, *argv, "--out", out), out.read_text())
            return run(
                capsys, "coalitions", "--input", paths["--input"], "--registry", f"@{paths['--registry']}",
                "--schema", f"@{paths['--schema']}", "--coalitions", paths["--coalitions"],
            )

        plain = invoke(bom=False)
        assert plain[0] == 0
        assert invoke(bom=True) == plain

    @pytest.mark.parametrize(
        "command", [["describe"], ["bounds"], ["forecast", "--method", "homogeneity"]],
        ids=["describe", "bounds", "homogeneity"],
    )
    def test_bom_and_crlf_files_print_the_ascii_files_bytes(self, capsys, tmp_path, wave3_path, command):
        ascii_bytes = wave3_path.read_bytes()
        assert ascii_bytes.isascii() and b"\r" not in ascii_bytes
        outputs = []
        for name, contents in (
            ("ascii", ascii_bytes),
            ("bom", b"\xef\xbb\xbf" + ascii_bytes),
            ("crlf", ascii_bytes.replace(b"\n", b"\r\n")),
        ):
            path = tmp_path / f"{name}.csv"
            path.write_bytes(contents)
            outputs.append(run(capsys, *command, "--input", path, "--schema", WAVE3_SCHEMA))
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_every_file_is_parsed_as_its_bytes(self, capsys, tmp_path, monkeypatch):
        parsed = []
        parse_survey = cli.parse_survey

        def spy(document, registry, schema):
            parsed.append(document)
            return parse_survey(document, registry, schema)

        monkeypatch.setattr(cli, "parse_survey", spy)
        files = {
            "ascii": FIXTURE.encode(),
            "bom": b"\xef\xbb\xbf" + FIXTURE.encode(),
            "crlf": FIXTURE.replace("\n", "\r\n").encode(),
            "cr": FIXTURE.replace("\n", "\r").encode(),
            "non-ascii": FIXTURE.replace("C", "\u00c9").encode(),
        }
        for name, contents in files.items():
            path = tmp_path / f"{name}.csv"
            path.write_bytes(contents)
            registry = REG.replace("C", "\u00c9") if name == "non-ascii" else REG
            assert run(capsys, "describe", "--input", path, "--registry", registry)[0] == 0
        assert parsed == list(files.values())


class TestForecast:
    def test_conventional_fixture(self, capsys, fixture_csv):
        code, out, _ = run(
            capsys, "forecast", "--input", fixture_csv, "--registry", REG,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "conventional"
        assert doc["shares"] == {"A": 0.5, "B": 0.25, "C": 0.25}
        assert doc["n_decided"] == 4 and doc["n_undecided"] == 1

    def test_homogeneity_fixture(self, capsys, fixture_csv):
        code, out, _ = run(
            capsys, "forecast", "--input", fixture_csv, "--registry", REG,
            "--method", "homogeneity",
        )
        doc = json.loads(out)
        assert abs(doc["shares"]["A"] - 0.5333) < 1e-4
        assert abs(doc["shares"]["B"] - 0.2667) < 1e-4
        assert abs(doc["shares"]["C"] - 0.2) < 1e-6

    def test_methods_agree_without_undecided(self, capsys, tmp_path):
        path = tmp_path / "decided.csv"
        path.write_text("weight,parties\n1.0,A\n2.0,B\n1.0,C\n")
        _, out1, _ = run(capsys, "forecast", "--input", path, "--registry", REG)
        _, out2, _ = run(
            capsys, "forecast", "--input", path, "--registry", REG, "--method", "homogeneity"
        )
        assert json.loads(out1)["shares"] == json.loads(out2)["shares"]

    def test_unconverged_fit_warning_names_stop_reason(self, capsys, wave3_path, monkeypatch):
        from pollsets import mnl

        fit = mnl.fit
        monkeypatch.setattr(
            mnl, "fit", lambda d, penalty, constraint: fit(d, penalty, constraint, mnl.FitOptions(max_iterations=2))
        )
        code, _, err = run(
            capsys, "forecast", "--input", wave3_path, "--schema", "female,age_65plus,east,high_income,urban",
            "--method", "homogeneity",
        )
        assert code == 0
        assert "did not converge: stopped on max_iterations after 2 iterations" in err

    def test_homogeneity_splits_a_set_of_unchosen_parties(self, capsys, tmp_path):
        # B and C have no decided respondent; at x = 1 the decided favour A
        # about 20 to 1, so B's and C's held probabilities sum to less than 1e-12.
        rows = ["1,A,1"] * 20 + ["1,D,0"] * 20 + ["1,D,1", "1,A,0", "1,B;C,1"]
        path = tmp_path / "unchosen.csv"
        path.write_text("weight,parties,x\n" + "\n".join(rows) + "\n")
        code, out, err = run(
            capsys, "forecast", "--input", path, "--registry", "A,B,C,D", "--schema", "x", "--method", "homogeneity",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["shares"] == {
            "A": 0.4883720930232558, "B": 0.011627906976744186, "C": 0.011627906976744186, "D": 0.4883720930232558,
        }

    @pytest.mark.parametrize("text", [FIXTURE, "weight,parties\n0.3,A\n0.7,B\n1.1,C\n1.0,A;B\n"])
    def test_fit_at_its_start_optimum_gives_no_warning(self, capsys, tmp_path, text):
        # Without covariates the start point is the fit's optimum; rounding
        # alone decides whether the first step raises the objective.
        path = tmp_path / "intercept_only.csv"
        path.write_text(text)
        code, _, err = run(
            capsys, "forecast", "--input", path, "--registry", REG, "--method", "homogeneity",
        )
        assert code == 0
        assert "warning" not in err

    def test_seats_subset(self, capsys, fixture_csv):
        code, out, _ = run(
            capsys, "forecast", "--input", fixture_csv, "--registry", REG, "--seats", "A,B",
        )
        doc = json.loads(out)
        assert set(doc["shares"]) == {"A", "B"}
        assert abs(sum(doc["shares"].values()) - 1.0) < 1e-9

    def test_csv_format(self, capsys, fixture_csv):
        code, out, err = run(capsys, "forecast", "--input", fixture_csv, "--registry", REG, "--format", "csv")
        assert (code, out, err) == (0, "option,share\nA,0.5\nB,0.25\nC,0.25\n", "")


class TestBounds:
    def test_unconstrained_fixture(self, capsys, fixture_csv):
        code, out, _ = run(capsys, "bounds", "--input", fixture_csv, "--registry", REG)
        doc = json.loads(out)
        assert doc["A"] == {"lower": 0.4, "upper": 0.6}

    def test_constrained_fixture(self, capsys, fixture_csv):
        code, out, _ = run(
            capsys, "bounds", "--input", fixture_csv, "--registry", REG,
            "--alpha", "0.2", "--beta", "0.8",
        )
        doc = json.loads(out)
        assert abs(doc["A"]["lower"] - 0.44) < 1e-12
        assert abs(doc["A"]["upper"] - 0.56) < 1e-12

    def test_vacuous_constraint_equals_unconstrained(self, capsys, fixture_csv):
        _, out1, _ = run(capsys, "bounds", "--input", fixture_csv, "--registry", REG)
        _, out2, _ = run(
            capsys, "bounds", "--input", fixture_csv, "--registry", REG,
            "--alpha", "0", "--beta", "1",
        )
        assert out1 == out2

    def test_alpha_greater_than_beta_exit_2(self, capsys, fixture_csv):
        code, _, err = run(
            capsys, "bounds", "--input", fixture_csv, "--registry", REG,
            "--alpha", "0.9", "--beta", "0.2",
        )
        assert code == 2
        assert "alpha" in err

    @pytest.mark.parametrize("box", [[], ["--alpha", "0.2", "--beta", "0.8"]], ids=["dempster", "box"])
    def test_seats_all_equals_plain_bounds_on_wave3(self, capsys, wave3_path, box):
        argv = ["bounds", "--input", wave3_path, "--schema", WAVE3_SCHEMA, *box]
        _, plain, _ = run(capsys, *argv)
        code, seats, _ = run(capsys, *argv, "--seats", "all")
        assert code == 0
        assert seats == plain

    def test_seats_sharp_on_wave3(self, capsys, wave3_path):
        # Renormalizing the per-party intervals gave SPD [0.2926, 0.3808].
        code, out, _ = run(
            capsys, "bounds", "--input", wave3_path, "--schema", WAVE3_SCHEMA, "--seats", "SPD,CDU_CSU,GRUENE,FDP",
        )
        doc = json.loads(out)
        assert (code, list(doc)) == (0, ["SPD", "CDU_CSU", "GRUENE", "FDP"])
        assert abs(doc["SPD"]["lower"] - 0.29567112416322) <= 1e-12
        assert abs(doc["SPD"]["upper"] - 0.37550661565535) <= 1e-12

    def test_svg_output(self, capsys, fixture_csv):
        code, out, _ = run(
            capsys, "bounds", "--input", fixture_csv, "--registry", REG, "--format", "svg",
        )
        root = ET.fromstring(out)
        bars = [el for el in root.iter() if el.get("class") == "interval-bar"]
        assert len(bars) == 3

    def test_csv_format(self, capsys, fixture_csv):
        code, out, err = run(capsys, "bounds", "--input", fixture_csv, "--registry", REG, "--format", "csv")
        assert (code, out, err) == (0, "option,lower,upper\nA,0.4,0.6\nB,0.2,0.4\nC,0.2,0.2\n", "")


class TestCoalitions:
    def test_fixture_report(self, capsys, fixture_csv, tmp_path):
        coal = tmp_path / "coal.csv"
        coal.write_text("AB,A;B\nC_ALONE,C\n")
        code, out, err = run(
            capsys, "coalitions", "--input", fixture_csv, "--registry", REG,
            "--coalitions", coal, "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].startswith("AB,0.8,0.8,guaranteed")
        assert lines[2].endswith("excluded")
        assert "guaranteed: 1, possible: 0" in err

    def test_empty_file_empty_table(self, capsys, fixture_csv, tmp_path):
        coal = tmp_path / "none.csv"
        coal.write_text("")
        code, out, _ = run(
            capsys, "coalitions", "--input", fixture_csv, "--registry", REG,
            "--coalitions", coal, "--format", "csv",
        )
        assert code == 0
        assert out.strip().splitlines() == ["coalition,lower,upper,classification"]

    @pytest.mark.parametrize("threshold", ["nan", "1", "1.5", "-0.1", "inf"])
    def test_threshold_outside_unit_interval_exit_2(self, capsys, fixture_csv, tmp_path, threshold):
        # NaN and thresholds >= 1 used to exclude every coalition, exit 0.
        coal = tmp_path / "coal.csv"
        coal.write_text("AB,A;B\n")
        code, out, err = run(
            capsys, "coalitions", "--input", fixture_csv, "--registry", REG,
            "--coalitions", coal, "--format", "csv", "--threshold", threshold,
        )
        assert code == 2
        assert out == ""
        assert "threshold must lie in [0, 1)" in err

    def test_svg_output(self, capsys, fixture_csv, tmp_path):
        coal = tmp_path / "coal.csv"
        coal.write_text("AB,A;B\nC_ALONE,C\n")
        code, out, _ = run(
            capsys, "coalitions", "--input", fixture_csv, "--registry", REG,
            "--coalitions", coal, "--format", "svg", "--threshold", "0.5",
        )
        assert code == 0
        root = ET.fromstring(out)
        bars = [el.get("data-name") for el in root.iter() if el.get("class") == "interval-bar"]
        assert bars == ["AB", "C_ALONE"]
        # The dashed threshold line sits at the middle of the 0-1 axis.
        (line,) = [el for el in root.iter() if el.get("stroke-dasharray")]
        assert line.get("x1") == line.get("x2") == "355.00"
        assert "Coalition share bounds" in out

    def test_threshold_zero_accepted(self, capsys, fixture_csv, tmp_path):
        coal = tmp_path / "coal.csv"
        coal.write_text("C_ALONE,C\n")
        code, out, _ = run(
            capsys, "coalitions", "--input", fixture_csv, "--registry", REG,
            "--coalitions", coal, "--format", "csv", "--threshold", "0",
        )
        assert code == 0
        assert out.strip().splitlines()[1].endswith("guaranteed")

    def test_unknown_party_exit_2(self, capsys, fixture_csv, tmp_path):
        coal = tmp_path / "bad.csv"
        coal.write_text("X,A;ZZZ\n")
        code, out, err = run(
            capsys, "coalitions", "--input", fixture_csv, "--registry", REG,
            "--coalitions", coal,
        )
        assert code == 2
        assert "ZZZ" in err
        # The message used to name neither the line nor the file.
        assert (out, err) == ("", "error: coalition line 1: unknown party code 'ZZZ'\n")


    def test_repeated_party_exit_2(self, capsys, fixture_csv, tmp_path):
        # A repeated code used to be accepted silently.
        coal = tmp_path / "bad.csv"
        coal.write_text("# c\nX,A;A\n")
        code, out, err = run(capsys, "coalitions", "--input", fixture_csv, "--registry", REG, "--coalitions", coal)
        assert (code, out, err) == (2, "", "error: coalition line 2: party code 'A' repeated\n")


class TestOutputOverInput:
    """No command writes a file it reads: it exits 2 before reading, and the file keeps its bytes."""

    @pytest.mark.parametrize("flag", ["--out", "--path-out"])
    def test_output_naming_the_input_exit_2(self, capsys, tmp_path, wave3_path, flag):
        # Both once exited 0, leaving the JSON report or the path CSV in place of the survey.
        survey = tmp_path / "in.csv"
        survey.write_bytes(wave3_path.read_bytes())
        command = ["describe"] if flag == "--out" else ["ontic", "--k", "5", "--grid-points", "5", "--folds", "3"]
        code, stdout, err = run(capsys, *command, "--input", survey, "--schema", WAVE3_SCHEMA, flag, survey)
        assert (code, stdout, err) == (2, "", f"error: {flag} and --input name the same file: {survey}\n")
        assert survey.read_bytes() == wave3_path.read_bytes()

    @pytest.mark.parametrize(
        "argv,flags",
        [
            (["coalitions", "--input", "mini.csv", "--registry", REG, "--coalitions", "c.csv", "--out", "c.csv"],
             ("--out", "--coalitions")),
            (["bounds", "--input", "mini.csv", "--registry", "@reg.txt", "--out", "./reg.txt"], ("--out", "--registry")),
            (["forecast", "--input", "mini.csv", "--registry", REG, "--seats", "@reg.txt", "--out", "reg.txt"],
             ("--out", "--seats")),
            (["describe", "--input", "mini.csv", "--registry", REG, "--schema", "@reg.txt", "--out", "reg.txt"],
             ("--out", "--schema")),
            (["simulate", "--n", "5", "--registry", "@reg.txt", "--out", "s.csv", "--truth-out", "reg.txt"],
             ("--truth-out", "--registry")),
            (["simulate", "--n", "5", "--registry", REG, "--covariates", "@reg.txt", "--out", "reg.txt"],
             ("--out", "--covariates")),
            (["simulate", "--n", "5", "--registry", REG, "--coef-file", "c.csv", "--out", "c.csv"],
             ("--out", "--coef-file")),
        ],
        ids=["coalitions", "registry", "seats", "schema", "truth-out", "covariates", "coef-file"],
    )
    def test_output_naming_a_read_file_exit_2(self, capsys, tmp_path, monkeypatch, argv, flags):
        monkeypatch.chdir(tmp_path)
        files = {"mini.csv": FIXTURE, "c.csv": "AB,A;B\n", "reg.txt": "A\nB\nC\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        code, stdout, err = run(capsys, *argv)
        written = Path(argv[argv.index(flags[0]) + 1])
        assert (code, stdout, err) == (2, "", f"error: {flags[0]} and {flags[1]} name the same file: {written}\n")
        assert {name: (tmp_path / name).read_text() for name in files} == files
        assert not (tmp_path / "s.csv").exists()


class TestSimulate:
    def test_same_seed_byte_identical_files(self, capsys, tmp_path):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        for out in (out1, out2):
            code, stdout, stderr = run(
                capsys, "simulate", "--n", "100", "--q", "0.2", "--seed", "7", "--out", out,
            )
            assert code == 0
            assert "violations: 0" in stderr
            assert stdout == ""
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "s1.truth.csv").read_bytes() == (tmp_path / "s2.truth.csv").read_bytes()

    def test_violations_are_named(self, capsys, tmp_path, monkeypatch):
        from pollsets import simulate

        monkeypatch.setattr(simulate, "coverage_check", lambda s, g: simulate.CoverageReport(("A", "B"), {}))
        code, stdout, stderr = run(capsys, "simulate", "--n", "20", "--out", tmp_path / "s.csv")
        assert (code, stdout) == (0, "")
        assert stderr.endswith("violations: 2\nviolated: A, B\n")

    def test_zero_coarsening_truth_equals_survey(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        code, _, _ = run(capsys, "simulate", "--n", "60", "--q", "0", "--seed", "1", "--out", out)
        assert code == 0
        survey_rows = out.read_text().splitlines()[1:]
        truth_rows = (tmp_path / "s.truth.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in survey_rows] == truth_rows

    def test_truth_file_quotes_codes_as_the_survey_file_does(self, capsys, tmp_path):
        # An unquoted code with a newline once split one latent vote over two truth rows.
        out = tmp_path / "s.csv"
        code, _, _ = run(capsys, "simulate", "--registry", 'A\nB,C"D', "--n", "5", "--q", "0", "--out", out)
        assert code == 0
        survey_codes = [row[1] for row in csv.reader(io.StringIO(out.read_text()))][1:]
        truth = list(csv.reader(io.StringIO((tmp_path / "s.truth.csv").read_text())))
        assert truth == [["vote"], *([party] for party in survey_codes)]
        assert len(survey_codes) == 5 and set(survey_codes) <= {"A\nB", 'C"D'}

    @pytest.mark.parametrize("alias", ["dot-segment", "symlink", "hard-link"])
    def test_shared_output_path_exit_2_and_keeps_file(self, capsys, tmp_path, alias):
        out = tmp_path / "same.csv"
        out.write_text("keep\n")
        truth = tmp_path / "." / "same.csv"
        if alias == "symlink":
            truth = tmp_path / "link.csv"
            truth.symlink_to(out)
        elif alias == "hard-link":
            truth = tmp_path / "link.csv"
            os.link(out, truth)
        code, stdout, err = run(capsys, "simulate", "--n", "20", "--out", out, "--truth-out", truth)
        assert (code, stdout, err) == (2, "", f"error: --out and --truth-out name the same file: {out}\n")
        assert out.read_text() == "keep\n"

    def test_unwritable_truth_out_writes_no_survey(self, capsys, tmp_path):
        out, truth = tmp_path / "s.csv", tmp_path / "missing" / "t.csv"
        code, stdout, err = run(capsys, "simulate", "--n", "20", "--out", out, "--truth-out", truth)
        assert (code, stdout) == (2, "")
        assert err.startswith("error: ") and str(truth) in err
        # Both files are opened before either is written: the survey file holds nothing.
        assert out.read_text() == ""

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--weight-high", "inf"], "weight_range must be finite and satisfy 0 < low <= high"),
            (["--weight-high", "1e308"], "total weight exceeds the largest float"),
            (["--covariates", "a,a"], "schema labels must be unique, got 'a' more than once"),
            (["--seed", "-1"], "seed must be >= 0, got -1"),
            # csv.writer would leave the carriage return unquoted, in a file describe rejects.
            (["--registry", "A\rB,C", "--q", "0"], "registry code 'A\\rB' contains a carriage return"),
            (["--covariates", "a\rb"], "schema label 'a\\rb' contains a carriage return"),
        ],
        ids=[
            "infinite-weight", "weight-total-overflow", "repeated-covariate", "negative-seed",
            "registry-carriage-return", "covariate-carriage-return",
        ],
    )
    def test_bad_configuration_exit_2_and_writes_nothing(self, capsys, tmp_path, flags, message):
        out = tmp_path / "s.csv"
        code, stdout, err = run(capsys, "simulate", "--n", "20", *flags, "--out", out)
        assert (code, stdout, err) == (2, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "document,message",
        [
            ("[[NaN, 0.5], [0.0, -0.5]]", "coefficients must be finite"),
            ("[[1" + "0" * 400 + ", 0.5], [0.0, -0.5]]", "coefficients must be finite"),
            ("[[1e308, 1e308], [-1e308, -1e308]]", "choice scores overflow: the coefficients are too large"),
            ("[[0.5, 0.5], [0.0]]", "coefficient matrix must be (registry size) x (1 + covariates)"),
            ("[0.5, 0.5]", "coefficients must be a matrix of numbers"),
            ('[["1.5", 0], [0, 0]]', "coefficients must be a matrix of numbers"),
            ("[[true, 0], [0, 0]]", "coefficients must be a matrix of numbers"),
            ("[[0.5, \xff]]", "{coef}: line 1: not UTF-8 text (invalid start byte)"),
            ("[[0.5, 0.5],\n[0.0, 0.0]\n[-0.5, -0.5]]", "{coef}: Expecting ',' delimiter: line 3 column 1 (char 24)"),
            # Read raw, json would count one line and report line 1 column 25.
            ("[[0.5, 0.5],\r[0.0, 0.0]\r[-0.5, -0.5]]", "{coef}: Expecting ',' delimiter: line 3 column 1 (char 24)"),
        ],
        ids=[
            "nan", "integer-past-float", "overflow", "short-row", "not-a-matrix", "string", "boolean", "not-utf8",
            "malformed-json-lf", "malformed-json-cr",
        ],
    )
    def test_bad_coefficient_file_exit_2_and_writes_nothing(self, capsys, tmp_path, document, message):
        coef = tmp_path / "coef.json"
        coef.write_bytes(document.encode("latin-1"))
        message = message.format(coef=coef)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, stdout, err = run(
            capsys, "simulate", "--n", "20", "--registry", "A,B", "--covariates", "x",
            "--coef-file", coef, "--out", out_dir / "s.csv",
        )
        assert (code, stdout, err) == (2, "", f"error: {message}\n")
        assert list(out_dir.iterdir()) == []

    def test_seventy_covariates_simulate_and_describe(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        names = ",".join(f"c{j}" for j in range(70))
        code, _, err = run(capsys, "simulate", "--n", "40", "--covariates", names, "--out", out)
        assert (code, err) == (0, "violations: 0\n")
        assert out.read_text().splitlines()[0] == f"weight,parties,{names}"
        code, stdout, _ = run(capsys, "describe", "--input", out, "--schema", names)
        assert code == 0
        assert json.loads(stdout)["n"] == 40


class TestOntic:
    def test_deterministic_table_and_path(self, capsys, tmp_path):
        sim = tmp_path / "sim.csv"
        run(
            capsys, "simulate", "--n", "220", "--q", "0.5", "--seed", "3",
            "--covariates", "u,v", "--out", sim,
        )
        outputs = []
        for tag in ("a", "b"):
            table = tmp_path / f"table_{tag}.csv"
            path = tmp_path / f"path_{tag}.csv"
            code, _, err = run(
                capsys, "ontic", "--input", sim, "--schema", "u,v",
                "--k", "2", "--folds", "3", "--seed", "5", "--grid-points", "4",
                "--format", "csv", "--out", table, "--path-out", path,
            )
            assert code == 0
            assert "selected lambda" in err
            outputs.append((table.read_bytes(), path.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("seed", [0, 4, 7])
    def test_fixture_path_and_table_match_the_library(self, capsys, tmp_path, wave3_path, seed):
        # The path is fitted in the cross-validation stacks; it must write what
        # the library's own path fit gives, and the table must not move.
        from pollsets import PartyRegistry, mnl, ontic, parse_survey

        registry, schema = "SPD,CDU_CSU,GRUENE,FDP,AFD,LINKE", "female,age_65plus,east,high_income,urban"
        path_out = tmp_path / "path.csv"
        code, out, _ = run(
            capsys, "ontic", "--input", wave3_path, "--registry", registry, "--schema", schema,
            "--k", "5", "--grid-points", "5", "--folds", "3", "--seed", seed, "--path-out", path_out,
        )
        assert code == 0
        survey = parse_survey(wave3_path.read_text(), PartyRegistry(tuple(registry.split(","))), tuple(schema.split(",")))
        cats, _ = ontic.build_ontic_categories(survey, 5)
        grid = mnl.default_lambda_grid(ontic.ontic_design(survey, cats), mnl.Constraint.symmetric(), points=5)
        want = ontic.path_to_csv(ontic.regularization_path(survey, cats, grid))
        assert path_out.read_text(encoding="utf-8") == want
        table = ontic.fit_ontic(survey, cats, grid, folds=3, seed=seed)[1]
        assert json.loads(out) == {
            "categories": list(table.categories),
            "covariates": list(table.covariates),
            "coefficients": [list(row) for row in table.values],
            "zeroed": table.zeroed,
        }

    def test_table_serialization_round_trip(self, capsys, tmp_path):
        from pollsets import build_ontic_categories, fit_ontic, mnl, ontic, survey_to_csv
        from test_ontic import survey_with_covariates

        s = survey_with_covariates(seed=7)
        path = tmp_path / "s.csv"
        path.write_text(survey_to_csv(s))
        cats, _ = build_ontic_categories(s, 1)
        grid = mnl.default_lambda_grid(ontic.ontic_design(s, cats), mnl.Constraint.symmetric(), points=3)
        _, table, _ = fit_ontic(s, cats, lambda_grid=grid, folds=3, seed=0)
        argv = [
            "ontic", "--input", path, "--registry", "A,B,C", "--schema", "u,v", "--k", "1", "--grid-points", "3", "--folds", "3",
        ]
        code, csv_text, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert csv_text.splitlines()[0] == "category,intercept,u,v"
        assert len(csv_text.splitlines()) == 1 + len(table.categories)
        code, json_text, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(json_text)
        assert doc["categories"] == list(table.categories)
        assert doc["zeroed"] == table.zeroed

    def test_repeated_schema_label_exit_2(self, capsys, tmp_path):
        # A repeated label once wrote a path header with fewer columns than
        # coefficients and collapsed the JSON "zeroed" dict.
        data = tmp_path / "dup.csv"
        data.write_text("weight,parties,a,a,b\n1.0,A,0,1,1\n1.0,B,1,0,0\n1.0,A;B,1,1,0\n1.0,C,0,0,1\n")
        path_out = tmp_path / "path.csv"
        code, out, err = run(
            capsys, "ontic", "--input", data, "--registry", REG, "--schema", "a,a,b", "--k", "1", "--path-out", path_out
        )
        assert (code, out, err) == (2, "", "error: schema labels must be unique, got 'a' more than once\n")
        assert not path_out.exists()

    @pytest.mark.parametrize("alias", ["same-name", "dot-segment", "symlink"])
    def test_path_out_naming_the_out_file_exit_2_before_fitting(self, capsys, tmp_path, wave3_path, monkeypatch, alias):
        # The table once overwrote the path CSV, and the command exited 0.
        out = tmp_path / "same.csv"
        out.write_text("keep\n")
        path_out = out if alias == "same-name" else tmp_path / "." / "same.csv"
        if alias == "symlink":
            path_out = tmp_path / "link.csv"
            path_out.symlink_to(out)
        monkeypatch.setattr(cli.ontic, "fit_ontic", lambda *a, **k: pytest.fail("fitted"))
        code, stdout, err = run(
            capsys, "ontic", "--input", wave3_path, "--schema", WAVE3_SCHEMA, "--path-out", path_out, "--out", out
        )
        assert (code, stdout, err) == (2, "", f"error: --path-out and --out name the same file: {path_out}\n")
        assert out.read_text() == "keep\n"

    def test_negative_seed_exit_2(self, capsys, wave3_path):
        # numpy's own "expected non-negative integer" used to be the message.
        code, out, err = run(capsys, "ontic", "--input", wave3_path, "--schema", WAVE3_SCHEMA, "--seed", "-1")
        assert (code, out, err) == (2, "", "error: seed must be >= 0, got -1\n")

    def test_requires_schema(self, capsys, fixture_csv):
        code, _, err = run(capsys, "ontic", "--input", fixture_csv, "--registry", REG)
        assert code == 2
        assert "schema" in err

    def test_covariate_duplicating_the_intercept_exit_2(self, capsys, tmp_path):
        # x = 1 in every row once gave a lambda grid of rounding noise
        # (6.4e-15 ... 6.4e-18) and exit 0.
        sets = ("A", "B", "C", "A;B", "B;C")
        rows = "".join(f"1,{sets[i]},1\n" for i in np.random.default_rng(0).integers(0, len(sets), 300))
        data = tmp_path / "constant.csv"
        data.write_text("weight,parties,x\n" + rows)
        code, out, err = run(
            capsys, "ontic", "--input", data, "--registry", "A,B,C", "--schema", "x",
            "--k", "2", "--grid-points", "3", "--folds", "3",
        )
        message = "covariate 'x' is 1 for every respondent in the ontic categories, so it duplicates the intercept"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_no_respondent_in_the_categories_exit_2(self, capsys, tmp_path):
        # At --k 0 the categories are the singletons, and every respondent here is undecided.
        data = tmp_path / "undecided.csv"
        data.write_text("weight,parties,x\n1,A;B,0\n1,B;C,1\n2,A;C,1\n")
        code, out, err = run(capsys, "ontic", "--input", data, "--registry", "A,B,C", "--schema", "x", "--k", "0")
        assert (code, out, err) == (2, "", "error: no respondents fall into the ontic categories\n")


@pytest.mark.parametrize(
    "argv",
    [["bounds"], ["bounds", "--seats", "all"], ["coalitions", "--coalitions", COALITIONS_2021]],
    ids=["bounds", "bounds-seats", "coalitions"],
)
def test_bounds_of_a_survey_with_no_respondents_exit_2(capsys, tmp_path, argv):
    # These once named an internal function, or blamed a completion for the seat shares.
    header_only = tmp_path / "header.csv"
    header_only.write_text(f"weight,parties,{WAVE3_SCHEMA}\n")
    code, out, err = run(capsys, *argv, "--input", header_only, "--schema", WAVE3_SCHEMA)
    assert (code, out, err) == (2, "", "error: the survey has no respondents\n")


def test_console_entry_point(tmp_path):
    src = tmp_path / "mini.csv"
    src.write_text(FIXTURE)
    result = subprocess.run(
        [sys.executable, "-m", "pollsets", "bounds", "--input", str(src), "--registry", REG],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["A"] == {"lower": 0.4, "upper": 0.6}


_LAZY_MODULES = """
import contextlib, io, json, sys
from pollsets.cli import main
lazy = ("numpy.random", "numpy.ma")
loaded = set(sys.modules)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
print(json.dumps([name for name in lazy if name in sys.modules and name not in loaded]))
"""


def test_fixture_commands_load_neither_numpy_random_nor_numpy_ma(tmp_path, wave3_path):
    # The benchmark's fixture commands in one fresh interpreter load neither module after
    # `import pollsets.cli`.  numpy >= 2.0 loads both lazily, so there the fold split and set
    # numbering must need neither; numpy 1.x imports both with numpy itself.
    io_args = ["--input", str(wave3_path), "--registry", "SPD,CDU_CSU,GRUENE,FDP,AFD,LINKE", "--schema", WAVE3_SCHEMA]
    box = ["--alpha", "0.2", "--beta", "0.8"]
    commands = [
        ["ontic", *io_args, "--k", "5", "--grid-points", "5", "--folds", "3", "--path-out", str(tmp_path / "path.csv")],
        ["describe", *io_args],
        ["forecast", *io_args, "--method", "conventional"],
        ["forecast", *io_args, "--method", "homogeneity", "--seats", "SPD,CDU_CSU,GRUENE,FDP"],
        ["bounds", *io_args],
        ["bounds", *io_args, *box, "--seats", "all"],
        ["coalitions", *io_args, "--coalitions", str(COALITIONS_2021), *box, "--format", "svg"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run(
        [sys.executable, "-c", _LAZY_MODULES, json.dumps(commands)], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def test_unknown_flag_is_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["describe", "--input", "x.csv", "--registry", REG, "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["bounds"], ["coalitions", "--coalitions", COALITIONS_2021]], ids=lambda a: a[0])
@pytest.mark.parametrize("given", [["--alpha", "0.2"], ["--beta", "0.8"]], ids=["alpha", "beta"])
def test_half_an_allocation_box_exit_2(capsys, wave3_path, argv, given):
    code, out, err = run(capsys, *argv, "--input", wave3_path, "--schema", WAVE3_SCHEMA, *given)
    assert (code, out, err) == (2, "", "error: --alpha and --beta must be given together\n")


# Every command in every format it takes, on the fixture wave.
WRITER_RUNS = [
    (argv, fmt)
    for argv, formats in [
        (["describe"], ("json", "csv")),
        (["forecast"], ("json", "csv")),
        (["bounds"], ("json", "csv", "svg")),
        (["coalitions", "--coalitions", COALITIONS_2021], ("json", "csv", "svg")),
        (["ontic", "--k", "2", "--grid-points", "2", "--folds", "2"], ("json", "csv")),
    ]
    for fmt in formats
]


@pytest.mark.parametrize("argv, fmt", WRITER_RUNS, ids=[f"{argv[0]}-{fmt}" for argv, fmt in WRITER_RUNS])
def test_out_file_gets_the_bytes_stdout_gets(capsys, tmp_path, wave3_path, argv, fmt):
    argv = [*argv, "--input", wave3_path, "--schema", WAVE3_SCHEMA, "--format", fmt]
    code, out, err = run(capsys, *argv)
    target = tmp_path / f"result.{fmt}"
    assert (code, bool(out)) == (0, True)
    assert run(capsys, *argv, "--out", target) == (0, "", err)
    assert target.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("command", ["describe", "forecast", "ontic"])
def test_svg_format_rejected_before_reading_input(capsys, tmp_path, command):
    # Only bounds and coalitions draw SVG; the others fail at argument parsing,
    # so the missing input file is never opened.
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(tmp_path / "absent.csv"), "--registry", REG, "--format", "svg"])
    assert exc.value.code == 2
    assert "invalid choice: 'svg'" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fuzz_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "survey.csv"


@settings(max_examples=200, deadline=None)
@given(text=_survey_documents())
@example(text=MULTILINE_THEN_FAULT)
def test_describe_parses_or_exits_2_with_line(fuzz_csv, text):
    # Every document either parses or exits 2 naming the line of its first
    # fault, as a plain per-row parser finds it; no exception escapes.
    fuzz_csv.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["describe", "--input", str(fuzz_csv), "--registry", "A,B,C", "--schema", "x1,x2"])
    want = _reference_parse(text)
    if want[0] == "error":
        assert code == 2
        assert err.getvalue() == f"error: line {want[2]}: {want[1]}\n"
    else:
        assert code == 0
        doc = json.loads(out.getvalue())
        assert (doc["n"], doc["dropped_rows"]) == (len(want[1]), want[2])
