import io
import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from pollsets.cli import main
from test_data import MULTILINE_THEN_FAULT, _reference_parse, _survey_documents

FIXTURE = "weight,parties\n1.0,A\n1.0,A\n1.0,B\n1.0,A;B\n1.0,C\n"
REG = "A,B,C"


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

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["clean-scan", "row-parser"])
    def test_weight_total_past_the_largest_float_exit_2(self, capsys, tmp_path, newline):
        path = tmp_path / "huge.csv"
        path.write_bytes(newline.join(["weight,parties", "1e308,A", "1e308,B", ""]).encode())
        code, out, err = run(capsys, "describe", "--input", path, "--registry", REG)
        assert (code, out, err) == (2, "", "error: total weight exceeds the largest float\n")

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

    def test_leading_byte_order_mark_accepted(self, capsys, fixture_csv, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff" + FIXTURE, encoding="utf-8")
        code, out, _ = run(capsys, "bounds", "--input", path, "--registry", REG)
        _, plain, _ = run(capsys, "bounds", "--input", fixture_csv, "--registry", REG)
        assert code == 0
        assert out == plain


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
        from pollsets import cli, mnl

        homogeneity = cli.fc.homogeneity_forecast
        monkeypatch.setattr(
            cli.fc, "homogeneity_forecast", lambda s: homogeneity(s, mnl.FitOptions(max_iterations=2))
        )
        code, _, err = run(
            capsys, "forecast", "--input", wave3_path, "--schema", "female,age_65plus,east,high_income,urban",
            "--method", "homogeneity",
        )
        assert code == 0
        assert "did not converge: stopped on max_iterations after 2 iterations" in err

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

    def test_svg_output(self, capsys, fixture_csv):
        code, out, _ = run(
            capsys, "bounds", "--input", fixture_csv, "--registry", REG, "--format", "svg",
        )
        root = ET.fromstring(out)
        bars = [el for el in root.iter() if el.get("class") == "interval-bar"]
        assert len(bars) == 3


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
        code, _, err = run(
            capsys, "coalitions", "--input", fixture_csv, "--registry", REG,
            "--coalitions", coal,
        )
        assert code == 2
        assert "ZZZ" in err


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

    def test_zero_coarsening_truth_equals_survey(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        code, _, _ = run(capsys, "simulate", "--n", "60", "--q", "0", "--seed", "1", "--out", out)
        assert code == 0
        survey_rows = out.read_text().splitlines()[1:]
        truth_rows = (tmp_path / "s.truth.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in survey_rows] == truth_rows


    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--weight-high", "inf"], "weight_range must be finite and satisfy 0 < low <= high"),
            (["--weight-high", "1e308"], "total weight exceeds the largest float"),
            (["--covariates", "a,a"], "schema labels must be unique, got 'a' more than once"),
        ],
        ids=["infinite-weight", "weight-total-overflow", "repeated-covariate"],
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
            ("[[1e308, 1e308], [-1e308, -1e308]]", "choice scores overflow: the coefficients are too large"),
            ("[[0.5, 0.5], [0.0]]", "coefficient matrix must be (registry size) x (1 + covariates)"),
            ("[0.5, 0.5]", "coefficients must be a matrix of numbers"),
            ("[[0.5, \xff]]", "{coef}: line 1: not UTF-8 text (invalid start byte)"),
        ],
        ids=["nan", "overflow", "short-row", "not-a-matrix", "not-utf8"],
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

    def test_requires_schema(self, capsys, fixture_csv):
        code, _, err = run(capsys, "ontic", "--input", fixture_csv, "--registry", REG)
        assert code == 2
        assert "schema" in err


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


def test_unknown_flag_is_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["describe", "--input", "x.csv", "--registry", REG, "--bogus"])
    assert exc.value.code == 2


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
