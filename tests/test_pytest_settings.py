"""The repository's pytest settings, applied to a small suite run in a subprocess."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_does_not_abort_the_session(pytester):
    # On a failure Hypothesis may import libcst, which warns that a
    # mypy_extensions name is deprecated; the warning filters must not turn
    # that into an internal error that ends the session and loses the example.
    pytester.makefile(".toml", pyproject=PYPROJECT.read_text())
    pytester.makepyfile(
        test_pair="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("test_pair.py", "-p", "no:cacheprovider")
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    result.assert_outcomes(failed=1, passed=1)


def test_deprecation_warning_from_test_code_still_fails(pytester):
    pytester.makefile(".toml", pyproject=PYPROJECT.read_text())
    pytester.makepyfile(
        test_warns="""
        import warnings

        def test_warns():
            warnings.warn("old", DeprecationWarning)
        """
    )
    result = pytester.runpytest_subprocess("test_warns.py", "-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
