"""The repository's pytest configuration, run on an inner test session."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_is_a_plain_failure(pytester):
    # warnings are errors here, but not the one hypothesis meets while it
    # reports a failing example: that one would end the run with an
    # INTERNALERROR instead of a failure report
    pytester.makefile(".toml", pyproject=PYPROJECT.read_text(encoding="utf-8"))
    pytester.makepyfile(test_inner="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0
    """)
    result = pytester.runpytest_subprocess("test_inner.py")
    result.assert_outcomes(failed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
