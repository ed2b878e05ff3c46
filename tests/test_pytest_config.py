"""The suite's own pytest configuration keeps failures readable."""


def test_failing_property_reports_its_example(pytester, pytestconfig):
    """Under the suite's warning filters a failing Hypothesis property is one plain failure.

    The filters turn warnings into errors; Hypothesis's report hook raises a
    DeprecationWarning of its own when a property fails, which must not turn
    the run into INTERNALERROR and hide the falsifying example.
    """
    filters = pytestconfig.getini("filterwarnings")
    assert filters[0] == "error"
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_negative(n):
            assert n < 0
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*Falsifying example*"])
