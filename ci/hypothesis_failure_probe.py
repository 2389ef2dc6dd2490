"""A Hypothesis test that fails on purpose, then a plain test that passes.

Run under the project's pytest settings, it must end with "1 failed, 1 passed"
and exit code 1: a failing Hypothesis test is reported like any other, and the
tests after it still run.  Exit code 3 (INTERNALERROR) means a warning raised
during Hypothesis's report of the failure stopped the whole run.  Kept outside
``tests/`` so that the Tier-1 run does not collect it:

    python -m pytest -q -p no:cacheprovider ci/hypothesis_failure_probe.py
"""

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails_on_purpose(n):
    assert n != 0


def test_runs_after_the_failure():
    assert True
