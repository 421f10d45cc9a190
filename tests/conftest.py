"""Fixtures shared by the test modules."""

import pytest

from hardpair import _checks


@pytest.fixture(scope="session")
def suite():
    """One run of the verification suite, as {name: CheckResult} in `verify`
    order: the acceptance tests judge it, and the rerun test compares a fresh
    `verify` stdout with it, so Tier-1 runs the whole suite twice."""
    return {result.name: result for result, _ in _checks.run_all()}
