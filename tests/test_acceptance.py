"""Acceptance battery: every criterion of ``avgvar.selfcheck`` at DESK scale.

Reference configurations:
    OU:  alpha=1, k=0.5, y0=0, sigma family (c=0.1, m=0.1), s0=K=100, r=0.05, T=1
    CIR: b=1, k=0.25, z0=1, s0=K=100, r=0.05, T=1

DESK runs N=50000 paths at n=512 for density and pricing work, and
N=100000 for moment and martingale checks, at the pinned seed. Statistical
criteria use 3 standard errors; exact criteria are exact. There is one test
per registered criterion, numbered in registry order; each prints one
``ACCEPTANCE nn PASS`` line per row (visible with pytest -s / -rA).
"""

import pytest

from avgvar import selfcheck


@pytest.fixture(scope="module")
def desk():
    return selfcheck.CheckContext(selfcheck.DESK, threads=2)


def _acceptance_test(number, check):
    def test(desk):
        rows = selfcheck.run_criterion(check, desk)
        for row in rows:
            status = "PASS" if row.passed else "FAIL"
            print(f"ACCEPTANCE {number:>2} {status}  {row.name}: {row.detail}")
        assert all(row.passed for row in rows), rows
    test.__doc__ = check.__doc__
    return test


for _number, _check in enumerate(selfcheck.CRITERIA, start=1):
    _name = f"test_criterion_{_number:02d}_{_check.__name__}"
    globals()[_name] = _acceptance_test(_number, _check)
    globals()[_name].__name__ = _name
