"""Acceptance battery: every criterion of ``avgvar.selfcheck`` at DESK scale.

Reference configurations:
    OU:  alpha=1, k=0.5, y0=0, sigma family (c=0.1, m=0.1), s0=K=100, r=0.05, T=1
    CIR: b=1, k=0.25, z0=1, s0=K=100, r=0.05, T=1

DESK runs N=50000 paths at n=512 for density and pricing work, and
N=100000 for moment and martingale checks, at the pinned seed. Statistical
criteria use 3 standard errors; exact criteria are exact. There is one test
per registered criterion, numbered in registry order; each prints one
``ACCEPTANCE nn PASS`` line per row (visible with pytest -s / -rA).

Four more tests keep the ids of the criteria that the duality criterion
took in, and check the same things at DESK: the weights' zero mean, the
survival probes and phi = G each on their own through ``_identity``, and
the coarse grids' rows.
"""

import pytest

from avgvar import selfcheck


@pytest.fixture(scope="module")
def desk():
    return selfcheck.CheckContext(selfcheck.DESK, threads=2)


def _report(number, rows):
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        print(f"ACCEPTANCE {number:>2} {status}  {row.name}: {row.detail}")
    assert rows and all(row.passed for row in rows), rows


def _acceptance_test(number, check):
    def test(desk):
        _report(number, selfcheck.run_criterion(check, desk))
    test.__doc__ = check.__doc__
    return test


for _number, _check in enumerate(selfcheck.CRITERIA, start=1):
    _name = f"test_criterion_{_number:02d}_{_check.__name__}"
    globals()[_name] = _acceptance_test(_number, _check)
    globals()[_name].__name__ = _name


def _duality_rows(desk, suffix):
    return [row for row in selfcheck.run_criterion(selfcheck.duality, desk)
            if row.name.endswith(suffix)]


def _column_rows(desk, names):
    """The identity on each model's density ensemble over the named phi
    columns only."""
    rows = []
    for tag in selfcheck.MODELS:
        columns = [c for c in selfcheck._density_columns(desk, tag) if c[0] in names]
        assert [c[0] for c in columns] == list(names)
        passed, detail = selfcheck._identity(desk, desk.weighted(tag)[2], columns)
        rows.append(selfcheck.CheckResult(f"{tag}_duality[{','.join(names)}]", passed, detail))
    return rows


def test_criterion_03_zero_mean_weights(desk):
    """E[delta] = 0 on each model's density ensemble."""
    rows = _duality_rows(desk, "_weight_zero_mean")
    assert [row.name for row in rows] == [f"{tag}_weight_zero_mean" for tag in selfcheck.MODELS]
    _report(3, rows)


def test_criterion_07_density_cdf_consistency(desk):
    """The survival probes (min(F, top) - x)^+ at the DESK percentiles of F:
    the density's integral over [x, top] against the empirical mass."""
    _report(7, _column_rows(desk, [f"S{q}" for q in desk.scale.survival_percentiles]))


def test_criterion_14_ibp_price_identity(desk):
    """phi = G: E[delta G(F)] = E[C(sqrt F)], the exact price."""
    _report(14, _column_rows(desk, ["G"]))


def test_criterion_15_coarse_grid_duality(desk):
    """E[delta] = 0 and the identity at phi = F on every coarse grid."""
    rows = [row for row in selfcheck.run_criterion(selfcheck.duality, desk)
            if row.name.startswith("coarse_")]
    assert len(rows) == 2 * len(selfcheck.COARSE)
    _report(15, rows)
