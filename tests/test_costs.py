"""Every fitted cost estimate against every measured row of its fit.

Each fit in randisc.costs is a tuple of (band, rows) groups: a row's
estimate over its measured peak or seconds must lie in the group's band.
Pure arithmetic on the recorded rows, so nothing here is timed.

Run against the source tree or an installed package; this file needs only
pytest and randisc.
"""

from fractions import Fraction

import pytest

from randisc import costs, ensembles, solver

MIB = 1 << 20


def _rows(fit):
    return [(band, row) for band, rows in fit for row in rows]


def _assert_in_band(est, measured, band, row):
    lo, hi = band
    assert lo <= est / measured <= hi, f"estimate {est:.4g} / {measured} outside {band}: {row}"


@pytest.mark.parametrize("band,row", _rows(costs.MITM_FIT))
def test_mitm_peak_fits_its_rows(band, row):
    n, m, peak, _, _ = row
    _assert_in_band(costs.mitm_peak(n, m), peak * MIB, band, row)


@pytest.mark.parametrize("band,row", _rows(costs.BLOCKS_FIT))
def test_blocks_peak_fits_its_rows(band, row):
    n, m, _, peak, _, _ = row
    _assert_in_band(costs.blocks_peak(m, min(n - 1, solver._BLOCK_BITS)), peak * MIB, band, row)


@pytest.mark.parametrize("band,row", _rows(costs.SAMPLE_FIT))
def test_sample_peak_fits_its_rows(band, row):
    kind, param, m, n, parity, peak, _, _ = row
    table = ensembles._entry_table(kind, Fraction(param))
    held = 32 if parity == "even" else 16
    _assert_in_band(costs.sample_peak(n, m, held, table), peak * MIB, band, row)


@pytest.mark.parametrize("band,row", _rows(costs.EXACT_SECONDS_FIT))
def test_exact_seconds_fits_its_rows(band, row):
    case, n, p, counts, band_radius, seconds, _, _ = row
    _assert_in_band(costs.exact_seconds(case, n, p, counts, band_radius), seconds, band, row)


def test_bernoulli_rows_of_weight_n_over_2_are_admitted():
    # the n = 768 row of EXACT_SECONDS_FIT, estimated only: w log2 n bits a
    # row read 1.5 s, the bound by the size of the row's law about 0.6 s
    assert costs.exact_seconds("bernoulli_fixed_weight", 768, None, {384: 8}, 0) < costs.EXACT_SECONDS


@pytest.mark.parametrize("n", [2, 16, 256, 4096, 2**20])
def test_bernoulli_bound_never_raises_the_estimate(n):
    # a Poisson row at band radius 0 is estimated as every fixed-weight row
    # was before Bernoulli rows were bounded by their law
    for w in {1, 2, n // 8, n // 4, n // 2, n - 1, n, n + 1} - {0}:
        for counts in ({w: 1}, {w: 64}, {w: 8, max(1, w // 2): 8}):
            bounded = costs.exact_seconds("bernoulli_fixed_weight", n, None, counts, 0)
            assert bounded <= costs.exact_seconds("poisson_fixed_weight", n, None, counts, 0)


def test_every_fit_names_its_machine_and_command():
    for fit in (costs.MITM_FIT, costs.BLOCKS_FIT, costs.SAMPLE_FIT, costs.EXACT_SECONDS_FIT):
        for (lo, hi), rows in fit:
            assert 0 < lo <= hi and rows
            assert all(row[-2] == costs.BOX and row[-1] for row in rows)
