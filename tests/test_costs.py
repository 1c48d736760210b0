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
    n, p, counts, band_radius, seconds, _, _ = row
    _assert_in_band(costs.exact_seconds(n, p, counts, band_radius), seconds, band, row)


def test_every_fit_names_its_machine_and_command():
    for fit in (costs.MITM_FIT, costs.BLOCKS_FIT, costs.SAMPLE_FIT, costs.EXACT_SECONDS_FIT):
        for (lo, hi), rows in fit:
            assert 0 < lo <= hi and rows
            assert all(row[-2] == costs.BOX and row[-1] for row in rows)
