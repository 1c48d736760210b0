"""Byte-identity pins below the CLI; every CLI output pin is a row of
test_pins.PINS.

The fixed-weight rows were produced by the pure-Python scalar SplitMix64
draws (one `next64` per output); drawing in numpy blocks must not change a
single value.
"""

import hashlib
import json
from fractions import Fraction

import pytest
from test_pins import make_input

from randisc import ensembles, moments, solver


FIXED_WEIGHT_ROWS = {
    ("poisson_with_replacement", 40, 25, 3): [
        0, 1, 1, 0, 0, 1, 1, 2, 1, 0, 1, 1, 0, 1, 0, 1, 0, 3, 0, 1,
        2, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1,
    ],
    ("bernoulli_without_replacement", 40, 17, 3): [
        0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1,
        0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1,
    ],
    # 300 draws below 7: the first block falls short, so the run refills
    ("poisson_with_replacement", 7, 300, 5): [39, 34, 50, 47, 44, 48, 38],
}


@pytest.mark.parametrize("key", sorted(FIXED_WEIGHT_ROWS))
def test_fixed_weight_row_pinned(key):
    assert ensembles.sample_fixed_weight(*key) == FIXED_WEIGHT_ROWS[key]


def test_full_scan_pin_is_a_probe_miss(tmp_path, monkeypatch):
    # so the table's f32.txt row pins the full scan's witness, not the probe's
    monkeypatch.chdir(tmp_path)
    make_input("f32.txt")
    assert solver._probe(ensembles.read_matrix("f32.txt"), 1, True) is None


def test_log_mode_moment_report_pinned():
    # n = 128 is past the exact cap; the phi grid stays exact, the ratio and
    # the first moment are floats
    rep = moments.moment_report(
        "poisson_fixed_weight", n=128, m=4, w=4, band_radius=2, exact=False
    )
    text = json.dumps({
        "psi": str(rep.psi),
        "phi": [[str(b), str(v)] for b, v in sorted(rep.phi_at.items())],
        "log_first_moment": rep.first_moment.log_value,
        "ratio": rep.ratio,
    })
    assert rep.psi == Fraction(7, 8)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c900031e03256568a0185be0079eac025c260db68e1c15d12efb0f58d490f1b4"
    )
