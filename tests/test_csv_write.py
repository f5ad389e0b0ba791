"""The bulk CSV writers against per-cell references: `float_lines` gives the
lines `format_row` gives, and `write_dataset` writes the bytes of a per-cell
loop over every held GRF row."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compredict.io import float_lines, format_row, write_dataset
from compredict.synth import SyntheticSpec, make_trial

from oracles import reference_write_dataset

# values around the points where repr changes notation or loses digits
EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5e-310, 1.0, -3.0, 2.0**53, 2.0**53 + 2.0,
    1e-4, 9.999999999999999e-05, 0.00010000000000000002, 1e-5, 1e16, 9999999999999998.0,
    1.0000000000000002e16, 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 0.1 + 0.2,
]
VALUES = st.one_of(st.sampled_from(EDGES), st.floats(), st.floats(-1e3, 1e3), st.integers(-(10**17), 10**17))


@st.composite
def float_arrays(draw):
    k = draw(st.integers(1, 7))
    rows = draw(st.integers(0, 6))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    cells = draw(st.lists(VALUES, min_size=rows * k, max_size=rows * k))
    with np.errstate(over="ignore"):  # float32 takes the largest values to inf
        return np.array(cells, dtype=float).astype(dtype).reshape(rows, k)


@settings(max_examples=300, deadline=None)
@given(array=float_arrays())
def test_float_lines_equal_format_row_line_for_line(array):
    # in numpy's 1.13 print mode str() of a float64 keeps 12 digits; the
    # lines must not depend on numpy's print options
    with np.printoptions(legacy="1.13"):
        lines = float_lines(array)
    assert lines == [format_row(row) for row in array.tolist()]


def _items(shapes):
    """Trials of the given (samples, dt) whose force rows all differ, so a
    hold off by one sample shows."""
    items = []
    for i, (n, dt) in enumerate(shapes):
        spec = SyntheticSpec(
            kind="sinusoid", duration=(n - 1) * dt, dt=dt, mass=61.5 + i, amplitude=1.3, noise_amplitude=0.4
        )
        trial = make_trial(spec, seed=i, subject_id=f"s{i % 2:02d}", activity_id=f"act{i:02d}")
        items.append((trial.subject_id, trial.activity_id, i % 3, i % 2 == 1, trial))
    return items


def _tree(root):
    files = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


@pytest.mark.parametrize("grf_factor", [1, 2, 5])
def test_write_dataset_bytes_equal_per_cell_reference(tmp_path, grf_factor):
    # 2- and 3-sample trials put most held rows in the clipped end window.
    # Two sample periods are interleaved, and at each one the trials grow and
    # then shrink, so time cells shared under the wrong period, or a stale or
    # too short run of them, change the bytes; at grf_factor 1 a GRF file has
    # its CoM file's period.
    items = _items([(2, 0.005), (3, 0.004), (3, 0.005), (17, 0.004), (17, 0.005), (2, 0.004), (9, 0.005), (5, 0.004)])
    write_dataset(str(tmp_path / "fast"), items, gravity=9.80665, grf_factor=grf_factor)
    reference_write_dataset(str(tmp_path / "ref"), items, gravity=9.80665, grf_factor=grf_factor)
    fast, ref = _tree(tmp_path / "fast"), _tree(tmp_path / "ref")
    assert sorted(fast) == sorted(ref)
    for name, data in ref.items():
        assert fast[name] == data, name
