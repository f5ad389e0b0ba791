"""Property test of the bulk CSV parser against the line-by-line reader: on
any file, `_read_csv` returns the same header and array bytes as
`_read_csv_by_line`, or raises the same SchemaError message, and emits no
warning."""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compredict.io import COM_HEADER, COM_HEADER_NO_VEL, GRF_HEADER, SchemaError, _read_csv, _read_csv_by_line

ALLOWED = [COM_HEADER, COM_HEADER_NO_VEL, GRF_HEADER]
HEADERS = ALLOWED + [["time_s", "fx", "fy"]]

# cells that float() and np.loadtxt may read differently, or not at all
TOKENS = [
    "1.0", " 4.0", "\t6", "+8", ".5", "-0.0", "1.", "-.5e+3", "5e-324", "1e-400", "\xa04", "4 ",
    "nan", "-inf", "inf", "1e400", "1_0", '"7"', '"8\n"', '"1,2"', "1 # c", "1 2", "0x10", "abc", "", " ",
]
CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
)


@st.composite
def csv_texts(draw):
    """A header line and up to 6 rows of numbers, mostly as wide as the
    header, with up to 3 defects."""
    header = draw(st.sampled_from(HEADERS))
    n = draw(st.sampled_from([len(header)] * 3 + [3, 4, 7]))
    rows = draw(st.lists(st.lists(CELLS, min_size=n, max_size=n), max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        defect = draw(st.sampled_from(["token", "short", "long", "comment", "blank", "whitespace"]))
        if defect in ("blank", "whitespace"):
            line = "" if defect == "blank" else draw(st.sampled_from([" ", "\t", " \t"]))
            rows.insert(draw(st.integers(0, len(rows))), line)
            continue
        i = draw(st.integers(0, len(rows))) if rows else None
        if i is None or i == len(rows) or isinstance(rows[i], str):
            continue
        if defect == "token":
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(TOKENS))
        elif defect == "short":
            rows[i] = rows[i][:-1]
        elif defect == "long":
            rows[i] = rows[i] + ["0"]
        else:
            rows[i] = rows[i][:-1] + [rows[i][-1] + " # c"]
    lines = [draw(st.sampled_from([",", ", "])).join(header)]
    lines += [row if isinstance(row, str) else ",".join(row) for row in rows]
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


def outcome(read, path):
    try:
        header, data = read(path, ALLOWED)
    except SchemaError as exc:
        return str(exc)
    return header, data.dtype, data.shape, data.strides, data.tobytes()


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("csv") / "trial.csv")


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(st.just(""), csv_texts()))
def test_bulk_parse_equals_line_by_line_reader(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fast = outcome(_read_csv, path)
    assert fast == outcome(_read_csv_by_line, path)
    assert not caught, [str(w.message) for w in caught]
