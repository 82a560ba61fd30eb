from __future__ import annotations

import csv
import dataclasses
import decimal
import math
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from robustfactors import _helper, estimators
from robustfactors import panel as panel_module
from robustfactors.panel import DataPanel, double_demean, impute_column_mean, ingest_csv


def write_csv(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def reference_ingest_csv(path, has_header=True, has_time_column=False):
    """The cell-by-cell parser that ingest_csv replaced, kept as its oracle."""
    rows, labels = [], []
    width = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, record in enumerate(reader, start=1):
            if has_header and lineno == 1:
                continue
            if has_time_column:
                if not record:
                    raise ValueError(f"{path}: row {lineno} is empty")
                labels.append(record[0])
                record = record[1:]
            if width is None:
                if not record:
                    raise ValueError(f"{path}: row {lineno} has no data cell")
                width = len(record)
            elif len(record) != width:
                raise ValueError(
                    f"{path}: row {lineno} has {len(record)} columns, expected {width}"
                )
            vals = []
            for colno, cell in enumerate(record, start=1):
                token = cell.strip()
                if token.lower() in {"", "na", "nan"}:
                    vals.append(np.nan)
                    continue
                try:
                    x = float(token)
                except ValueError:
                    raise ValueError(
                        f"{path}: cannot parse cell at row {lineno}, column {colno}: {cell!r}"
                    ) from None
                if not np.isfinite(x):
                    raise ValueError(
                        f"{path}: non-finite value at row {lineno}, column {colno}"
                    )
                vals.append(x)
            rows.append(vals)
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(rows)}")
    if width is None or width < 2:
        raise ValueError(f"{path}: need at least 2 columns, got {width or 0}")
    values = np.array(rows, dtype=np.float64)
    return DataPanel(values, time_labels=labels if has_time_column else None)


def parse_outcome(parser, path, has_header, has_time_column):
    """("ok", value bytes, mask bytes, shape, labels) or ("error", message)."""
    try:
        panel = parser(path, has_header=has_header, has_time_column=has_time_column)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", panel.values.view(np.int64).tobytes(), panel.missing_mask.tobytes(),
            panel.shape, panel.time_labels)


def ingest_both(path, has_header=True, has_time_column=False):
    """(outcome, plain): ingest_csv's outcome, checked against reference_ingest_csv,
    and whether numpy's C reader read the file, not the cell-by-cell parser."""
    with mock.patch.object(panel_module, "_read_cells", wraps=panel_module._read_cells) as exact:
        outcome = parse_outcome(ingest_csv, path, has_header, has_time_column)
    assert outcome == parse_outcome(reference_ingest_csv, path, has_header, has_time_column)
    return outcome, not exact.called


def ingest_which(path, has_header=True, has_time_column=False):
    """(outcome, reader): ingest_both's outcome and the reader that gave it.

    reader is "long" (_read_long), "loadtxt" or "cells" (_read_cells).
    """
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as c_reader:
        outcome, plain = ingest_both(path, has_header, has_time_column)
    return outcome, ("loadtxt" if c_reader.called else "long") if plain else "cells"


# The reader of full-precision cells where long double is the x87 type and
# np.fromstring raises at a cell it cannot read.
LONG = "long" if panel_module._LONG_READER else "loadtxt"
_EXACT = decimal.Context(prec=2000)  # every double and midpoint has fewer digits


def midpoint(x: float) -> decimal.Decimal:
    """The exact decimal halfway between x and the next double up."""
    return _EXACT.divide(_EXACT.add(decimal.Decimal(x), decimal.Decimal(math.nextafter(x, math.inf))), 2)


def near_tie(x: float) -> str:
    """A decimal 1e-25 ulp from midpoint(x), on the side of whichever of x and its
    upper neighbour has an odd significand. float() reads that odd double, while
    its 64-bit long double is the midpoint, which rounds to the even one."""
    upper = decimal.Decimal(math.nextafter(x, math.inf))
    step = _EXACT.multiply(_EXACT.subtract(upper, decimal.Decimal(x)), decimal.Decimal("1e-25"))
    odd_above = np.float64(x).view(np.int64) % 2 == 0
    return str(_EXACT.add(midpoint(x), step if odd_above else -step))


MISSING_SPELLINGS = ["", "  ", "NA", "na", "NaN", " nan "]
EDGE_NUMBERS = ["5e-324", "1.7976931348623157e308", "-0.0", "0.10000000000000001",
                "-1.2345678901234567e-300", " 7 ", "1_000", "\u00a02\u00a0", "\x1c3"]
BAD_TOKENS = ["inf", "-Infinity", "+nan", "1e999", "-nan", "oops", "1,5", "--1"]


@st.composite
def cell_tokens(draw):
    """Mostly clean numbers; about one cell in ten missing, one in 25 bad."""
    bucket = draw(st.integers(0, 99))
    if bucket < 10:
        return draw(st.sampled_from(MISSING_SPELLINGS))
    if bucket < 16:
        return draw(st.sampled_from(EDGE_NUMBERS))
    if bucket < 20:
        return draw(st.sampled_from(BAD_TOKENS))
    if bucket < 30:
        x = draw(st.floats(allow_nan=False, allow_infinity=False))
    else:
        x = draw(st.floats(-1e6, 1e6))
    return draw(st.sampled_from([repr, "{:.17g}".format]))(x)


def render_cell(token, quoted):
    if quoted or any(ch in token for ch in ',"\r\n'):
        return '"' + token.replace('"', '""') + '"'
    return token


@st.composite
def csv_inputs(draw):
    """(text, has_header, has_time_column): small CSVs with missing, bad, ragged and empty rows."""
    has_header = draw(st.booleans())
    has_time_column = draw(st.booleans())
    width = draw(st.integers(1, 5))
    n_lines = draw(st.integers(2, 8))
    lines = []
    for lineno in range(1, n_lines + 1):
        if lineno > 1 and draw(st.integers(0, 29)) == 0:
            lines.append("")  # an empty record
            continue
        n = width + draw(st.sampled_from([-1, 1])) if draw(st.integers(0, 19)) == 0 else width
        if has_header and lineno == 1:
            cells = [f"s{j}" for j in range(n)]
        else:
            cells = [draw(cell_tokens()) for _ in range(n)]
        if has_time_column:
            cells.insert(0, draw(st.sampled_from(["2001-01", "t,1", " x ", ""])))
        lines.append(",".join(render_cell(c, draw(st.booleans())) for c in cells))
    return "\n".join(lines) + "\n", has_header, has_time_column


@st.composite
def plain_cell_tokens(draw):
    """Numbers and empty cells the C reader takes; one cell in 30 is any token of cell_tokens."""
    bucket = draw(st.integers(0, 99))
    if bucket < 15:
        return ""
    if bucket < 20:
        return draw(st.sampled_from(["nan", " NaN ", "5e-324", "-0.0", " 7 ", "\x1c3", "\u00a02\u00a0"]))
    if bucket < 23:
        return draw(cell_tokens())
    if bucket < 29:  # float64 ties and near-ties, which _read_long reads again
        x = draw(st.floats(-1e300, 1e300))
        return draw(st.sampled_from([lambda x: str(midpoint(x)), near_tie]))(x)
    x = draw(st.floats(allow_nan=False, allow_infinity=False))
    if bucket < 40:
        return f"{x:.{draw(st.integers(15, 18))}e}"  # 16-19 significant digits
    return draw(st.sampled_from([repr, "{:.17g}".format]))(x)


@st.composite
def plain_csv_inputs(draw):
    """(text, has_header, has_time_column): quote-free LF files, most of them plain.

    Cells are never quoted, so a token with a comma makes two cells. At
    most one line is blank, has a cell too few or too many, or has a label
    with a comma.
    """
    has_header = draw(st.booleans())
    has_time_column = draw(st.booleans())
    width = draw(st.integers(2, 5))  # csv_inputs covers one column
    n_lines = draw(st.integers(2, 8))
    trap = {3: "blank", 4: "short", 5: "long", 6: "label"}.get(draw(st.integers(0, 9)))
    trap_line = draw(st.integers(2, n_lines))
    lines = []
    for lineno in range(1, n_lines + 1):
        at_trap = lineno == trap_line
        if at_trap and trap == "blank":
            lines.append("")
            continue
        n = width + {"short": -1, "long": 1}.get(trap, 0) if at_trap else width
        if has_header and lineno == 1:
            cells = [f"s{j}" for j in range(n)]
        else:
            cells = [draw(plain_cell_tokens()) for _ in range(n)]
        if has_time_column:
            label = "t,1" if at_trap and trap == "label" else draw(st.sampled_from(["2001-01", " x ", "", "#", "nan"]))
            cells.insert(0, label)
        lines.append(",".join(cells))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""])), has_header, has_time_column


class TestIngest:
    def test_roundtrip_with_header(self, tmp_path):
        path = write_csv(tmp_path, "a,b,c\n1,2,3\n4,5,6\n7,8,9\n")
        panel = ingest_csv(path)
        np.testing.assert_array_equal(panel.values, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert panel.shape == (3, 3)
        assert not panel.has_missing
        assert panel.time_labels is None

    def test_no_header(self, tmp_path):
        path = write_csv(tmp_path, "1,2\n3,4\n")
        panel = ingest_csv(path, has_header=False)
        np.testing.assert_array_equal(panel.values, [[1, 2], [3, 4]])

    def test_time_column(self, tmp_path):
        path = write_csv(tmp_path, "date,x,y\n2001-01,1,2\n2001-02,3,4\n")
        panel = ingest_csv(path, has_time_column=True)
        assert panel.time_labels == ["2001-01", "2001-02"]
        assert panel.shape == (2, 2)

    def test_missing_tokens_flagged(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,NA\nNaN,4\n,6\n")
        panel = ingest_csv(path)
        assert panel.has_missing
        expected = np.array([[False, True], [True, False], [True, False]])
        np.testing.assert_array_equal(panel.missing_mask, expected)
        assert np.isnan(panel.values[0, 1])
        assert panel.values[1, 1] == 4

    def test_parse_error_reports_location(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match="row 3, column 2"):
            ingest_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n3,4,5\n")
        with pytest.raises(ValueError, match="row 3"):
            ingest_csv(path)

    def test_single_row_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ValueError, match="at least 2"):
            ingest_csv(path)

    def test_single_column_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a\n1\n2\n")
        with pytest.raises(ValueError, match="at least 2"):
            ingest_csv(path)

    def test_inf_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,inf\n3,4\n")
        with pytest.raises(ValueError, match="non-finite"):
            ingest_csv(path)

    @pytest.mark.parametrize("quoted", [False, True])
    def test_flags_are_truth_values(self, tmp_path, quoted):
        """Both readers take a flag as True or False, never as a count of rows."""
        header = '"a",b' if quoted else "a,b"
        path = write_csv(tmp_path, f"{header}\nc,d\n1,2\n3,4\n5,6\n")
        for name, value in (("has_header", 2), ("has_header", 0.5), ("has_time_column", 1)):
            with pytest.raises(ValueError, match=f"^{name} must be True or False, got {value!r}$"):
                ingest_csv(path, **{name: value})
        path = write_csv(tmp_path, f"{header}\n1,2\n3,4\n5,6\n")
        panel = ingest_csv(path, has_header=np.True_, has_time_column=np.False_)
        np.testing.assert_array_equal(panel.values, [[1, 2], [3, 4], [5, 6]])

    def test_missing_file_mentions_path(self, tmp_path):
        with pytest.raises(OSError, match="nope.csv"):
            ingest_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("data, row", [
        (b"a,b\n1,2\n3,\xff4\n", 3),
        (b"\xffa,b\n1,2\n3,4\n", 1),
        (b"a,b\n1,2\n3,4\xc3", 3),  # a multi-byte character cut short at the end
        (b"\xef\xbb\xbfa,b\n\xff1,2\n3,4\n", 2),  # rows counted after the byte-order mark
        (b'"a","b"\n1,2\n"3",\xff4\n', 3),
    ])
    def test_invalid_utf8_names_file_and_row(self, tmp_path, data, row):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError) as exc:
            ingest_csv(path)
        assert str(exc.value) == f"{path}: row {row} is not valid UTF-8"


class TestIngestOracle:
    """ingest_csv gives the bytes, mask, labels and errors of the cell-by-cell parser."""

    @pytest.fixture(scope="class")
    def csv_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("oracle")

    @settings(max_examples=300, deadline=None)
    @given(case=csv_inputs())
    @example(case=("1,2\n3,4,x\n", False, False))
    def test_matches_reference(self, csv_dir, case):
        text, has_header, has_time_column = case
        path = csv_dir / "panel.csv"
        path.write_text(text, encoding="utf-8")
        ingest_both(path, has_header, has_time_column)

    @settings(max_examples=300, deadline=None)
    @given(case=plain_csv_inputs())
    @example(case=("a,b\n1,\n,2\n", True, False))
    def test_plain_files_match_reference(self, csv_dir, case):
        text, has_header, has_time_column = case
        path = csv_dir / "plain.csv"
        path.write_text(text, encoding="utf-8")
        _, reader = ingest_which(path, has_header, has_time_column)
        event(reader)

    @pytest.mark.parametrize("bad", ["inf", "-Infinity", "+nan", "1e999"])
    def test_non_finite_reported_before_a_later_unparseable_cell(self, tmp_path, bad):
        path = write_csv(tmp_path, f"a,b,c\n1,2,3\n4,{bad},oops\n")
        outcome, _ = ingest_both(path, True, False)
        assert outcome == ("error", f"{path}: non-finite value at row 3, column 2")

    def test_unparseable_reported_before_a_later_non_finite_cell(self, tmp_path):
        path = write_csv(tmp_path, "a,b,c\n1,2,3\n4,oops,inf\n")
        outcome, _ = ingest_both(path, True, False)
        assert outcome == ("error", f"{path}: cannot parse cell at row 3, column 2: 'oops'")

    @pytest.mark.parametrize("has_header", [False, True])
    @pytest.mark.parametrize("has_time_column", [False, True])
    def test_every_missing_spelling_and_edge_number(self, tmp_path, has_header, has_time_column):
        cells = MISSING_SPELLINGS + EDGE_NUMBERS
        row = ",".join(['"' + c + '"' for c in cells])
        if has_time_column:
            row = "2001-01," + row
        header = "h\n" if has_header else ""
        path = write_csv(tmp_path, f"{header}{row}\n{row}\n")
        outcome, _ = ingest_both(path, has_header, has_time_column)
        assert outcome[0] == "ok"
        assert outcome[3] == (2, len(cells))
        values = np.frombuffer(outcome[1], dtype=np.float64)[:len(MISSING_SPELLINGS) + 3]
        assert np.isnan(values[:len(MISSING_SPELLINGS)]).all()
        assert values[-3:].tolist() == [5e-324, 1.7976931348623157e308, 0.0]
        assert np.signbit(values[-1])

    def test_empty_row_with_time_column(self, tmp_path):
        path = write_csv(tmp_path, "d,a,b\nx,1,2\n\ny,3,4\n")
        outcome, _ = ingest_both(path, True, True)
        assert outcome == ("error", f"{path}: row 3 is empty")


class TestPlainReaderTraps:
    """Files where a plain np.loadtxt read would part from the cell-by-cell parser."""

    def test_extra_cell_in_a_later_row_under_a_time_column(self, tmp_path):
        path = write_csv(tmp_path, "d,a,b\nx,1,2\ny,3,4,5\nz,6,7\n")
        outcome, _ = ingest_both(path, has_time_column=True)
        assert outcome == ("error", f"{path}: row 3 has 3 columns, expected 2")

    def test_blank_line_mid_file(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n\n3,4\n")
        outcome, _ = ingest_both(path)
        assert outcome == ("error", f"{path}: row 3 has 0 columns, expected 2")

    @pytest.mark.parametrize("text, has_time_column", [
        ("a,b\n\n1,2\n3,4\n", False),  # a blank first data row
        ("d,a,b\ny\nx,1,2\n", True),  # a label with no data cell
    ])
    def test_first_data_row_without_a_data_cell(self, tmp_path, text, has_time_column):
        """The row with no data cell is named, not the next row for not matching it."""
        path = write_csv(tmp_path, text)
        outcome, plain = ingest_both(path, has_time_column=has_time_column)
        assert not plain
        assert outcome == ("error", f"{path}: row 2 has no data cell")

    @pytest.mark.parametrize("bad", ["+nan", "-NaN", "inf", "1e999"])
    def test_non_finite_spellings(self, tmp_path, bad):
        path = write_csv(tmp_path, f"a,b,c\n1,2,3\n4,{bad},6\n")
        outcome, _ = ingest_both(path)
        assert outcome == ("error", f"{path}: non-finite value at row 3, column 2")

    @pytest.mark.parametrize("token, plain", [("NA", False), (" nan ", True), ("  ", False)])
    def test_missing_spellings(self, tmp_path, token, plain):
        path = write_csv(tmp_path, f"a,b\n1,{token}\n3,4\n")
        outcome, took_c_reader = ingest_both(path)
        assert took_c_reader is plain
        assert outcome[0] == "ok"
        assert np.frombuffer(outcome[2], dtype=bool).tolist() == [False, True, False, False]

    @pytest.mark.parametrize("token, plain", [("NaN", True), (" nan ", True), (" na ", False)])
    def test_missing_tokens_under_labels_with_an_n(self, tmp_path, token, plain):
        """The "n" of a label such as Jan-1960 does not send the file to the cell parser.

        " na " passes the per-line vet too, but np.loadtxt has no such spelling,
        so the cell parser reads that file.
        """
        path = write_csv(tmp_path, f"date,a,b\nJan-1960,1,{token}\nFeb-1960,3,4\nMar-1960,5,6\n")
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as c_reader:
            outcome, took_c_reader = ingest_both(path, has_time_column=True)
        assert c_reader.called
        assert took_c_reader is plain
        assert outcome[0] == "ok"
        assert np.frombuffer(outcome[2], dtype=bool).tolist() == [False, True] + [False] * 4
        assert outcome[4] == ["Jan-1960", "Feb-1960", "Mar-1960"]

    @pytest.mark.parametrize("bad", ["-nan", "inf"])
    def test_non_finite_under_labels_with_an_n(self, tmp_path, bad):
        """A data cell with an "n" that is not a missing token goes to the cell parser
        before np.loadtxt runs, and that parser raises its own message."""
        path = write_csv(tmp_path, f"date,a,b\nJan-1960,1,2\nFeb-1960,3,{bad}\nMar-1960,5,6\n")
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as c_reader:
            outcome, took_c_reader = ingest_both(path, has_time_column=True)
        assert not c_reader.called
        assert not took_c_reader
        assert outcome == ("error", f"{path}: non-finite value at row 3, column 2")

    @pytest.mark.parametrize("has_time_column", [False, True])
    def test_leading_trailing_and_runs_of_empty_cells(self, tmp_path, has_time_column):
        rows = [",,,1", "2,,,", ",3,,", "4,5,6,7"]
        label = "t," if has_time_column else ""
        path = write_csv(tmp_path, "a,b,c,d\n" + "".join(label + row + "\n" for row in rows))
        outcome, plain = ingest_both(path, has_time_column=has_time_column)
        assert plain
        mask = np.frombuffer(outcome[2], dtype=bool).reshape(4, 4)
        assert mask.tolist() == [[cell == "" for cell in row.split(",")] for row in rows]

    @pytest.mark.parametrize("has_time_column", [False, True])
    def test_hash_cell(self, tmp_path, has_time_column):
        label = "t," if has_time_column else ""
        path = write_csv(tmp_path, f"a,b\n{label}1,2\n{label}3,4\n{label}#,5\n")
        outcome, _ = ingest_both(path, has_time_column=has_time_column)
        assert outcome == ("error", f"{path}: cannot parse cell at row 4, column 1: '#'")

    def test_wide_panel_takes_the_plain_reader(self, tmp_path):
        """Lines past csv's field size limit, every cell far below it."""
        N = 7000  # about 19 characters a repr cell
        Y = np.random.default_rng(8).standard_normal((3, N))
        lines = [",".join(f"x{j}" for j in range(N))]
        lines += [",".join(repr(float(v)) for v in y) for y in Y]
        assert min(map(len, lines[1:])) > csv.field_size_limit()
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        outcome, reader = ingest_which(path)
        assert reader == LONG
        assert outcome[1] == Y.tobytes()

    def test_benchmark_layout_takes_the_c_reader(self, tmp_path, monkeypatch):
        """A 708 x 128 dated Cauchy panel with 16 late-starting series, as perfbench writes it."""
        rng = np.random.default_rng(7)
        T, N = 708, 128
        Y = (rng.standard_normal((T, 4)) @ rng.standard_normal((4, N)) + rng.standard_normal((T, N)))
        Y /= np.abs(rng.standard_normal((T, 1)))
        for j, start in zip(range(N - 16, N), rng.integers(24, 180, size=16)):
            Y[:start, j] = np.nan
        lines = ["date," + ",".join(f"x{j + 1}" for j in range(N))]
        for t in range(T):
            cells = ("" if np.isnan(v) else repr(float(v)) for v in Y[t])
            lines.append(f"{1959 + t // 12}-{t % 12 + 1:02d}," + ",".join(cells))
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        expected = parse_outcome(reference_ingest_csv, path, True, True)

        def no_cells(*args):
            raise AssertionError("the cell-by-cell parser read a plain file")

        monkeypatch.setattr(panel_module, "_read_cells", no_cells)
        assert parse_outcome(ingest_csv, path, True, True) == expected
        assert np.array_equal(np.isnan(Y), np.frombuffer(expected[2], dtype=bool).reshape(T, N))


class TestLongDoubleReader:
    """Files whose first data row has a cell with more than 15 significant digits."""

    LEAD = "1.2345678901234567"  # 17 digits: the long double reader is tried

    @pytest.mark.parametrize("cell", [
        pytest.param("9007199254740993", id="2**53+1"),  # halfway between two doubles
        pytest.param(str(midpoint(0.1)), id="midpoint(0.1)"),
        pytest.param(near_tie(2.0**53), id="near_tie(2**53)"),
        pytest.param(near_tie(0.1), id="near_tie(0.1)"),
        pytest.param(near_tie(-3.0e-300), id="near_tie(-3e-300)"),
    ])
    def test_ties(self, tmp_path, cell):
        path = write_csv(tmp_path, f"a,b\n{self.LEAD},{cell}\n{cell},2\n")
        outcome, reader = ingest_which(path)
        assert reader == LONG
        assert np.frombuffer(outcome[1], dtype=np.float64)[1] == float(cell)

    @pytest.mark.skipif(LONG != "long", reason="long double is not the x87 type")
    @pytest.mark.parametrize("x", [2.0**53, 0.1, -3.0e-300, 0.0, -1e-310])
    def test_near_ties_part_from_double_rounding(self, x):
        """Rounding their long double to double parts from float(), so test_ties and
        test_subnormals fail without the second read of those cells."""
        cell = near_tie(x)
        assert float(np.longdouble(cell)) != float(cell)

    @pytest.mark.parametrize("cell", [
        "4.9e-324", "2.4703282292062328e-324", "-2.2250738585072011e-308", "1e-400",
        pytest.param(near_tie(0.0), id="near_tie(0)"),
        pytest.param(near_tie(-1e-310), id="near_tie(-1e-310)"),
    ])
    def test_subnormals(self, tmp_path, cell):
        path = write_csv(tmp_path, f"a,b\n{self.LEAD},{cell}\n{cell},2\n")
        outcome, reader = ingest_which(path)
        assert reader == LONG
        assert np.frombuffer(outcome[1], dtype=np.float64)[1] == float(cell)

    def test_hex_cell_is_a_parse_error(self, tmp_path):
        """strtold reads 0x1p3 as 8; the long double reader declines the file."""
        path = write_csv(tmp_path, f"a,b\n{self.LEAD},2\n3,0x1p3\n")
        outcome, reader = ingest_which(path)
        assert reader == "cells"
        assert outcome == ("error", f"{path}: cannot parse cell at row 3, column 2: '0x1p3'")

    @pytest.mark.parametrize("token, reader", [("  ", "cells"), (" nan ", "loadtxt")])
    def test_blank_and_spaced_missing_cells(self, tmp_path, token, reader):
        """np.fromstring reads a blank cell as 0.0, so a file with whitespace is declined."""
        path = write_csv(tmp_path, f"a,b\n{self.LEAD},{token}\n3,4\n")
        outcome, took = ingest_which(path)
        assert took == reader
        assert np.frombuffer(outcome[2], dtype=bool).tolist() == [False, True, False, False]

    def test_overflow_is_non_finite(self, tmp_path):
        path = write_csv(tmp_path, f"a,b\n{self.LEAD},2\n3,1e999\n")
        with mock.patch.object(panel_module, "_read_long", wraps=panel_module._read_long) as long_reader:
            outcome, reader = ingest_which(path)
        assert long_reader.called is (LONG == "long")  # its inf goes to the cell parser
        assert reader == "cells"
        assert outcome == ("error", f"{path}: non-finite value at row 3, column 2")

    @pytest.mark.parametrize("has_time_column", [False, True])
    @pytest.mark.parametrize("last", ["6,7", "6"])  # with "6" the file still holds 3 x 2 cells
    def test_extra_cell_in_a_later_row(self, tmp_path, has_time_column, last):
        label = "t," if has_time_column else ""
        path = write_csv(tmp_path, f"d,a,b\n{label}{self.LEAD},2\n{label}3,4,5\n{label}{last}\n")
        outcome, reader = ingest_which(path, has_time_column=has_time_column)
        assert reader == "cells"
        assert outcome == ("error", f"{path}: row 3 has 3 columns, expected 2")

    def test_trailing_empty_cell(self, tmp_path):
        """np.fromstring drops a trailing separator; the empty cell is filled first."""
        path = write_csv(tmp_path, f"a,b,c\n{self.LEAD},2,\n3,4,5\n")
        outcome, reader = ingest_which(path)
        assert reader == LONG
        assert np.frombuffer(outcome[2], dtype=bool).tolist() == [False, False, True] + [False] * 3

    @pytest.mark.parametrize("lead, reader", [
        ("1.23456789012345", "loadtxt"),  # 15 significant digits
        ("-0.001234567890123456", LONG),  # 16; leading zeros do not count
        ("1234.5678", "loadtxt"),  # %.4f, as short-decimal files such as FRED-MD are written
        ("1.234567890123456e-05", LONG),
        ("0.000000000000000001", "loadtxt"),
    ])
    def test_digit_rule(self, tmp_path, lead, reader):
        """Only the first data row decides; the later 17-digit cell does not."""
        path = write_csv(tmp_path, f"a,b\n{lead},2\n3,{self.LEAD}\n")
        outcome, took = ingest_which(path)
        assert took == reader
        assert outcome[0] == "ok"

    # Data rows of a file of more than three chunks: four full chunks and a
    # partial one. The calling thread reads chunks 0, 2 and 4, the helper 1 and 3.
    CHUNK = panel_module._CHUNK_ROWS
    ROWS = 4 * CHUNK + 17
    PLACES = {"first chunk": 5, "helper chunk": CHUNK + 5, "last partial chunk": 4 * CHUNK + 9}

    def chunked_file(self, tmp_path, row=None, cell=None, rows=ROWS):
        """A dated plain file of repr cells, the last column starting late, with
        cell in data row `row`, column 2."""
        rng = np.random.default_rng(3)
        lines = ["date,a,b,c,d"]
        for t in range(rows):
            cells = [repr(float(x)) for x in rng.standard_normal(4)]
            if t < 3:
                cells[3] = ""
            if t == row:
                cells[1] = cell
            lines.append(f"t{t}," + ",".join(cells))
        return write_csv(tmp_path, "\n".join(lines) + "\n")

    def assert_cells_agree(self, path, outcome):
        """ingest_csv's outcome is _read_cells' own (ingest_both checks the oracle)."""
        def cells(path, has_header, has_time_column):
            text = path.read_bytes().decode("utf-8-sig")
            return panel_module._read_cells(text, path, has_header, has_time_column)

        assert outcome == parse_outcome(cells, path, True, True)

    @pytest.mark.parametrize("place", PLACES)
    @pytest.mark.parametrize("cell, reader, error", [
        pytest.param("9007199254740993", LONG, None, id="tie"),
        pytest.param(near_tie(0.1), LONG, None, id="near_tie(0.1)"),
        pytest.param(near_tie(-1e-310), LONG, None, id="subnormal"),
        pytest.param("1e999", "cells", "non-finite value at row {row}, column 2", id="1e999"),
        pytest.param(" 7 ", "loadtxt", None, id="whitespace"),
        pytest.param("0x1p3", "cells", "cannot parse cell at row {row}, column 2: '0x1p3'", id="hex"),
        pytest.param("2,5", "cells", "row {row} has 5 columns, expected 4", id="extra comma"),
    ])
    def test_cell_in_each_chunk(self, tmp_path, place, cell, reader, error):
        row = self.PLACES[place]
        path = self.chunked_file(tmp_path, row, cell)
        outcome, took = ingest_which(path, has_time_column=True)
        assert took == reader
        self.assert_cells_agree(path, outcome)
        if error is None:
            assert outcome[0] == "ok"
            assert np.frombuffer(outcome[1], dtype=np.float64)[4 * row + 1] == float(cell)
            assert outcome[4] == [f"t{t}" for t in range(self.ROWS)]
        else:
            assert outcome == ("error", f"{path}: " + error.format(row=row + 2))

    def chunk_readers(self, path):
        """{chunk index: the threads whose np.fromstring calls read it} in one ingest_csv."""
        firsts = [line.partition(",")[2] for line in path.read_text().split("\n")[1::self.CHUNK]]
        fromstring = np.fromstring
        readers = {}

        def record(text, *args, **kwargs):
            chunk = next(i for i, first in enumerate(firsts) if first and text.startswith(first))
            readers.setdefault(chunk, set()).add(threading.get_ident())
            return fromstring(text, *args, **kwargs)

        with mock.patch.object(np, "fromstring", side_effect=record):
            outcome, reader = ingest_which(path, has_time_column=True)
        assert reader == "long"
        self.assert_cells_agree(path, outcome)
        return readers

    @pytest.mark.skipif(LONG != "long", reason="long double is not the x87 type")
    @pytest.mark.parametrize("rows, helpers", [(CHUNK, 0), (CHUNK + 1, 1), (ROWS, 1)])
    def test_one_helper_thread_past_one_chunk(self, tmp_path, rows, helpers, monkeypatch):
        """The odd chunks are parsed on the thread that runs the Gram path."""
        gram_threads = set()
        gram = estimators.gram_eigenvalues
        monkeypatch.setattr(
            estimators, "gram_eigenvalues",
            lambda Y: gram_threads.add(threading.get_ident()) or gram(Y),
        )
        panel = DataPanel(np.random.default_rng(4).standard_normal((20, 10)))
        estimators.estimate_many(panel, {"er": estimators.EstimatorConfig("er", k_max=3)})
        readers = self.chunk_readers(self.chunked_file(tmp_path, rows=rows))
        caller = {threading.get_ident()}
        assert len(readers) == -(-rows // self.CHUNK)
        assert all(readers[i] == (gram_threads if i % 2 else caller) for i in readers)
        assert len(gram_threads) == 1 and gram_threads != caller
        assert len(set().union(*readers.values()) - caller) == helpers

    @pytest.mark.skipif(LONG != "long", reason="long double is not the x87 type")
    def test_ingest_and_estimate_add_at_most_one_thread(self, tmp_path, monkeypatch):
        path = self.chunked_file(tmp_path)
        panel = DataPanel(np.random.default_rng(5).standard_normal((30, 12)))
        configs = {m: estimators.EstimatorConfig(m, k_max=3) for m in estimators.ALL_METHODS}
        monkeypatch.setattr(_helper, "_helper_jobs", None)  # a fresh helper starts on first use
        before = threading.active_count()
        with mock.patch.object(threading, "Thread", wraps=threading.Thread) as thread:
            for _ in range(3):
                ingest_csv(path, has_time_column=True)
                estimators.estimate_many(panel, configs)
        assert thread.call_count == 1
        assert threading.active_count() <= before + 1

    @pytest.mark.skipif(LONG != "long", reason="long double is not the x87 type")
    def test_no_thread_to_be_had(self, tmp_path, monkeypatch):
        """The calling thread reads every chunk when the helper cannot start."""
        path = self.chunked_file(tmp_path, self.PLACES["helper chunk"], "9007199254740993")
        monkeypatch.setattr(_helper, "_helper_jobs", None)
        fault = RuntimeError("can't start new thread")
        with mock.patch.object(threading.Thread, "start", side_effect=fault) as start:
            readers = self.chunk_readers(path)
        assert start.called
        assert readers == {i: {threading.get_ident()} for i in range(5)}
        assert _helper._helper_jobs is None

    @pytest.mark.skipif(LONG != "long", reason="long double is not the x87 type")
    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_helper_exception_is_raised_by_the_caller(self, tmp_path):
        path = self.chunked_file(tmp_path)
        second_chunk = path.read_text().split("\n")[1 + self.CHUNK].partition(",")[2]
        fromstring = np.fromstring
        readers = set()

        def faulty(text, *args, **kwargs):
            if text.startswith(second_chunk):
                readers.add(threading.current_thread())
                raise RuntimeError("fault in the second chunk")
            return fromstring(text, *args, **kwargs)

        with mock.patch.object(np, "fromstring", side_effect=faulty):
            with pytest.raises(RuntimeError, match="^fault in the second chunk$"):
                ingest_csv(path, has_time_column=True)
        assert readers and threading.main_thread() not in readers

    def test_sets_no_warning_filter(self, tmp_path):
        """The filters are process-wide, so a reader on two threads must not set them."""
        path = self.chunked_file(tmp_path, self.PLACES["helper chunk"], "9007199254740993")
        fault = AssertionError("a warning filter was set")
        filters = list(warnings.filters)
        with mock.patch.object(warnings, "simplefilter", side_effect=fault), \
                mock.patch.object(warnings, "catch_warnings", side_effect=fault):
            outcome, reader = ingest_which(path, has_time_column=True)
        assert reader == LONG
        assert outcome[0] == "ok"
        assert warnings.filters == filters

    def test_probe_turns_the_reader_off_where_fromstring_warns(self, tmp_path, monkeypatch):
        """Older numpy warns at an unreadable cell and returns the cells before it."""
        fromstring = np.fromstring

        def warns(text, *args, **kwargs):
            warnings.warn("string or file could not be read to its end", DeprecationWarning)
            return fromstring(text.partition(",x")[0], *args, **kwargs)

        filters = list(warnings.filters)
        with mock.patch.object(np, "fromstring", side_effect=warns) as probed:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                usable = panel_module._fromstring_raises()
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                assert panel_module._fromstring_raises() is False
        assert usable is False and probed.call_count == 2
        assert warnings.filters == filters
        monkeypatch.setattr(panel_module, "_LONG_READER", usable)
        path = write_csv(tmp_path, f"a,b\n{self.LEAD},2\n3,4\n")
        outcome, reader = ingest_which(path)
        assert reader == "loadtxt"
        assert outcome[0] == "ok"

    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_overflow_in_a_helper_chunk_warns_on_no_thread(self, tmp_path):
        """read sets its own np.errstate on whichever thread runs it: the helper's
        job is queued, with a copy of the caller's context, before the caller
        enters read's np.errstate."""
        row = self.PLACES["helper chunk"]
        path = self.chunked_file(tmp_path, row, "1e999")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with mock.patch.object(panel_module, "_read_long", wraps=panel_module._read_long) as long_reader:
                outcome, reader = ingest_which(path, has_time_column=True)
        assert long_reader.called is (LONG == "long")
        assert reader == "cells"
        assert outcome == ("error", f"{path}: non-finite value at row {row + 2}, column 2")


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark is not part of the first cell, on either reader."""

    @pytest.mark.parametrize("quoted", [False, True])
    @pytest.mark.parametrize("has_header", [False, True])
    @pytest.mark.parametrize("has_time_column", [False, True])
    def test_mark_is_dropped(self, tmp_path, has_header, has_time_column, quoted):
        rows = [["2001-01", "1", "2"], ["2001-02", "3", "4"]]
        if not has_time_column:
            rows = [row[1:] for row in rows]
        if has_header:
            rows.insert(0, ["h"] * len(rows[0]))
        q = '"' if quoted else ""
        text = "".join(",".join(q + cell + q for cell in row) + "\n" for row in rows)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        panel = ingest_csv(marked, has_header=has_header, has_time_column=has_time_column)
        assert panel.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert panel.time_labels == (["2001-01", "2001-02"] if has_time_column else None)


class TestDataPanel:
    def test_requires_2d(self):
        with pytest.raises(ValueError, match="2-d"):
            DataPanel(np.zeros(4))

    def test_minimum_size(self):
        with pytest.raises(ValueError, match="at least 2 x 2"):
            DataPanel(np.zeros((1, 5)))

    def test_nan_marks_a_missing_cell(self):
        values = np.array([[1.0, np.nan], [3.0, 4.0]])
        panel = DataPanel(values)
        assert panel.has_missing
        np.testing.assert_array_equal(panel.missing_mask, [[False, True], [False, False]])
        assert not DataPanel(np.zeros((2, 2))).has_missing
        for bad in (np.inf, -np.inf):
            with pytest.raises(ValueError, match="^non-missing panel cells must be finite$"):
                DataPanel(np.array([[1.0, bad], [3.0, 4.0]]))

    def test_missing_mask_keyword_rejected(self):
        # NaN is the one mark of a missing cell; the panel stores no second copy
        assert [f.name for f in dataclasses.fields(DataPanel)] == ["values", "time_labels"]
        with pytest.raises(TypeError, match="missing_mask"):
            DataPanel(np.zeros((2, 2)), missing_mask=np.zeros((2, 2), dtype=bool))

    def test_label_length_checked(self):
        with pytest.raises(ValueError, match="time_labels"):
            DataPanel(np.zeros((2, 2)), time_labels=["only-one"])


class TestImpute:
    def test_column_mean_of_observed(self):
        values = np.array([[1.0, 10.0], [np.nan, 20.0], [3.0, np.nan]])
        out = impute_column_mean(DataPanel(values))
        np.testing.assert_allclose(out.values, [[1, 10], [2, 20], [3, 15]])
        assert not out.has_missing

    def test_no_missing_is_copy(self, rng):
        panel = DataPanel(rng.standard_normal((4, 3)))
        out = impute_column_mean(panel)
        np.testing.assert_array_equal(out.values, panel.values)
        assert out.values is not panel.values

    def test_all_missing_column_rejected(self):
        values = np.array([[np.nan, 1.0], [np.nan, 2.0]])
        with pytest.raises(ValueError, match="entirely missing"):
            impute_column_mean(DataPanel(values))

    def test_error_names_the_first_entirely_missing_column(self):
        values = np.array([[1.0, np.nan, 5.0, np.nan], [np.nan, np.nan, 6.0, np.nan]])
        with pytest.raises(ValueError, match="column 1 is entirely missing"):
            impute_column_mean(DataPanel(values))

    def test_bytes_match_the_every_column_loop(self, rng):
        for _ in range(20):
            values = rng.standard_t(1.0, size=(40, 12))
            mask = rng.random((40, 12)) < rng.uniform(0.0, 0.5)
            mask[0] = False
            expected = values.copy()
            for j in range(12):
                if mask[:, j].any():
                    expected[mask[:, j], j] = values[~mask[:, j], j].mean()
            values[mask] = np.nan
            out = impute_column_mean(DataPanel(values))
            assert np.array_equal(out.values.view(np.int64), expected.view(np.int64))

    def test_labels_survive(self):
        values = np.array([[1.0, np.nan], [2.0, 4.0]])
        panel = DataPanel(values, time_labels=["a", "b"])
        assert impute_column_mean(panel).time_labels == ["a", "b"]


class TestDoubleDemean:
    def test_four_term_formula(self):
        y = np.array([[1.0, 2.0, 6.0], [4.0, 8.0, 0.0], [7.0, 5.0, 3.0], [2.0, 2.0, 2.0]])
        out = double_demean(DataPanel(y)).values
        T, N = y.shape
        expected = np.empty_like(y)
        for t in range(T):
            for i in range(N):
                expected[t, i] = y[t, i] - y[t].mean() - y[:, i].mean() + y.mean()
        np.testing.assert_allclose(out, expected, atol=1e-13)

    def test_row_then_column_bytes(self, rng):
        # the panel ER, GR and TCR read: the row demean, then its column means off
        y = rng.standard_normal((30, 7)) + 1e3 * rng.standard_normal(7)
        rows = y - y.mean(axis=1, keepdims=True)
        assert double_demean(DataPanel(y)).values.tobytes() == (rows - rows.mean(axis=0)).tobytes()

    def test_rejects_missing(self):
        values = np.array([[1.0, np.nan], [2.0, 4.0]])
        panel = DataPanel(values)
        with pytest.raises(ValueError, match="impute"):
            double_demean(panel)

    @settings(max_examples=25, deadline=None)
    @given(
        T=st.integers(2, 12),
        N=st.integers(2, 12),
        seed=st.integers(0, 2**31),
        scale=st.floats(0.1, 1e6),
    )
    def test_zero_sums_and_idempotence(self, T, N, seed, scale):
        y = scale * np.random.default_rng(seed).standard_normal((T, N))
        out = double_demean(DataPanel(y))
        bound = 1e-10 * max(1.0, np.abs(y).max()) * max(T, N)
        assert np.abs(out.values.sum(axis=0)).max() <= bound
        assert np.abs(out.values.sum(axis=1)).max() <= bound
        again = double_demean(out)
        # idempotent to rounding: a second pass moves no entry by more than
        # 1e-12 of the panel's scale (3.4e-16 measured over 20,000 draws)
        assert np.abs(again.values - out.values).max() <= 1e-12 * max(1.0, np.abs(y).max())

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31), shift=st.floats(-1e4, 1e4))
    def test_constant_shift_removed(self, seed, shift):
        y = np.random.default_rng(seed).standard_normal((6, 5))
        a = double_demean(DataPanel(y)).values
        b = double_demean(DataPanel(y + shift)).values
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_impute_then_demean_pipeline(self):
        values = np.array([[1.0, np.nan, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, np.nan]])
        panel = DataPanel(values)
        out = double_demean(impute_column_mean(panel))
        assert np.all(np.isfinite(out.values))
