import csv
import hashlib
import io
import json
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalfs
from causalfs import ingest
from causalfs.errors import (
    BadRange,
    BadTransformCode,
    DomainError,
    DuplicateDate,
    MalformedCsv,
    OverlappingRanges,
    UnknownSeries,
)
from causalfs.ingest import (
    TCODES,
    Regime,
    RegimeCalendar,
    apply_tcode,
    load_calendar,
    load_prices,
    panel_from_csv,
    panel_to_csv,
    parse_fredmd,
    parse_groups,
    prices_to_returns,
    read_panel,
    to_csv,
    transform_panel,
    write_panel,
)
from causalfs.panel import MonthStamp, MonthlySeries, align_and_shift

from conftest import csv_finite_floats, make_panel, month_range, panel_names

FREDMD = """sasdate,RPI,CPI,SP500
Transform:,1,5,2
1/1/2020,100,2.0,3000
2/1/2020,101,2.1,3050
3/1/2020,102,2.2,2500
4/1/2020,103,2.3,2800
"""

GROUPS = parse_groups("""series,group
RPI,1
CPI,8
SP500,6
""")


class TestParseFredmd:
    def test_codes_read_back(self):
        panel, tcodes, groups = parse_fredmd(FREDMD, GROUPS)
        assert tcodes == {"RPI": 1, "CPI": 5}
        # group map covers every series in the file, dropped ones included
        assert groups == {"RPI": 1, "CPI": 8, "SP500": 6}
        assert panel.dates[0] == MonthStamp(2020, 1)
        for row in ("Transform:, 1 ,5.0,2", "Transform:,1.0,5,2.0"):
            assert parse_fredmd(FREDMD.replace("Transform:,1,5,2", row), GROUPS)[1] == tcodes

    def test_stock_market_group_dropped(self):
        panel, tcodes, _ = parse_fredmd(FREDMD, GROUPS)
        assert "SP500" not in panel.names
        assert "SP500" not in tcodes
        assert panel.names == ("RPI", "CPI")

    def test_unknown_transform_code(self):
        bad = FREDMD.replace("Transform:,1,5,2", "Transform:,1,9,2")
        with pytest.raises(BadTransformCode):
            parse_fredmd(bad, GROUPS)

    @pytest.mark.parametrize("cell", ["2.7", "inf", "-inf"])
    def test_code_not_a_whole_number_rejected_naming_the_series(self, cell):
        bad = FREDMD.replace("Transform:,1,5,2", f"Transform:,1,{cell},2")
        with pytest.raises(BadTransformCode, match=f"transform code '{cell}' for CPI"):
            parse_fredmd(bad, GROUPS)

    def test_repeated_series_rejected_naming_it(self):
        bad = FREDMD.replace("sasdate,RPI,CPI,SP500", "sasdate,RPI,CPI,RPI")
        with pytest.raises(MalformedCsv, match="series 'RPI' appears twice"):
            parse_fredmd(bad, GROUPS)

    @pytest.mark.parametrize("name, message", [
        ("X2;Q", "series 'X2;Q' holds ';'"),
        ("", "blank series name ''"),
        (" ", "blank series name ''"),  # a FRED-MD name is stripped
    ])
    def test_blank_or_semicolon_series_rejected_naming_it(self, name, message):
        # ';' separates the ledger's selected names, so X2;Q would read back as X2 and Q
        bad = FREDMD.replace("sasdate,RPI,CPI,SP500", f"sasdate,RPI,{name},SP500")
        with pytest.raises(MalformedCsv, match=message):
            parse_fredmd(bad, {**GROUPS, name.strip(): 1})

    @pytest.mark.parametrize("row, message", [
        ("A;B,1", "series 'A;B' holds ';'"),
        (" ,1", "blank series name ''"),
    ])
    def test_sidecar_blank_or_semicolon_series_rejected(self, row, message):
        with pytest.raises(MalformedCsv, match=message):
            parse_groups(f"series,group\nX1,1\n{row}\n")

    def test_sidecar_listing_a_series_twice_rejected_naming_it(self):
        with pytest.raises(MalformedCsv, match="series 'X1' appears twice"):
            parse_groups("series,group\nX1,1\nX2,1\nX1,6\n")

    def test_ragged_row(self):
        bad = FREDMD + "5/1/2020,104\n"
        with pytest.raises(MalformedCsv):
            parse_fredmd(bad, GROUPS)

    def test_missing_sidecar_entry(self):
        with pytest.raises(UnknownSeries):
            parse_fredmd(FREDMD, {"RPI": 1, "CPI": 8})

    def test_empty_cells_become_nan(self):
        text = FREDMD.replace("2/1/2020,101,2.1,3050", "2/1/2020,,2.1,3050")
        panel, _, _ = parse_fredmd(text, GROUPS)
        assert math.isnan(panel.values[1, 0])

    @pytest.mark.parametrize("cell", ["inf", "-inf", " Infinity", "1e999"])
    def test_non_finite_cell_rejected_naming_the_row(self, cell):
        text = FREDMD.replace("2/1/2020,101,2.1,3050", f"2/1/2020,{cell},2.1,3050")
        with pytest.raises(MalformedCsv, match="row '2/1/2020': non-finite value"):
            parse_fredmd(text, GROUPS)


    @pytest.mark.parametrize("row, message", [
        ("2/1/2020,101,2.1,3050\n", "month 2020-02 missing between 2020-01 and 2020-03"),
        ("3/1/2020,102,2.2,2500\n", "month 2020-03 missing between 2020-02 and 2020-04"),
    ], ids=["after-first-row", "mid-file"])
    def test_missing_month_rejected_naming_both_months(self, row, message):
        # a code-2 difference across the gap would span two months
        with pytest.raises(MalformedCsv, match=f"^{message}$"):
            parse_fredmd(FREDMD.replace(row, ""), GROUPS)


class TestApplyTcode:
    def test_level_identity(self):
        x = np.array([3.0, 1.0, 4.0])
        np.testing.assert_array_equal(apply_tcode(x, 1), x)

    def test_log_first_difference_analytic(self):
        x = np.array([1.0, math.e, math.e**2])
        np.testing.assert_allclose(apply_tcode(x, 5), [1.0, 1.0], rtol=1e-12)

    def test_code7_matches_two_pass_oracle(self, rng):
        x = rng.uniform(1.0, 5.0, size=10)
        # independent oracle: explicit percent-change pass then difference pass
        pct = np.array([x[i] / x[i - 1] - 1.0 for i in range(1, len(x))])
        oracle = np.array([pct[i] - pct[i - 1] for i in range(1, len(pct))])
        np.testing.assert_allclose(apply_tcode(x, 7), oracle, rtol=1e-12)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            apply_tcode(np.array([1.0, -2.0, 3.0]), 4)

    @given(
        st.integers(1, 7),
        st.integers(0, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_output_length_is_input_minus_order(self, code, extra):
        order, _ = TCODES[code]
        n = order + 1 + extra
        x = np.linspace(1.0, 2.0, n)
        assert len(apply_tcode(x, code)) == n - order

    # hand-written elementwise oracles, one per code: the months the code
    # consumes, and out[i], the transform at the input's position i + order
    ORACLES = {
        1: (0, lambda x, i: x[i]),
        2: (1, lambda x, i: x[i + 1] - x[i]),
        3: (2, lambda x, i: (x[i + 2] - x[i + 1]) - (x[i + 1] - x[i])),
        4: (0, lambda x, i: math.log(x[i])),
        5: (1, lambda x, i: math.log(x[i + 1]) - math.log(x[i])),
        6: (2, lambda x, i: (math.log(x[i + 2]) - math.log(x[i + 1]))
            - (math.log(x[i + 1]) - math.log(x[i]))),
        7: (2, lambda x, i: (x[i + 2] / x[i + 1] - 1.0) - (x[i + 1] / x[i] - 1.0)),
    }

    @pytest.mark.parametrize("code", sorted(ORACLES))
    def test_every_code_matches_its_elementwise_oracle(self, code, rng):
        x = rng.uniform(0.5, 5.0, size=9).tolist()
        order, value = self.ORACLES[code]
        got = apply_tcode(np.array(x), code)
        oracle = [value(x, i) for i in range(len(x) - order)]
        assert len(got) == len(oracle)
        if code in (4, 5, 6):  # numpy's log and math.log may differ in the last place
            np.testing.assert_allclose(got, oracle, rtol=1e-13, atol=1e-13)
        else:
            assert got.tolist() == oracle

    def test_unknown_code_rejected_by_direct_callers(self):
        with pytest.raises(BadTransformCode):
            apply_tcode(np.array([1.0, 2.0, 3.0]), 8)


class TestPrices:
    def test_simple_return_arithmetic(self):
        prices = MonthlySeries(month_range("2020-01", 2), np.array([100.0, 110.0]))
        returns = prices_to_returns(prices)
        np.testing.assert_allclose(returns.values, [10.0])
        assert returns.dates[0] == MonthStamp(2020, 2)

    def test_constant_prices_zero_returns(self):
        prices = MonthlySeries(month_range("2020-01", 5), np.full(5, 42.0))
        np.testing.assert_array_equal(prices_to_returns(prices).values, np.zeros(4))

    def test_random_walk_matches_recompute(self, rng):
        p = np.cumprod(1 + rng.uniform(-0.05, 0.05, 24)) * 100
        prices = MonthlySeries(month_range("2020-01", 24), p)
        got = prices_to_returns(prices).values
        oracle = [100 * (p[i] / p[i - 1] - 1) for i in range(1, 24)]
        np.testing.assert_allclose(got, oracle, rtol=1e-12)

    def test_nonpositive_price(self):
        prices = MonthlySeries(month_range("2020-01", 2), np.array([100.0, 0.0]))
        with pytest.raises(DomainError):
            prices_to_returns(prices)

    @pytest.mark.parametrize("months, message", [
        ((1, 3, 4, 5), "month 2000-02 missing between 2000-01 and 2000-03"),
        ((1, 2, 4, 5), "month 2000-03 missing between 2000-02 and 2000-04"),
    ], ids=["after-first-row", "mid-file"])
    def test_load_prices_missing_month_rejected_naming_both_months(self, months, message):
        # 100 then 121 two months later is a two-month return of 21%, not a monthly one
        rows = "".join(f"2000-{m:02d}-28,{p}\n" for m, p in zip(months, (100, 121, 133.1, 146.41)))
        with pytest.raises(MalformedCsv, match=f"^{message}$"):
            load_prices("date,close\n" + rows)

    def test_load_prices_in_any_row_order(self):
        text = "date,close\n2000-02-28,110\n2000-01-31,100\n"
        assert prices_to_returns(load_prices(text)).values.tolist() == [pytest.approx(10.0)]

    def test_load_prices_duplicate_month(self):
        text = "date,close\n2020-01-15,100\n2020-01-31,101\n"
        with pytest.raises(DuplicateDate):
            load_prices(text)


class TestCalendar:
    def test_single_range(self):
        cal = load_calendar("2007-07..2009-06\n")
        assert cal.classify(MonthStamp(2008, 9)) is Regime.CRISIS
        assert cal.classify(MonthStamp(2010, 1)) is Regime.NORMAL

    def test_empty_file_all_normal(self):
        cal = load_calendar("# nothing here\n\n")
        assert cal.classify(MonthStamp(2008, 9)) is Regime.NORMAL

    def test_adjacent_transient_shocks_leave_gap_normal(self):
        cal = load_calendar("2011-03..2011-03\n2011-08..2011-08\n")
        assert cal.classify(MonthStamp(2011, 3)) is Regime.CRISIS
        assert cal.classify(MonthStamp(2011, 5)) is Regime.NORMAL
        assert cal.classify(MonthStamp(2011, 8)) is Regime.CRISIS

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingRanges):
            load_calendar("2007-07..2009-06\n2009-06..2009-12\n")

    def test_backwards_range_rejected(self):
        with pytest.raises(BadRange):
            load_calendar("2009-06..2007-07\n")

    def test_classify_total_and_deterministic(self):
        cal = load_calendar("2007-07..2009-06\n2020-02..2021-06\n")
        months = [MonthStamp(2000, 1).plus(i) for i in range(300)]
        a = [cal.classify(m) for m in months]
        b = [cal.classify(m) for m in months]
        assert a == b
        assert all(r in (Regime.NORMAL, Regime.CRISIS) for r in a)


    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=4),
           st.lists(st.integers(-24, 200), max_size=60))
    def test_split_partitions_positions_and_agrees_with_classify(self, spans, offsets):
        # disjoint crisis ranges, each `gap` months after the last, over any dates
        base, cursor, ranges = MonthStamp(2000, 1), 0, []
        for gap, length in spans:
            start = cursor + gap
            ranges.append((base.plus(start), base.plus(start + length)))
            cursor = start + length + 1
        cal = RegimeCalendar(tuple(ranges))
        dates = [base.plus(k) for k in offsets]
        split = cal.split(dates)
        assert list(split) == [Regime.NORMAL, Regime.CRISIS]
        assert sorted(np.concatenate(list(split.values())).tolist()) == list(range(len(dates)))
        for regime, rows in split.items():
            assert rows.dtype.kind == "i" and (np.diff(rows) > 0).all()
            assert all(cal.classify(dates[i]) is regime for i in rows.tolist())


class TestPipeline:
    def test_parse_apply_align_never_emits_nan(self):
        panel, tcodes, _ = parse_fredmd(FREDMD, GROUPS)
        transformed = transform_panel(panel, tcodes)
        prices = MonthlySeries(
            month_range("2020-01", 4), np.array([100.0, 102, 99, 104])
        )
        returns = prices_to_returns(prices)
        aligned = align_and_shift(returns, transformed, shift_months=1)
        assert not np.isnan(aligned.target).any()
        assert not np.isnan(aligned.features).any()
        assert len(aligned) > 0

    def test_panel_csv_round_trip(self, rng, tmp_path):
        # a panel_meta.json that still holds the group tags and percent flag
        # of older outputs loads: keys other than target_name are ignored
        panel = make_panel(rng.normal(size=7), rng.normal(size=(7, 3)))
        (tmp_path / "panel.csv").write_text(panel_to_csv(panel))
        (tmp_path / "panel_meta.json").write_text(json.dumps(
            {"feature_groups": [1, 8, 2], "returns_x100": True, "target_name": "Y"}))
        back = read_panel(tmp_path / "panel.csv", tmp_path / "panel_meta.json")
        assert back.dates == panel.dates
        np.testing.assert_array_equal(back.target, panel.target)
        np.testing.assert_array_equal(back.features, panel.features)
        assert back.feature_names == panel.feature_names

    @pytest.mark.parametrize("row", ["2000-02,inf,1.0", "2000-02,1.0,-inf", "2000-02,1.0,nan"])
    def test_panel_csv_non_finite_cell_rejected_naming_the_row(self, row):
        text = f"month,Y,X1\n2000-01,1.0,2.0\n{row}\n"
        with pytest.raises(MalformedCsv, match="row '2000-02': non-finite value"):
            panel_from_csv(text)

    def test_panel_csv_repeated_column_rejected_naming_it(self):
        with pytest.raises(MalformedCsv, match="column 'X1' appears twice"):
            panel_from_csv("month,Y,X1,X2,X1\n2000-01,1.0,2.0,3.0,4.0\n")

    @pytest.mark.parametrize("header, message", [
        ("month,Y, ,X2", "blank column name ' '"),
        ("month,Y,,X2", "blank column name ''"),
        ("month,Y,X2;Q,X3", "column 'X2;Q' holds ';'"),
    ])
    def test_panel_csv_blank_or_semicolon_column_rejected(self, header, message):
        with pytest.raises(MalformedCsv, match=message):
            panel_from_csv(f"{header}\n2000-01,1.0,2.0,3.0\n")

    @pytest.mark.parametrize("header, meta", [
        ("month,X1,X1,X2", None),
        ("month,Y,X1,X2", {"target_name": "X2"}),
    ])
    def test_panel_csv_target_named_like_a_feature_rejected(self, header, meta):
        with pytest.raises(MalformedCsv, match="target 'X[12]' is also a feature column"):
            panel_from_csv(f"{header}\n2000-01,1.0,2.0,3.0\n", meta)

    @pytest.mark.parametrize("header, meta, message", [
        ("month,,X1,X2", None, "blank target name ''"),
        ("month,Y,X1,X2", {"target_name": " "}, "blank target name ' '"),
        ("month,Y,X1,X2", {"target_name": "A;B"}, "target 'A;B' holds ';'"),
    ])
    def test_panel_csv_blank_or_semicolon_target_rejected(self, header, meta, message):
        # the target follows the same name rule as the feature columns
        with pytest.raises(MalformedCsv, match=message):
            panel_from_csv(f"{header}\n2000-01,1.0,2.0,3.0\n", meta)

    @pytest.mark.parametrize("text", ["", "month,Y,X1\n", "month\n2000-01\n", "date,Y\n2000-01,1.0\n"])
    def test_panel_csv_without_header_or_rows_rejected(self, text):
        with pytest.raises(MalformedCsv, match="header and a data row"):
            panel_from_csv(text)

    @given(
        st.integers(1900 * 12, 2100 * 12),
        st.integers(1, 8),
        st.lists(panel_names, min_size=1, max_size=4, unique=True),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_panel_csv_round_trip_is_exact(self, start, n, names, data):
        values = np.array(
            data.draw(st.lists(csv_finite_floats, min_size=n * (len(names) + 1),
                               max_size=n * (len(names) + 1)))
        ).reshape(n, len(names) + 1)
        first = MonthStamp(start // 12, start % 12 + 1)
        panel = make_panel(values[:, 0], values[:, 1:], names, start=str(first))
        back = panel_from_csv(panel_to_csv(panel), {"target_name": "Y"})
        assert back.dates == panel.dates
        assert back.feature_names == panel.feature_names
        np.testing.assert_array_equal(back.target.view(np.int64), panel.target.view(np.int64))
        np.testing.assert_array_equal(
            back.features.view(np.int64), panel.features.view(np.int64)
        )

    def test_panel_csv_name_with_bare_cr_round_trips(self, rng):
        # unquoted, the reader would end the header row at the CR
        panel = make_panel(rng.normal(size=4), rng.normal(size=(4, 2)), ("A\rB", "C"))
        back = panel_from_csv(panel_to_csv(panel))
        assert back.feature_names == panel.feature_names
        np.testing.assert_array_equal(back.features, panel.features)


def _float_oracle(text):
    """The header, months and numbers of a panel CSV read row by row with
    the csv module and ``float``, skipping blank and whitespace-only rows."""
    rows = [row for row in csv.reader(io.StringIO(text)) if any(c.strip() for c in row)]
    numbers = np.array([[float(c) for c in row[1:]] for row in rows[1:]])
    return rows[0], tuple(MonthStamp.parse(row[0]) for row in rows[1:]), numbers


# a number as a data cell: as written, padded with spaces or tabs, or quoted
_number_cells = st.tuples(
    csv_finite_floats,
    st.sampled_from([repr, "{:.6e}".format, "{:+.3f}".format]),
    st.sampled_from(["{}", " {}", "{} ", "\t{} ", '"{}"', '" {} "']),
).map(lambda t: t[2].format(t[1](t[0])))
_line_ends = st.sampled_from(["\n", "\r\n"])
_blank_lines = st.lists(st.sampled_from(["", " ", "\t", "  \t "]), max_size=2)


_NOT_A_FLOAT = "row '2000-01': could not convert string to float: "


def _header_error(text):
    """The MalformedCsv message due for the header record of ``text`` and
    the text after it, as the csv module reads them from a stream; None
    where they fit the panel layout."""
    stream = io.StringIO(text)
    try:
        header = next((row for row in csv.reader(stream) if any(c.strip() for c in row)), [])
    except csv.Error as exc:
        return str(exc)
    if not stream.read().strip() or len(header) < 2 or header[0].strip() != "month":
        return ingest._PANEL_LAYOUT
    return None


class TestPanelReader:
    @given(
        st.lists(panel_names, min_size=1, max_size=4, unique=True),
        st.integers(1, 6),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_a_per_cell_float_oracle(self, names, n, data):
        # CRLF or LF line ends, blank and whitespace-only lines, padded and
        # quoted numbers, and names holding a quoted comma, quote, CR or LF
        header = to_csv(["month", "Y", *names], [])[:-1]
        text = header + data.draw(_line_ends)
        for month in month_range("1999-11", n):
            for blank in data.draw(_blank_lines):
                text += blank + data.draw(_line_ends)
            cells = data.draw(st.lists(_number_cells, min_size=len(names) + 1,
                                       max_size=len(names) + 1))
            text += ",".join([str(month), *cells]) + data.draw(_line_ends)
        header_row, months, numbers = _float_oracle(text)
        panel = panel_from_csv(text)
        assert (panel.target_name, panel.feature_names) == (header_row[1], tuple(names))
        assert panel.dates == months
        np.testing.assert_array_equal(panel.target.view(np.int64), numbers[:, 0].view(np.int64))
        np.testing.assert_array_equal(panel.features.view(np.int64), numbers[:, 1:].view(np.int64))

    @pytest.mark.parametrize("text", [
        "\n \n\t,\nmonth,Y,X1\n2000-01,1.0,2.0\n",
        'month,Y,"X\n1",X2\n2000-01,1.0,2.0,3.0\n',
        'month,Y,"X,1"\n2000-01,1.0,2.0\n',
        'month,"Y""",X1\n\n2000-01,1.0,2.0\n',
        'month,Y,"X\r1"\n2000-01,1.0,2.0\n',
        "month,Y,X1\n2000-01,1.0,2.0\n2000-02,3.0,4.0",
        "month,Y,X1\n",
        "month,Y,X1",
        "",
        " \n\t\n  ",
        "date,Y\n2000-01,1.0\n",
        "month,Y,X\r1\n2000-01,1.0,2.0\n",
    ], ids=["blank-lines-first", "quoted-lf", "quoted-comma", "quoted-quote", "quoted-cr",
            "no-trailing-newline", "header-only", "header-only-no-newline", "empty",
            "whitespace-only", "bad-first-cell", "bare-cr-in-header"])
    def test_header_record_is_read_as_from_a_stream(self, text):
        error = _header_error(text)
        if error is not None:
            with pytest.raises(MalformedCsv) as exc:
                panel_from_csv(text)
            assert str(exc.value) == error
            return
        header, months, numbers = _float_oracle(text)
        panel = panel_from_csv(text)
        assert (panel.names, panel.dates) == (tuple(header[1:]), months)
        np.testing.assert_array_equal(panel.data, numbers)

    def test_written_panel_is_read_in_one_pass(self, rng):
        panel = make_panel(rng.normal(size=12), rng.normal(size=(12, 5)))
        with mock.patch("causalfs.ingest.csv_rows", side_effect=AssertionError("read per row")):
            back = panel_from_csv(panel_to_csv(panel))
        np.testing.assert_array_equal(back.features, panel.features)

    @pytest.mark.parametrize("rows, message", [
        ("2000-01,1.0#x,2.0", _NOT_A_FLOAT + "'1.0#x'"),
        ("2000-01,1.0,2.0,3.0", "ragged panel row: ['2000-01', '1.0', '2.0']..."),
        ("2000-01,1.0", "ragged panel row: ['2000-01', '1.0']..."),
        ("2000-01,1.0,", _NOT_A_FLOAT + "''"),
        # numpy reads 0x1C-0x1F as space around a number, float does not
        ("2000-01,\x1c1.0,2.0", _NOT_A_FLOAT + r"'\x1c1.0'"),
        ("2000-01,1.0\x1f,2.0", _NOT_A_FLOAT + r"'1.0\x1f'"),
        ("2000-01\r,1.0,2.0", "new-line character seen in unquoted field"),
        ("2000-01,1" + "0" * 200_000 + ",2.0", "field larger than field limit (131072)"),
        ('2000-01,"1\n2000-02",2.0', _NOT_A_FLOAT + r"'1\n2000-02'"),  # a quote spans lines
    ])
    def test_malformed_rows_raise_the_per_row_message(self, rows, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MalformedCsv) as exc:
                panel_from_csv(f"month,Y,X1\n{rows}\n")
        assert str(exc.value).startswith(message)

    def test_empty_last_cell_raises_without_a_warning(self):
        # loadtxt would skip the empty remainder as a blank line, and warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MalformedCsv, match="row '2000-01': could not convert"):
                panel_from_csv("month,Y\n2000-01,\n")

    def test_underscored_number_reads_as_float_does(self):
        panel = panel_from_csv("month,Y,X1\n2000-01,1_000,2.0\n")
        assert panel.target.tolist() == [1000.0]


def _written(tmp_path, panel):
    """``panel`` as ``write_panel`` leaves it: the CSV, meta and npy paths."""
    paths = tmp_path / "panel.csv", tmp_path / "panel_meta.json", tmp_path / "panel.npy"
    write_panel(panel, *paths[:2])
    return paths


def _parses(expected: bool):
    """Asserts, on exit, whether the CSV's data rows were parsed."""
    return mock.patch("causalfs.ingest._loadtxt_rows", **(
        {"wraps": ingest._loadtxt_rows} if expected
        else {"side_effect": AssertionError("parsed the CSV")}))


class TestBinaryPanelCopy:
    @pytest.fixture
    def panel(self, rng):
        # awkward numbers and names holding a quoted comma, quote and LF
        data = rng.normal(size=(30, 4)) * np.logspace(-300, 300, 4)
        data[0] = [-0.0, 1 / 3, 5e-324, -1.7976931348623157e308]
        return make_panel(data[:, 0], data[:, 1:], names=("X,1", 'X"2', "X\n3"),
                          start="1999-11")

    def test_binary_and_csv_paths_read_bit_identical_panels(self, tmp_path, panel):
        csv_path, meta_path, _ = _written(tmp_path, panel)
        with _parses(False):
            binary = read_panel(csv_path, meta_path)
        parsed = panel_from_csv(csv_path.read_text(), {"target_name": "Y"})
        for back in (binary, parsed):
            assert (back.dates, back.names) == (panel.dates, panel.names)
            np.testing.assert_array_equal(back.data.view(np.int64), panel.data.view(np.int64))
        assert not binary.data.flags.writeable

    def test_edited_csv_cell_is_read(self, tmp_path, panel):
        csv_path, meta_path, _ = _written(tmp_path, panel)
        lines = csv_path.read_text().split("\n")
        first = lines[2].split(",")  # the header spans two lines
        lines[2] = ",".join([first[0], "42.0", *first[2:]])
        csv_path.write_text("\n".join(lines))
        with _parses(True) as parse:
            back = read_panel(csv_path, meta_path)
        assert parse.called and back.target[0] == 42.0
        np.testing.assert_array_equal(back.data[1:], panel.data[1:])

    @pytest.mark.parametrize("damage", ["deleted", "truncated", "foreign", "not-npy"])
    def test_damaged_binary_copy_falls_back_to_the_csv(self, tmp_path, panel, damage):
        csv_path, meta_path, npy_path = _written(tmp_path, panel)
        if damage == "deleted":
            npy_path.unlink()
        elif damage == "truncated":
            npy_path.write_bytes(npy_path.read_bytes()[:-8])
        elif damage == "foreign":  # same shape, other values
            np.save(npy_path, panel.data + 1.0, allow_pickle=False)
        else:  # a meta file whose digest matches bytes np.save did not write
            npy_path.write_bytes(b"not an array")
            meta = json.loads(meta_path.read_text())
            meta["npy_sha256"] = hashlib.sha256(b"not an array").hexdigest()
            meta_path.write_text(json.dumps(meta))
        with _parses(True) as parse:
            back = read_panel(csv_path, meta_path)
        assert parse.called
        np.testing.assert_array_equal(back.data, panel.data)

    def test_meta_with_only_target_name_reads_the_csv(self, tmp_path, panel):
        csv_path, meta_path, _ = _written(tmp_path, panel)
        meta_path.write_text('{"target_name": "R"}')
        with _parses(True) as parse:
            back = read_panel(csv_path, meta_path)
        assert parse.called and back.names == ("R", *panel.feature_names)
        np.testing.assert_array_equal(back.data, panel.data)

    def test_meta_target_named_like_a_feature_rejected(self, tmp_path, panel):
        csv_path, meta_path, _ = _written(tmp_path, panel)
        meta = json.loads(meta_path.read_text())
        meta_path.write_text(json.dumps({**meta, "target_name": "X,1"}))
        with pytest.raises(MalformedCsv, match=f"{csv_path}: target 'X,1' is also a feature"):
            read_panel(csv_path, meta_path)


# cells of every kind the commands write; a text cell with a CR holds
# something else the standard writer quotes for, as it leaves a bare CR
# unquoted under a "\n" line end
_csv_cells = st.one_of(
    st.none(),
    st.floats(),
    st.integers(),
    st.text(st.sampled_from(list('ab ,"\r\n\t\u00e9'))).filter(
        lambda t: "\r" not in t or any(c in t for c in ',"\n')),
)
_csv_rows = st.lists(_csv_cells, max_size=4)


@given(_csv_rows, st.lists(_csv_rows, max_size=4))
def test_to_csv_writes_the_standard_writers_bytes(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    assert to_csv(header, rows) == buf.getvalue()


def test_to_csv_is_the_only_csv_writer():
    # every CSV the package writes goes through ingest.to_csv's one rule
    src = Path(causalfs.__file__).resolve().parent
    users = [str(p.relative_to(src)) for p in sorted(src.rglob("*.py"))
             if "csv.writer" in p.read_text()]
    assert users == []
