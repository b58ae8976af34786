import ast
import dataclasses
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalfs
from causalfs import backtest
from causalfs.errors import (
    DuplicateDate,
    InsufficientHistory,
    NoOverlap,
    NonContiguous,
)
from causalfs.panel import (
    AlignedPanel,
    MonthStamp,
    MonthlyPanel,
    MonthlySeries,
    align_and_shift,
    build_design,
    design_columns,
    first_gap,
    stack_lags,
)
from causalfs.numerics import subset_gram
from causalfs.selectors import varlingam
from causalfs.synthlab import SvarSpec, generate_svar

from conftest import make_panel, month_range


class TestMonthStamp:
    def test_successor_rolls_year(self):
        assert MonthStamp(2019, 12).plus(1) == MonthStamp(2020, 1)
        assert MonthStamp(2020, 5).plus(1) == MonthStamp(2020, 6)

    def test_total_order(self):
        assert MonthStamp(2019, 12) < MonthStamp(2020, 1) < MonthStamp(2020, 2)

    def test_parse_round_trip(self):
        assert MonthStamp.parse("2007-07") == MonthStamp(2007, 7)
        assert str(MonthStamp(2007, 7)) == "2007-07"

    def test_bad_month_rejected(self):
        with pytest.raises(ValueError):
            MonthStamp(2020, 13)

    @given(st.integers(1900, 2100), st.integers(1, 12), st.integers(-500, 500))
    def test_plus_is_index_arithmetic(self, year, month, k):
        m = MonthStamp(year, month)
        assert m.plus(k).index() == m.index() + k


def series(start, values):
    return MonthlySeries(month_range(start, len(values)), np.asarray(values, float))


def panel_of(start, matrix, names):
    matrix = np.asarray(matrix, dtype=float)
    return MonthlyPanel(month_range(start, matrix.shape[0]), matrix, tuple(names))


class TestAlignAndShift:
    def test_shift_forces_exact_pairing(self):
        target = series("2020-01", np.arange(12, dtype=float))
        features = panel_of("2019-12", np.arange(12, dtype=float)[:, None], ["F"])
        panel = align_and_shift(target, features, shift_months=1)
        assert len(panel) == 12
        # feature row originally stamped 2019-12 pairs with target 2020-01
        assert panel.dates[0] == MonthStamp(2020, 1)
        assert panel.features[0, 0] == 0.0
        assert panel.target[0] == 0.0

    def test_zero_shift_identity(self):
        target = series("2020-01", [1.0, 2.0, 3.0])
        features = panel_of("2020-01", [[4.0], [5.0], [6.0]], ["F"])
        panel = align_and_shift(target, features, shift_months=0)
        np.testing.assert_array_equal(panel.target, [1, 2, 3])
        np.testing.assert_array_equal(panel.features[:, 0], [4, 5, 6])

    def test_join_matches_brute_force_oracle(self):
        # 6-month toy: brute-force dict join as the independent oracle;
        # NaN at the edges so the surviving intersection stays contiguous
        tgt_dates = month_range("2020-01", 6)
        target = MonthlySeries(tgt_dates, np.array([np.nan, 2, 3, 4, 5, 6.0]))
        feat_dates = month_range("2019-11", 6)
        values = np.column_stack([np.arange(6.0), np.arange(6.0) * 10])
        values[5, 1] = np.nan  # restamped 2020-06, drops the last month
        features = MonthlyPanel(feat_dates, values, ("A", "B"))
        shift = 2

        oracle = {}
        fmap = {d.plus(shift): i for i, d in enumerate(feat_dates)}
        for i, d in enumerate(tgt_dates):
            if d in fmap:
                trow, frow = target.values[i], values[fmap[d]]
                if not (np.isnan(trow) or np.isnan(frow).any()):
                    oracle[d] = (trow, tuple(frow))
        panel = align_and_shift(target, features, shift_months=shift)
        assert list(panel.dates) == sorted(oracle)
        for i, d in enumerate(panel.dates):
            assert panel.target[i] == oracle[d][0]
            assert tuple(panel.features[i]) == oracle[d][1]

    def test_empty_intersection_raises(self):
        target = series("2020-01", [1.0, 2.0])
        features = panel_of("2010-01", [[1.0], [2.0]], ["F"])
        with pytest.raises(NoOverlap):
            align_and_shift(target, features, shift_months=0)

    def test_duplicate_month_rejected(self):
        dates = (MonthStamp(2020, 1), MonthStamp(2020, 1))
        with pytest.raises(DuplicateDate):
            MonthlySeries(dates, np.array([1.0, 2.0]))

    def test_interior_gap_rejected(self):
        target = series("2020-01", [1.0, np.nan, 3.0])
        features = panel_of("2020-01", [[1.0], [2.0], [3.0]], ["F"])
        with pytest.raises(NonContiguous):
            align_and_shift(target, features, shift_months=0)

    def test_idempotent_in_dates_at_zero_shift(self):
        panel = make_panel([1.0, 2, 3, 4], np.arange(8.0).reshape(4, 2))
        target = MonthlySeries(panel.dates, panel.target)
        features = MonthlyPanel(panel.dates, panel.features, panel.feature_names)
        once = align_and_shift(target, features, 0)
        twice = align_and_shift(
            MonthlySeries(once.dates, once.target),
            MonthlyPanel(once.dates, once.features, once.feature_names),
            0,
        )
        assert once.dates == twice.dates
        np.testing.assert_array_equal(once.features, twice.features)


class TestBuildDesign:
    def test_row_and_column_counts(self):
        panel = make_panel(np.arange(5.0), np.arange(5.0))
        design = build_design(panel, p=1)
        assert design.X.shape == (4, 2)
        assert design.columns[0] == ("Y", 1)

    def test_width_formula(self):
        panel = make_panel(np.arange(10.0), np.arange(30.0).reshape(10, 3))
        design = build_design(panel, p=2)
        assert design.X.shape[1] == 1 + 2 * 3

    def test_lag_cells_match_index_arithmetic(self):
        # X_t = t exactly, so the (X, lag 2) cell at row for date t equals t-2
        t = np.arange(12.0)
        panel = make_panel(100 + t, t)
        design = build_design(panel, p=2)
        col = design.columns.index(("X1", 2))
        for i, date in enumerate(design.dates):
            row_t = date.index() - panel.dates[0].index()
            assert design.X[i, col] == row_t - 2

    def test_insufficient_history(self):
        panel = make_panel([1.0, 2, 3], [[1.0], [2], [3]])
        with pytest.raises(InsufficientHistory):
            build_design(panel, p=2)

    def test_no_lookahead_by_provenance_scan(self):
        rng = np.random.default_rng(0)
        panel = make_panel(rng.normal(size=15), rng.normal(size=(15, 3)))
        design = build_design(panel, p=2)
        by_date = {d: i for i, d in enumerate(panel.dates)}
        for i, date in enumerate(design.dates):
            row = by_date[date]
            for j, (name, lag) in enumerate(design.columns):
                src_row = row - lag
                assert src_row < row  # strictly earlier than the target date
                if name == panel.target_name:
                    assert design.X[i, j] == panel.target[src_row]
                else:
                    k = panel.feature_names.index(name)
                    assert design.X[i, j] == panel.features[src_row, k]

    def test_blocks_group_each_features_lags(self):
        rng = np.random.default_rng(1)
        panel = make_panel(rng.normal(size=12), rng.normal(size=(12, 3)))
        design = build_design(panel, p=2)
        assert design.blocks == {"X1": (1, 2), "X2": (3, 4), "X3": (5, 6)}
        assert design.feature_names == ("X1", "X2", "X3")
        assert design.feature_column_indices(["X3", "X1"]) == [1, 2, 5, 6]

    def test_layout_is_design_links(self):
        # the target at lag 1, then each feature's lags as one block, as
        # columns of stack_lags over [Y, X1, X2, X3] (lag tau, variable j at 4 * (tau - 1) + j)
        assert design_columns(4, 2) == [0, 1, 5, 2, 6, 3, 7]
        assert design_columns(3, 1) == [0, 1, 2]
        panel = make_panel(np.zeros(12), np.zeros((12, 3)))
        assert build_design(panel, p=2).columns == (
            ("Y", 1), ("X1", 1), ("X1", 2), ("X2", 1), ("X2", 2), ("X3", 1), ("X3", 2))

    @given(st.integers(2, 60), st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_row_count_always_T_minus_p(self, extra, p, d):
        T = p + 1 + extra
        rng = np.random.default_rng(extra * 13 + p)
        panel = make_panel(rng.normal(size=T), rng.normal(size=(T, d)))
        assert build_design(panel, p).X.shape[0] == T - p


class TestStackLags:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_equals_lag_rows_over_lag_major_links(self, p):
        data = np.random.default_rng(p).normal(size=(40, 5))
        current, lagged = stack_lags(data, p)
        assert current.shape == (40 - p, 5) and lagged.shape == (40 - p, 5 * p)
        for i, t in enumerate(range(p, 40)):
            for j in range(5):
                assert current[i, j] == data[t, j]
                for tau in range(1, p + 1):
                    assert lagged[i, (tau - 1) * 5 + j] == data[t - tau, j]

    @pytest.mark.parametrize("p", [0, -1])
    def test_lag_order_below_one_rejected(self, p):
        with pytest.raises(ValueError, match="p must be >= 1"):
            stack_lags(np.zeros((6, 2)), p)

    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_no_row_past_the_lags_rejected(self, p):
        # p = len, len + 1, 2 len - 1 and 2 len: a slice stop below 0 would wrap
        with pytest.raises(InsufficientHistory, match=f"p={p} needs more than {p} rows, have 3"):
            stack_lags(np.zeros((3, 2)), p)


class TestAlignedPanelInvariants:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            make_panel([1.0, np.nan], [[1.0], [2.0]])

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_rejects_inf(self, value):
        with pytest.raises(ValueError, match="inf forbidden"):
            make_panel([1.0, 2.0], [[1.0], [value]])
        with pytest.raises(ValueError, match="inf forbidden"):
            make_panel([value, 2.0], [[1.0], [2.0]])

    def test_immutable_arrays(self):
        panel = make_panel([1.0, 2.0], [[1.0], [2.0]])
        with pytest.raises(ValueError):
            panel.target[0] = 5.0

    def test_head_window(self):
        panel = make_panel(np.arange(6.0), np.arange(6.0))
        head = panel.head(4)
        assert len(head) == 4
        assert head.dates[-1] == panel.dates[3]

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_head_equals_checked_constructor(self, n):
        rng = np.random.default_rng(n)
        panel = AlignedPanel(month_range("2001-11", 7),
                             np.column_stack([rng.normal(size=7), rng.normal(size=(7, 3))]),
                             ("R", "A", "B", "C"))
        head = panel.head(n)
        checked = AlignedPanel(panel.dates[:n], panel.data[:n], panel.names)
        for field in dataclasses.fields(AlignedPanel):
            got, want = getattr(head, field.name), getattr(checked, field.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
                assert not got.flags.writeable
                with pytest.raises(ValueError):
                    got.setflags(write=True)
            else:
                assert got == want
        assert len(panel) == 7  # the parent panel is untouched

    @pytest.mark.parametrize("n", [0, -1, 7])
    def test_head_out_of_range_rejected(self, n):
        panel = make_panel(np.arange(6.0), np.arange(6.0))
        with pytest.raises(ValueError, match="head"):
            panel.head(n)

    def test_december_to_january_is_contiguous(self):
        dates = month_range("2019-11", 4)
        assert [str(d) for d in dates] == ["2019-11", "2019-12", "2020-01", "2020-02"]
        assert make_panel(np.arange(4.0), np.arange(4.0), start="2019-11").dates == dates

    @pytest.mark.parametrize("dates, message", [
        ([(2019, 11), (2019, 12), (2020, 2)], "gap or disorder between 2019-12 and 2020-02"),
        ([(2019, 12), (2021, 1)], "gap or disorder between 2019-12 and 2021-01"),
        ([(2020, 1), (2019, 12)], "gap or disorder between 2020-01 and 2019-12"),
        ([(2020, 3), (2020, 4), (2020, 3)], "gap or disorder between 2020-04 and 2020-03"),
        ([(2020, 3), (2020, 3)], "gap or disorder between 2020-03 and 2020-03"),
    ], ids=["gap-across-year", "year-skipped", "disorder-across-year", "disorder", "repeat"])
    def test_gap_or_disorder_rejected(self, dates, message):
        n = len(dates)
        with pytest.raises(NonContiguous) as exc:
            AlignedPanel(tuple(MonthStamp(*d) for d in dates), np.zeros((n, 2)), ("Y", "X1"))
        assert str(exc.value) == message


class TestOneMonthRule:
    @pytest.mark.parametrize("months, gap", [
        ((), None),
        (("2020-01",), None),
        (("2019-11", "2019-12", "2020-01"), None),
        (("2019-12", "2020-02"), 0),
        (("2020-01", "2020-02", "2020-02", "2020-04"), 1),
        (("2020-01", "2020-02", "2020-03", "2020-01"), 2),
    ], ids=["empty", "one", "across-year", "skip", "first-of-two", "backwards"])
    def test_first_gap(self, months, gap):
        assert first_gap([MonthStamp.parse(m) for m in months]) == gap

    @staticmethod
    def month_step_sites(tree):
        """The innermost function around each (in)equality of a value with
        one more than another (``b != a + 1``, ``b == a.plus(1)``,
        ``b - a != 1``): the shape of a check that one month follows another."""
        def one(node):
            return isinstance(node, ast.Constant) and node.value == 1

        def step(side, other):
            if isinstance(side, ast.BinOp) and isinstance(side.op, ast.Add):
                return one(side.left) or one(side.right)
            if isinstance(side, ast.Call) and getattr(side.func, "attr", None) == "plus":
                return len(side.args) == 1 and one(side.args[0])
            return isinstance(side, ast.BinOp) and isinstance(side.op, ast.Sub) and one(other)

        sites = []

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                where = node.name
            if isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
                left, right = node.left, node.comparators[0]
                if step(left, right) or step(right, left):
                    sites.append(where)
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(tree, "<module>")
        return sites

    def test_one_function_compares_adjacent_months(self):
        # panels, input files and ledgers check their dates through first_gap
        root = Path(causalfs.__file__).parent
        sites = [(str(path.relative_to(root)), where) for path in sorted(root.rglob("*.py"))
                 for where in self.month_step_sites(ast.parse(path.read_text()))]
        assert sites == [("panel.py", "first_gap")]

    def test_scan_finds_the_old_copies(self):
        old = """
class AlignedPanel:
    def __post_init__(self):
        for i, (a, b) in enumerate(zip(months, months[1:])):
            if b != a + 1:
                raise NonContiguous

def _consecutive(series):
    for a, b in zip(series.dates, series.dates[1:]):
        if b.index() != a.index() + 1:
            raise MalformedCsv

def ledger_check(dates):
    return all(b == a.plus(1) for a, b in zip(dates, dates[1:])) or 1 == b - a
"""
        assert self.month_step_sites(ast.parse(old)) == [
            "__post_init__", "_consecutive", "ledger_check", "ledger_check"]


class TestOneBlock:
    """The panel stores [target | features] once; readers use that block."""

    def test_target_and_features_are_read_only_views_of_data(self, rng):
        panel = make_panel(rng.normal(size=6), rng.normal(size=(6, 3)))
        assert panel.data.shape == (6, 4) and panel.names == ("Y", "X1", "X2", "X3")
        for view in (panel.target, panel.features):
            assert np.shares_memory(view, panel.data) and not view.flags.writeable
        np.testing.assert_array_equal(panel.target, panel.data[:, 0])
        np.testing.assert_array_equal(panel.features, panel.data[:, 1:])
        assert (panel.target_name, panel.feature_names, panel.n_features) == (
            "Y", ("X1", "X2", "X3"), 3)

    @pytest.mark.parametrize("p", [1, 2])
    def test_design_X_and_y_are_read_only_views_of_the_engine_block(self, rng, p):
        panel = make_panel(rng.normal(size=8), rng.normal(size=(8, 3)))
        design = build_design(panel, p)
        Z = design.engine.Z
        assert Z.shape == (8 - p, 1 + len(design.columns) + 1) and not Z.flags.writeable
        for view in (design.X, design.y):
            assert np.shares_memory(view, Z) and not view.flags.writeable
        np.testing.assert_array_equal(Z[:, 0], 1.0)
        np.testing.assert_array_equal(design.X, Z[:, 1:-1])
        np.testing.assert_array_equal(design.y, panel.target[p:])

    def test_head_shares_the_parent_block(self, rng):
        panel = make_panel(rng.normal(size=6), rng.normal(size=(6, 2)))
        head = panel.head(4)
        assert np.shares_memory(head.data, panel.data) and head.names is panel.names
        assert np.shares_memory(head.features, panel.data)

    def test_constructor_copies_its_input(self):
        data = np.arange(6.0).reshape(3, 2)
        panel = AlignedPanel(month_range("2000-01", 3), data, ("Y", "X1"))
        data[0, 0] = 99.0
        assert panel.data[0, 0] == 0.0 and panel.data.flags.c_contiguous

    @pytest.mark.parametrize("names", [("Y", "X1", "X1"), ("X1", "X1", "X2")],
                             ids=["repeated-feature", "target-named-like-a-feature"])
    def test_repeated_name_rejected(self, names):
        with pytest.raises(ValueError, match="names must be unique"):
            AlignedPanel(month_range("2000-01", 2), np.zeros((2, 3)), names)

    def test_no_module_but_panel_stacks_the_target_beside_the_features(self):
        # an array stack reading .target or .features, or (target_name,
        # *feature_names), rebuilds the layout panel.py stores
        stackers = {"column_stack", "hstack", "vstack", "stack", "concatenate", "block"}
        root = Path(causalfs.__file__).parent
        found = []
        for path in sorted(root.rglob("*.py")):
            if path == root / "panel.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in stackers:
                    reads = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
                    if reads & {"target", "features"}:
                        found.append(f"{path.relative_to(root)}:{node.lineno}")
                if isinstance(node, ast.Tuple) and len(node.elts) == 2:
                    first, rest = node.elts
                    if (getattr(first, "attr", None) == "target_name"
                            and isinstance(rest, ast.Starred)
                            and getattr(rest.value, "attr", None) == "feature_names"):
                        found.append(f"{path.relative_to(root)}:{node.lineno}")
        assert found == []

    @staticmethod
    def stacked(panel, names):
        """The oracle: the target beside the named features, by column_stack."""
        return np.column_stack(
            [panel.target, *(panel.features[:, panel.feature_names.index(n)] for n in names)])

    def test_varlingam_gather_matches_a_column_stack_oracle_bit_for_bit(self):
        # data[:, cols] would be Fortran-ordered: the lag fits' residuals then
        # move by a few ulps, which FastICA amplifies
        panel, _ = generate_svar(SvarSpec(d=8, p=2, n=120, noise="laplace", seed=5))
        oracle = self.stacked(panel, varlingam.cluster_prefilter(panel, 4, seed=1))
        seen = []

        def stack_oracle(data, p):
            seen.append(data)
            return stack_lags(oracle, p)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = varlingam.varlingam_fit(panel, p=2, k_clusters=4, seed=1).graph
            with mock.patch.object(varlingam, "stack_lags", stack_oracle):
                want = varlingam.varlingam_fit(panel, p=2, k_clusters=4, seed=1).graph
        assert seen[0].tobytes() == oracle.tobytes()
        assert got.S.tobytes() == want.S.tobytes()
        assert [w.tobytes() for w in got.W] == [w.tobytes() for w in want.W]

    def test_forecast_gather_matches_a_column_stack_oracle_bit_for_bit(self):
        panel, _ = generate_svar(SvarSpec(d=8, p=2, n=120, noise="laplace", seed=5))
        selected = ("X6", "X1", "X3")
        oracle = self.stacked(panel, selected)
        layout = design_columns(oracle.shape[1], 2)
        want = subset_gram(stack_lags(oracle, 2)[1][:, layout], panel.target[2:])
        months = [len(panel) - 10, len(panel)]
        got, regressors = backtest.forecast_block(panel, 2, selected, months)
        assert got.Z.tobytes() == want.Z.tobytes()
        assert regressors.tolist() == [
            oracle[j - 2 : j][::-1].ravel()[layout].tolist() for j in months]
