"""Parsers for the supported text formats plus the FRED-MD transforms.

Formats handled here:
  * FRED-MD CSV  -- header ``sasdate,<name>,...``, second row ``Transform:``
    with per-series codes, dates ``M/D/YYYY``, empty cells = missing;
  * price CSV    -- header ``date,close`` with ISO dates;
  * group sidecar CSV -- ``series,group`` with group in 1..8;
  * crisis calendar  -- one ``YYYY-MM..YYYY-MM`` range per line, ``#`` comments;
  * aligned-panel CSV -- the output schema of the ingest command.

Every CSV the commands read or write goes through ``csv_rows``, ``parse_rows``
and ``to_csv`` here: the inputs above, the aligned panel, the backtest ledger
(``backtest.ledger_to_csv``/``ledger_from_csv``), the report's ``table1.csv``,
``table2.csv``, rolling, stability and combined-portfolio series, and
``validate``'s ``recovery_<id>.csv``. The one exception is the aligned panel's
numbers: ``read_panel`` takes them from the binary copy ``write_panel`` saves
next to the CSV when the meta file's digests match both files, and otherwise
``panel_from_csv`` reads them in one ``np.loadtxt`` pass wherever that pass
reads them as ``float`` would.
"""
from __future__ import annotations

import csv
import enum
import hashlib
import io
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadRange,
    BadTransformCode,
    DomainError,
    DuplicateDate,
    MalformedCsv,
    NonContiguous,
    OverlappingRanges,
    UnknownSeries,
)
from .panel import AlignedPanel, MonthStamp, MonthlyPanel, MonthlySeries, first_gap

# FRED-MD transformation codes: code -> (months consumed, transform).
# Codes from 4 on need strictly positive values.
TCODES = {
    1: (0, np.copy),                                     # level
    2: (1, np.diff),                                     # first difference
    3: (2, lambda x: np.diff(x, n=2)),                   # second difference
    4: (0, np.log),                                      # log
    5: (1, lambda x: np.diff(np.log(x))),                # log first difference
    6: (2, lambda x: np.diff(np.log(x), n=2)),           # log second difference
    7: (2, lambda x: np.diff(x[1:] / x[:-1] - 1.0)),     # first diff of percent change
}

STOCK_MARKET_GROUP = 6  # excluded: target return lags already cover equities


def validate_tcode(code: int) -> int:
    if code not in TCODES:
        raise BadTransformCode(f"unknown transform code {code!r}")
    return code


class Regime(enum.Enum):
    NORMAL = "normal"
    CRISIS = "crisis"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class RegimeCalendar:
    """Sorted, non-overlapping inclusive month ranges labelled crisis."""

    crisis_ranges: tuple[tuple[MonthStamp, MonthStamp], ...]

    def __post_init__(self):
        ranges = tuple(sorted(self.crisis_ranges, key=lambda r: r[0]))
        for start, end in ranges:
            if start > end:
                raise BadRange(f"range {start}..{end} has start after end")
        for (_, prev_end), (next_start, _) in zip(ranges, ranges[1:]):
            if next_start <= prev_end:
                raise OverlappingRanges(
                    f"range starting {next_start} overlaps one ending {prev_end}"
                )
        object.__setattr__(self, "crisis_ranges", ranges)

    def classify(self, month: MonthStamp) -> Regime:
        for start, end in self.crisis_ranges:
            if start <= month <= end:
                return Regime.CRISIS
        return Regime.NORMAL

    def split(self, dates) -> dict[Regime, np.ndarray]:
        """For each regime, normal then crisis, the positions in ``dates`` of
        its months: an int array in order, empty when it has none."""
        regimes = [self.classify(d) for d in dates]
        return {
            regime: np.array([i for i, r in enumerate(regimes) if r is regime], dtype=int)
            for regime in Regime
        }


@contextmanager
def naming(path):
    """Prefix a MalformedCsv, DuplicateDate (a month on two rows),
    NonContiguous (a panel's months out of step) or UnicodeDecodeError (not
    UTF-8 text) raised inside with the file, as a MalformedCsv."""
    try:
        yield
    except (MalformedCsv, DuplicateDate, NonContiguous, UnicodeDecodeError) as exc:
        raise MalformedCsv(f"{path}: {exc}") from None


def csv_rows(text: str) -> list[list[str]]:
    """The rows of a CSV text, skipping blank and whitespace-only lines."""
    try:
        return [row for row in csv.reader(io.StringIO(text)) if any(c.strip() for c in row)]
    except csv.Error as exc:
        raise MalformedCsv(str(exc)) from None


def parse_rows(rows: list[list[str]], convert) -> list:
    """``convert`` applied to each row; a ``ValueError`` it raises (a bad
    number, date or label, or a wrong field count) becomes ``MalformedCsv``
    naming the row by its first cell."""
    out = []
    for row in rows:
        try:
            out.append(convert(row))
        except ValueError as exc:
            raise MalformedCsv(f"row {row[0].strip()!r}: {exc}") from None
    return out


def _csv_line(row) -> str:
    cells = ["" if c is None else str(c) for c in row]
    line = ",".join(cells)
    # one scan of the joined line finds the rare row with a cell to quote
    if line.count(",") >= len(cells) or any(c in line for c in '"\r\n'):
        return ",".join('"' + c.replace('"', '""') + '"' if any(s in c for s in ',"\r\n') else c
                        for c in cells)
    return '""' if cells == [""] else line


def to_csv(header, rows) -> str:
    """CSV text with ``\n`` line ends: the header, then the rows. A cell is
    written as ``str(cell)`` (a Python float as its repr, which reads back
    exactly) and ``None`` as an empty cell. A cell holding a comma, a double
    quote, CR or LF is quoted, its double quotes doubled; a row of one empty
    cell is ``""``, not a blank line. These are the standard library CSV
    writer's bytes, except that it leaves a bare CR unquoted."""
    return _csv_line(header) + "\n" + "".join(_csv_line(row) + "\n" for row in rows)


def _parse_us_date(text: str) -> MonthStamp:
    parts = text.strip().split("/")
    if len(parts) != 3:
        raise MalformedCsv(f"expected M/D/YYYY date, got {text!r}")
    month, _, year = parts
    return MonthStamp(int(year), int(month))


def _cell_to_float(cell: str) -> float:
    cell = cell.strip()
    value = math.nan if cell == "" else float(cell)  # empty is missing
    if math.isinf(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value


def _consecutive(series):
    """``series`` if no month is missing between its dates, else MalformedCsv
    naming the two months around the first gap."""
    if (i := first_gap(series.dates)) is not None:
        a, b = series.dates[i : i + 2]
        raise MalformedCsv(f"month {a.plus(1)} missing between {a} and {b}")
    return series


def check_names(names, what: str, error=MalformedCsv) -> None:
    """``error`` naming the first of ``names`` that is blank, holds a ';'
    (the ledger's separator between selected names) or repeats."""
    seen = set()
    for name in names:
        if not name.strip():
            raise error(f"blank {what} name {name!r}")
        if ";" in name:
            raise error(f"{what} {name!r} holds ';', the ledger's name separator")
        if name in seen:
            raise error(f"{what} {name!r} appears twice")
        seen.add(name)


def parse_groups(csv_text: str) -> dict[str, int]:
    """Parse the ``series,group`` sidecar; a series listed twice is an error."""
    rows = csv_rows(csv_text)
    if not rows or [c.strip().lower() for c in rows[0][:2]] != ["series", "group"]:
        raise MalformedCsv("group sidecar must start with header 'series,group'")

    def group_row(row):
        name, tag = (c.strip() for c in row[:2])
        if not 1 <= int(tag) <= 8:
            raise MalformedCsv(f"group {tag} for {name} outside 1..8")
        return name, int(tag)

    pairs = parse_rows(rows[1:], group_row)
    check_names((name for name, _ in pairs), "series")
    return dict(pairs)


def parse_fredmd(
    csv_text: str, sidecar: dict[str, int]
) -> tuple[MonthlyPanel, dict[str, int], dict[str, int]]:
    """Parse a FRED-MD-format CSV with no month missing; ``sidecar`` is its
    group sidecar as ``parse_groups`` returns it.

    Returns the raw (still untransformed, NaN-bearing) panel, the per-series
    transform codes for the kept series, and the group tags for every series
    in the file. Series tagged with the stock-market group are dropped from
    the panel and the code map but stay in the group map so callers can log
    the exclusion.
    """
    rows = csv_rows(csv_text)
    if len(rows) < 3:
        raise MalformedCsv("need a header, a transform row, and data")
    header = rows[0]
    names = [c.strip() for c in header[1:]]
    if not names:
        raise MalformedCsv("no series columns found")
    check_names(names, "series")
    trow = rows[1]
    if not trow or not trow[0].strip().lower().startswith("transform"):
        raise MalformedCsv("second row must carry the transform codes")
    if len(trow) != len(header):
        raise MalformedCsv("transform row width differs from header")
    tcodes = {}
    for name, cell in zip(names, trow[1:]):
        try:
            code = float(cell)
        except ValueError:
            code = math.nan
        if not (code.is_integer() and int(code) in TCODES):  # nan and inf are not integers
            raise BadTransformCode(f"transform code {cell!r} for {name} is not one of 1..7")
        tcodes[name] = int(code)

    def data_row(row):
        if len(row) != len(header):
            raise MalformedCsv(f"ragged row of width {len(row)}: {row[:3]}...")
        return _parse_us_date(row[0]), [_cell_to_float(c) for c in row[1:]]

    dates, data = zip(*parse_rows(rows[2:], data_row))
    groups = {}
    for name in names:
        if name not in sidecar:
            raise UnknownSeries(f"series {name} missing from group sidecar")
        groups[name] = sidecar[name]
    keep = [i for i, name in enumerate(names) if groups[name] != STOCK_MARKET_GROUP]
    kept_names = tuple(names[i] for i in keep)
    values = np.array(data, dtype=float)[:, keep]
    panel = _consecutive(MonthlyPanel(dates=dates, values=values, names=kept_names))
    return panel, {n: tcodes[n] for n in kept_names}, groups


def apply_tcode(series: np.ndarray, code: int) -> np.ndarray:
    """Apply one FRED-MD transform, the one in ``code``'s ``TCODES`` row;
    the output is shorter by the months that row consumes.

    Interior NaN propagate through differences; the positivity requirement
    of codes 4 to 7 is checked on the non-NaN values only.
    """
    order, transform = TCODES[validate_tcode(code)]
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be 1-d")
    if len(x) <= order:
        raise DomainError(f"series too short for transform {code}")
    if code >= 4:
        finite = x[~np.isnan(x)]
        if (finite <= 0).any():
            raise DomainError(f"transform {code} needs strictly positive values")
    return transform(x)


def transform_panel(panel: MonthlyPanel, tcodes: dict[str, int]) -> MonthlyPanel:
    """Transform every series, NaN-padding the consumed leading months so the
    panel keeps one rectangular date column."""
    out = np.full_like(panel.values, np.nan)
    for j, name in enumerate(panel.names):
        x = apply_tcode(panel.values[:, j], tcodes[name])
        out[len(out) - len(x):, j] = x
    return MonthlyPanel(panel.dates, out, panel.names)


def load_prices(csv_text: str) -> MonthlySeries:
    """Parse the ``date,close`` price CSV: one row per month, none missing."""
    rows = csv_rows(csv_text)
    if not rows or [c.strip().lower() for c in rows[0][:2]] != ["date", "close"]:
        raise MalformedCsv("price CSV must start with header 'date,close'")

    def price_row(row):
        date, close = (c.strip() for c in row[:2])
        parts = date.split("-")
        if len(parts) != 3:
            raise MalformedCsv(f"expected ISO YYYY-MM-DD date, got {date!r}")
        return MonthStamp(int(parts[0]), int(parts[1])), float(close)

    parsed = parse_rows(rows[1:], price_row)
    prices = MonthlySeries(tuple(m for m, _ in parsed), np.array([v for _, v in parsed]))
    return _consecutive(prices)


def prices_to_returns(prices: MonthlySeries) -> MonthlySeries:
    """Simple monthly returns in percent: 100 * (P_t / P_{t-1} - 1)."""
    p = prices.values
    if (~np.isfinite(p)).any() or (p <= 0).any():
        raise DomainError("prices must be finite and strictly positive")
    r = 100.0 * (p[1:] / p[:-1] - 1.0)
    return MonthlySeries(prices.dates[1:], r)


def load_calendar(text: str) -> RegimeCalendar:
    """Parse the crisis calendar: ``YYYY-MM..YYYY-MM`` lines, ``#`` comments."""
    ranges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ".." not in line:
            raise BadRange(f"line {lineno}: expected YYYY-MM..YYYY-MM, got {raw!r}")
        a, b = line.split("..", 1)
        try:
            start, end = MonthStamp.parse(a), MonthStamp.parse(b)
        except ValueError as exc:
            raise BadRange(f"line {lineno}: {exc}")
        ranges.append((start, end))
    return RegimeCalendar(tuple(ranges))


# --- aligned-panel round trip (output schema of the ingest command) ---

def panel_to_csv(panel: AlignedPanel) -> str:
    return to_csv(
        ["month", *panel.names], ([d, *row] for d, row in zip(panel.dates, panel.data.tolist()))
    )


_PANEL_LAYOUT = "panel CSV needs a 'month,<target>,...' header and a data row"


def _loadtxt_rows(body: str, width: int):
    """The first cells, months and numbers of the data lines in ``body``, the
    numbers read in one ``np.loadtxt`` pass; None where that pass rejects a
    line or could read one apart from ``float``: a row of another width, a CR
    that does not end a line, a character from 0x1C to 0x1F (space to numpy,
    not to ``float``) or a line past csv's field size limit."""
    if "\r" in body and body.count("\r") != body.count("\r\n"):
        return None
    if any(c in body for c in "\x1c\x1d\x1e\x1f"):
        return None
    pairs = [line.split(",", 1) for line in body.split("\n") if line.strip()]
    try:
        dates = tuple(MonthStamp.parse(first) for first, _ in pairs)  # or no comma: ValueError
    except ValueError:
        return None
    rests = [rest for _, rest in pairs]
    # an empty rest is an empty cell, which loadtxt would skip as a blank line
    if not all(map(str.strip, rests)) or max(map(len, rests)) > csv.field_size_limit():
        return None
    try:
        values = np.loadtxt(rests, delimiter=",", quotechar='"', comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(pairs), width - 1):  # a quote spanning lines joins them
        return None
    return [first for first, _ in pairs], dates, values


def _parsed_rows(body: str, header: list[str]):
    """The months and numbers of the data rows in ``body``: one
    ``np.loadtxt`` pass, or, for a text that pass could read apart from
    ``float``, cell by cell with ``float``, which names a malformed row."""

    def panel_row(row):
        if len(row) != len(header):
            raise MalformedCsv(f"ragged panel row: {row[:3]}...")
        return row[0], MonthStamp.parse(row[0]), [float(c) for c in row[1:]]

    read = _loadtxt_rows(body, len(header))
    if read is None:
        rows = csv_rows(body)
        if not rows:
            raise MalformedCsv(_PANEL_LAYOUT)
        firsts, dates, cells = zip(*parse_rows(rows, panel_row))
        read = firsts, dates, np.array(cells)
    firsts, dates, values = read
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise MalformedCsv(f"row {firsts[finite.argmin()].strip()!r}: non-finite value")
    return dates, values


def _block_rows(body: str, block: np.ndarray, width: int):
    """The months and numbers of the data rows in ``body``, as
    ``write_panel`` wrote them, with the numbers taken from ``block``: the
    months run from the first row's, one per line. None unless ``block`` is
    finite float64 with one row per line and ``width - 1`` columns."""
    try:
        first = MonthStamp.parse(body[: body.index(",")])
    except ValueError:
        return None
    rows = body.count("\n")
    if (block.dtype != np.float64 or block.shape != (rows, width - 1)
            or not np.isfinite(block).all()):
        return None
    return tuple(first.plus(i) for i in range(rows)), block


def panel_from_csv(csv_text: str, meta: dict | None = None,
                   block: np.ndarray | None = None) -> AlignedPanel:
    """The panel in ``panel_to_csv``'s layout; ``meta["target_name"]``, when
    given, names the target.

    The header record goes through the csv module, so a name may hold a
    quoted comma, double quote, CR or LF. ``block``, when given, is the
    data rows' numbers as ``write_panel`` saved them next to exactly this
    text; otherwise, or where it does not fit the text, the data rows are
    parsed (``_parsed_rows``).
    """
    stream = io.StringIO(csv_text)
    try:
        header = next((row for row in csv.reader(stream) if any(c.strip() for c in row)), [])
    except csv.Error as exc:
        raise MalformedCsv(str(exc)) from None
    body = stream.read()
    if not body.strip() or len(header) < 2 or header[0].strip() != "month":
        raise MalformedCsv(_PANEL_LAYOUT)
    target_name = (meta or {}).get("target_name", header[1])
    names = tuple(header[2:])
    check_names(names, "column")
    if target_name in names:
        raise MalformedCsv(f"target {target_name!r} is also a feature column")
    check_names([target_name], "target")
    read = None if block is None else _block_rows(body, block, len(header))
    dates, values = _parsed_rows(body, header) if read is None else read
    return AlignedPanel(dates=dates, data=values, names=(target_name, *names))


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def write_panel(panel: AlignedPanel, csv_path, meta_path) -> None:
    """``panel.csv`` at ``csv_path``; then its data block, as ``np.save``
    writes it, next to it with the suffix ``.npy``; last the meta file: the
    target name and the sha256 of both files' bytes, which ``read_panel``
    checks before it reads the block instead of parsing the CSV."""
    csv_path = Path(csv_path)
    with open(csv_path, "w") as fh:
        fh.write(panel_to_csv(panel))
    buffer = io.BytesIO()
    np.save(buffer, panel.data, allow_pickle=False)
    blob = buffer.getvalue()
    csv_path.with_suffix(".npy").write_bytes(blob)
    meta = {"target_name": panel.target_name, "csv_sha256": _sha256(csv_path.read_bytes()),
            "npy_sha256": _sha256(blob)}
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def _panel_meta(meta_path) -> dict | None:
    """The meta file ``write_panel`` wrote, None when there is none; a
    MalformedCsv unless it is a JSON object with a string ``target_name``."""
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        return None
    except ValueError as exc:  # not JSON, or not text
        raise MalformedCsv(f"not a JSON file: {exc}") from None
    if not isinstance(meta, dict) or not isinstance(meta.get("target_name"), str):
        raise MalformedCsv("needs a JSON object with a string 'target_name'")
    return meta


def _binary_copy(raw: bytes, npy_path: Path, meta: dict | None) -> np.ndarray | None:
    """The block ``write_panel`` saved at ``npy_path``, when ``meta`` holds
    the sha256 of ``raw`` (the CSV's bytes) and of that file's bytes; None
    otherwise: no digests, an edited CSV, or a missing or other ``.npy``."""
    if meta is None or "npy_sha256" not in meta or meta.get("csv_sha256") != _sha256(raw):
        return None
    try:
        blob = npy_path.read_bytes()
    except FileNotFoundError:
        return None
    if meta["npy_sha256"] != _sha256(blob):
        return None
    try:
        return np.lib.format.read_array(io.BytesIO(blob), allow_pickle=False)
    except ValueError:  # digests of a file that is not an .npy array
        return None


def read_panel(csv_path, meta_path=None) -> AlignedPanel:
    """The panel ``write_panel`` wrote; without a meta file the header's
    target column names the target. A MalformedCsv names the file at fault.

    The numbers come from the ``.npy`` copy next to the CSV when the meta
    file's digests match both files; otherwise the CSV's data rows are
    parsed. Either way the CSV's text is decoded as ``open`` decodes it."""
    meta = None
    if meta_path is not None:
        with naming(meta_path):
            meta = _panel_meta(meta_path)
    path = Path(csv_path)
    with naming(csv_path):
        raw = path.read_bytes()
        block = _binary_copy(raw, path.with_suffix(".npy"), meta)
        return panel_from_csv(io.TextIOWrapper(io.BytesIO(raw)).read(), meta, block)
