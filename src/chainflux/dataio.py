"""CSV ingestion, state-space descriptors, and JSON report serialization.

CSV contract (UTF-8, optionally with a byte-order mark, comma-separated,
header mandatory), one of:

    treatment_id,session_id,round,state
    treatment_id,session_id,round,row_action,col_action

Rounds are 1-based and must be strictly increasing within a session; gaps
are permitted and split nothing (consecutive rows are consecutive
observations). A session_id change starts a new session. Action pairs map
to state core.action_state(row_action, col_action) and need the square
space. The two encodings are never mixed within one file.

Cells follow csv's default dialect and int(cell.strip()); invalid UTF-8 is
a ParseError naming its line, and every error names the first offending
line. load_csv reads the file in _BLOCK_BYTES blocks cut at line ends; the
body starts at the byte after the header (_header). A strict block (see
_Records._scan) is parsed with numpy (_line_bounds, _cell_bounds,
_run_starts, _int_cells and _Records._take). One csv path (_csv_reader)
reads every other line: the header record, any other quote-free block on
its own, and every block from the first with a quote on (_Records.add_csv).
Memory is one block's index arrays plus one state per row, held as
core.state_dtype(r), until each treatment's session bytes are joined once
into the states of its TreatmentDataset.

write_csv walks each dataset's session offsets and writes the bytes
csv.writer would: each session's id prefix is built once (_csv_prefix),
every state maps to a precomputed row tail, and each batch of at most
_WRITE_BATCH_ROWS rows is one join, so memory beyond the states does not
grow with session length.

Reports are a single strict JSON document (no NaN or Infinity); floats
serialize via repr (17 significant digits), so write-then-parse round-trips
bit-for-bit. A dataclass anywhere in a report is written as its fields
(dataclasses.asdict), arrays as lists and numpy scalars as numbers; there is
no per-type converter. A null's samples stay out of reports: callers write a
summary of them instead.
Reports and record files are written to a temporary file beside the target
and then renamed into place, so a failed write never leaves a partial file.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import itertools
import json
import operator
import os
import re
from collections.abc import Callable, Iterator
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import (
    StateSpace,
    TreatmentDataset,
    action_state,
    is_square_2x2,
    square_2x2,
    state_dtype,
    triangle_3,
)
from .errors import (
    ConfigError,
    MixedEncodingsError,
    NonMonotoneRoundsError,
    ParseError,
    ReportIoError,
    StateOutOfRangeError,
)
from .nullmodels import Seed
from .observables import ZeroFluxPolicy

__all__ = [
    "AnalysisConfig",
    "load_space",
    "load_csv",
    "write_csv",
    "check_report_path",
    "write_report",
]

_STATE_HEADER = ["treatment_id", "session_id", "round", "state"]
_ACTION_HEADER = ["treatment_id", "session_id", "round", "row_action", "col_action"]

_BUILTIN_SPACES = {"square": square_2x2, "triangle": triangle_3}

# Bytes read per ingest block; a block is cut at its last line end. Parsing
# one peaks at about 130 bytes per row (tracemalloc, 17-byte action rows),
# so 64 KiB keeps it near 0.5 MB; larger blocks were no faster on 10^6 rows.
_BLOCK_BYTES = 1 << 16
# Rows per validation batch of the rows csv reads.
_CSV_BATCH_ROWS = 4096
# Rows per write in write_csv; bounds its memory for any session length.
_WRITE_BATCH_ROWS = 1 << 16
_BOM = b"\xef\xbb\xbf"
_LINE_END = re.compile(rb"\r\n|\r|\n")
# Characters for which csv.writer's default dialect quotes a cell.
_CSV_QUOTED = re.compile(r'[,"\r\n]')
# Longest digit string that always fits in int64; longer cells go via csv.
_MAX_DIGITS = 18
_INT64 = np.iinfo(np.int64)
# _LOW_BYTES[k]: a uint64 mask of the low k bytes, 0 <= k <= 8
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


@dataclasses.dataclass(frozen=True)
class AnalysisConfig:
    """Validated knobs shared by every pipeline run."""

    space: StateSpace
    policy: ZeroFluxPolicy
    seed: Seed
    input: str | None = None
    output: str | None = None
    burn_in: int = 0
    mc_reps: int = 10_000
    alpha: float = 0.001
    workers: int = 1
    reproducible: bool = False

    def __post_init__(self):
        if self.mc_reps < 2:
            raise ConfigError(f"mc_reps must be >= 2, got {self.mc_reps}")
        if self.burn_in < 0:
            raise ConfigError(f"burn_in must be >= 0, got {self.burn_in}")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")

    def echo(self) -> dict:
        """Config block for the report document."""
        return {
            "input": self.input,
            "output": self.output,
            "burn_in": self.burn_in,
            "mc_reps": self.mc_reps,
            "alpha": self.alpha,
            "workers": self.workers,
            "reproducible": self.reproducible,
            "seed": self.seed.root,
            "zero_flux_policy": self.policy.describe(),
            "space": {
                "size": self.space.size,
                "labels": list(self.space.labels),
                "coordinates": self.space.coordinates.tolist(),
            },
        }


def load_space(descriptor: str) -> StateSpace:
    """Resolve a state-space descriptor: a built-in name ('square',
    'triangle') or a path to a JSON file with 'labels' and 'coordinates'."""
    if descriptor in _BUILTIN_SPACES:
        return _BUILTIN_SPACES[descriptor]()
    path = Path(descriptor)
    if not path.exists():
        raise ConfigError(
            f"state space {descriptor!r} is neither a built-in name "
            f"({', '.join(sorted(_BUILTIN_SPACES))}) nor an existing file"
        )
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        return StateSpace(
            labels=tuple(payload["labels"]),
            coordinates=np.asarray(payload["coordinates"], dtype=float),
        )
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad state-space descriptor {descriptor!r}: {exc}") from exc


def load_csv(path, space: StateSpace) -> list[TreatmentDataset]:
    """Parse a record file into one dataset per treatment, in file order.

    Raises:
        ParseError: missing/unknown header, empty file, malformed cells,
            invalid UTF-8, a quoted cell over csv.field_size_limit().
        ConfigError: an action header off the square space.
        MixedEncodingsError: header carries both encodings.
        NonMonotoneRoundsError: rounds within a session do not increase.
        StateOutOfRangeError: a state index is outside [0, r).
    """
    path = Path(path)
    try:
        fh = path.open("rb")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    with fh:
        blocks = _blocks(fh, fh.read(len(_BOM)).removeprefix(_BOM))
        block = next(blocks, None)
        if block is None:
            raise ParseError(f"{path.name}: empty file", line=1)
        header, line, rest = _header(block, blocks)
        header = [h.strip().lower() for h in header]

        has_state = "state" in header
        has_actions = "row_action" in header or "col_action" in header
        if has_state and has_actions:
            raise MixedEncodingsError(
                f"{path.name}: header mixes 'state' with action columns", line=1
            )
        if header not in (_STATE_HEADER, _ACTION_HEADER):
            raise ParseError(
                f"{path.name}: header must be exactly "
                f"{','.join(_STATE_HEADER)} or {','.join(_ACTION_HEADER)}; "
                f"got {','.join(header)}",
                line=1,
            )
        if header == _ACTION_HEADER and not is_square_2x2(space):
            raise ConfigError(f"{path.name}: action pairs need the 4-state square space")

        records = _Records(space.size, action_encoding=header == _ACTION_HEADER)
        body = itertools.chain([rest], blocks) if rest else blocks
        for block in body:
            if b'"' in block:
                records.add_csv(itertools.chain([block], body), line)
                break
            line = records.add_block(block, line)

    return list(records.datasets(space))


def _blocks(fh, carry: bytes):
    """Yield the rest of fh in blocks of about _BLOCK_BYTES, each ending at a
    line end (the last ends with the file). A \\r that ends a read is kept for
    the next block, so a \\r\\n pair is never split."""
    while chunk := fh.read(_BLOCK_BYTES):
        data = carry + chunk if carry else chunk
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        if cut:
            yield data[:cut]
        carry = data[cut:]
    if carry:
        yield carry


def _header(block: bytes, blocks) -> tuple[list[str], int, bytes]:
    """The header's cells, read by csv, the number of the line after its
    record, and the rest of `block`, the file's first block. csv gets the
    first line alone, so a one-line record decodes no more; a longer one is
    joined once with the lines and `blocks` (the others) it reaches into."""
    first = _LINE_END.search(block)
    end = first.end() if first else len(block)
    rest = block[end:]
    later: list[bytes] = []  # csv takes a block only when the record reaches it
    pieces = itertools.chain([block[:end], rest], (later.append(b) or b for b in blocks))
    failed: list[ParseError] = []
    reader = _csv_reader(pieces, 1, failed)
    try:
        header = next(reader, [])
    except csv.Error as exc:  # a field over csv.field_size_limit()
        raise ParseError(str(exc), reader.line_num) from None
    if failed:  # the record runs into a line with invalid UTF-8
        raise failed[0]
    rest = b"".join([rest, *later])
    n = reader.line_num - 1  # lines of the record after the first
    ends = [0, *(m.end() for m in itertools.islice(_LINE_END.finditer(rest), n))]
    end = ends[n] if len(ends) > n else len(rest)  # the last line may have no end
    return header, reader.line_num + 1, rest[end:]


def _utf8_lines(block: bytes) -> tuple[bytes, UnicodeDecodeError | None]:
    """The block and None, or, when it holds invalid UTF-8, the lines before
    the one with the first bad byte and the decode error."""
    if not block.isascii():
        try:
            block.decode("utf-8")
        except UnicodeDecodeError as exc:
            at = exc.start
            cut = max(block.rfind(b"\n", 0, at), block.rfind(b"\r", 0, at)) + 1
            return block[:cut], exc
    return block, None


def _csv_reader(blocks, line: int, failed: list):
    """A csv reader over the decoded blocks, whose first line is `line`.
    Invalid UTF-8 ends its input after the lines before it, with its
    ParseError appended to `failed`."""

    def texts(line: int):
        for block in blocks:
            block, bad = _utf8_lines(block)
            yield io.StringIO(block.decode("utf-8"), newline="")
            # lines in the block; it ends at a line end unless it is the last
            line += block.count(b"\n") + block.count(b"\r") - block.count(b"\r\n")
            if bad:
                byte = f"0x{bad.object[bad.start]:02x}"
                failed.append(ParseError(f"invalid UTF-8 byte {byte} ({bad.reason})", line))
                return

    return csv.reader(itertools.chain.from_iterable(texts(line)))


def _ints(texts) -> tuple[np.ndarray, np.ndarray]:
    """(values, parsed) of int(text.strip()) for each cell."""
    texts = list(texts)
    try:  # int() ignores the whitespace that strip() removes
        return _int_array(list(map(int, texts))), np.ones(len(texts), dtype=bool)
    except ValueError:
        pass
    values = []
    for text in texts:
        try:
            values.append(int(text.strip()))
        except ValueError:
            values.append(None)
    parsed = np.array([v is not None for v in values], dtype=bool)
    return _int_array([0 if v is None else v for v in values]), parsed


def _int_array(values: list[int]) -> np.ndarray:
    """values as int64, or as Python ints (dtype object) when one lies
    outside int64, so that they still compare exactly."""
    wide = bool(values) and (min(values) < _INT64.min or max(values) > _INT64.max)
    return np.array(values, dtype=object if wide else np.int64)


def _line_bounds(a: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Start and stop (before the line end) of each line of a block whose
    line ends are all \\n or all \\r\\n; None for any other block."""
    ends = np.flatnonzero(a == 10)
    n_cr = np.count_nonzero(a == 13)
    if not n_cr:
        stops = ends
    elif n_cr == ends.size and ends[0] and (a[ends - 1] == 13).all():
        stops = ends - 1  # every line ends with CRLF
    else:
        return None
    closed = ends.size and ends[-1] == a.size - 1  # the last line has an end
    starts = np.zeros(ends.size + (not closed), dtype=ends.dtype)
    starts[1:] = ends[: starts.size - 1] + 1
    return starts, stops if closed else np.append(stops, a.size)


def _cell_bounds(a, starts, stops, n_cols: int) -> list[np.ndarray] | None:
    """Cell bounds of rows whose commas, and the block's, form the
    (rows, n_cols - 1) grid: cell j of row i is bytes bounds[j][i] + 1 up to
    bounds[j + 1][i]. None for any other rows."""
    commas = np.flatnonzero(a == ord(","))
    if commas.size != starts.size * (n_cols - 1):
        return None
    # each row holds at least the n_cols - 1 commas of its grid row, so with
    # this total, exactly those
    grid = commas.reshape(starts.size, n_cols - 1)
    if (grid[:, 0] >= starts).all() and (grid[:, -1] < stops).all():
        return [starts - 1, *grid.T, stops]
    return None


def _run_starts(buf, starts, width) -> np.ndarray:
    """Rows whose first `width` bytes differ from the row before's: equal
    widths, then the bytes compared 8 at a time as words, each step with one
    gather over every row."""
    words = np.ndarray(buf.size - 7, "V8", buf, strides=(1,))  # raw, unaligned
    same = np.zeros(starts.size, dtype=bool)
    same[1:] = width[1:] == width[:-1]
    for at in range(0, int(width.max(initial=0)), 8):
        # a row whose prefix ends before `at` compares no bytes (mask 0)
        at_rows = np.minimum(starts + at, words.size - 1) if at else starts
        word = words[at_rows].view("<u8")
        mask = _LOW_BYTES.take(width[1:] - at, mode="clip")
        same[1:] &= (word[1:] ^ word[:-1]) & mask == 0
    return np.flatnonzero(~same)


def _int_cells(buf, begin, end) -> np.ndarray | None:
    """The int64 values of the cells buf[begin:end], read with numpy from
    `buf`, a block followed by at least _MAX_DIGITS bytes; None unless every
    cell is 1 to _MAX_DIGITS ASCII digits."""
    n = end - begin
    if (n == 1).all():  # one byte per cell: one gather
        d = buf[begin] - np.uint8(ord("0"))
        return d.astype(np.int64) if (d <= 9).all() else None
    if not ((n > 0) & (n <= _MAX_DIGITS)).all():
        return None
    values = np.zeros(n.size, dtype=np.int64)
    top = np.zeros(n.size, dtype=np.uint8)  # largest byte - '0' read
    short = int(n.min())
    for j in range(int(n.max())):
        d = buf[j:][begin] - np.uint8(ord("0"))
        inside = j < short or n > j  # True: every cell has byte j
        np.maximum(top, d, out=top, where=inside)
        np.multiply(values, 10, out=values, where=inside)
        np.add(values, d, out=values, where=inside)
    return values if (top <= 9).all() else None


class _Rows(NamedTuple):
    """Non-blank rows of one block or batch, cut after the first row with a
    wrong column count (whose error wins over any later row's)."""

    lines: np.ndarray  # line number of each row
    numbers: list  # values of each column from `round` on
    parsed: np.ndarray | bool  # rows whose number cells all read as integers
    run_starts: np.ndarray  # rows whose two id cells differ from the row before
    keys: list  # stripped (treatment, session) of each run
    cells: Callable  # row index -> the row's cells as text


class _Records:
    """Validated rows, kept per session as the bytes of small-int states."""

    def __init__(self, r: int, action_encoding: bool):
        self.r = r
        self.action_encoding = action_encoding
        self.n_cols = len(_ACTION_HEADER if action_encoding else _STATE_HEADER)
        self.dtype = state_dtype(r)
        # treatment -> session -> [last round, states as self.dtype bytes],
        # in the order of each one's first row
        self.treatments: dict[str, dict[str, list]] = {}
        # raw 'treatment,session' bytes of a row -> its session key
        self.keys: dict[bytes, tuple[str, str]] = {}

    def _key(self, prefix: bytes) -> tuple[str, str]:
        """(treatment, session) of the raw bytes 'treatment,session'."""
        tid, sid = prefix.decode("utf-8").split(",")
        key = self.keys[prefix] = (tid.strip(), sid.strip())
        return key

    def add_block(self, block: bytes, line: int) -> int:
        """Add a quote-free block whose first line is `line`, with numpy if
        it is strict and with csv if not; return the number of the line
        after it."""
        scanned = self._scan(block, line)
        if scanned is None:
            return self.add_csv([block], line)
        rows, n_lines = scanned
        self._take(rows)
        return line + n_lines

    def add_csv(self, blocks, line: int) -> int:
        """Add every row of `blocks`, whose first line is `line`, read by csv
        (quotes may hide commas and line ends); return the number of the
        line after them."""
        failed: list[ParseError] = []
        reader = _csv_reader(blocks, line, failed)
        line -= 1
        while True:
            batch, lines = [], []
            try:
                for cells in reader:
                    if failed:  # a row cut short by invalid UTF-8
                        break
                    batch.append(cells)
                    lines.append(line + reader.line_num)
                    if len(batch) == _CSV_BATCH_ROWS:
                        break
            except csv.Error as exc:  # a field over csv.field_size_limit()
                failed.append(ParseError(str(exc), line + reader.line_num))
            self._take(self._csv_rows(batch, lines))
            if failed or len(batch) < _CSV_BATCH_ROWS:
                break
        if failed:
            raise failed[0]
        return line + reader.line_num + 1

    def _scan(self, block: bytes, line: int) -> tuple[_Rows, int] | None:
        """Split a strict block into rows and cells with numpy; None for any
        other block. Strict: valid UTF-8, line ends all \\n or all \\r\\n,
        the block's commas form the (rows, n_cols - 1) grid of its non-blank
        rows, and every number cell is 1 to _MAX_DIGITS ASCII digits."""
        if _utf8_lines(block)[1]:
            return None
        buf = np.frombuffer(block + bytes(_MAX_DIGITS), dtype=np.uint8)
        a = buf[: len(block)]
        bounds = _line_bounds(a)
        if bounds is None:
            return None
        starts, stops = bounds
        n_lines = starts.size
        rows = np.arange(n_lines)
        # csv skips a row whose text str.strip() empties; only a row that
        # starts with a control byte, a space or a non-ASCII byte can be one
        first = a[starts]
        maybe_blank = (first <= ord(" ")) | (first >= 0x80)
        if maybe_blank.any():
            keep = ~maybe_blank
            for i in np.flatnonzero(maybe_blank).tolist():
                keep[i] = bool(block[starts[i] : stops[i]].decode("utf-8").strip())
            rows = np.flatnonzero(keep)
            starts, stops = starts[rows], stops[rows]

        def cells(i):
            return block[starts[i] : stops[i]].decode("utf-8").split(",")

        bounds = _cell_bounds(a, starts, stops, self.n_cols)
        if bounds is None:
            return None
        numbers = [
            _int_cells(buf, bounds[j] + 1, bounds[j + 1]) for j in range(2, self.n_cols)
        ]
        if any(values is None for values in numbers):
            return None
        run_starts = _run_starts(buf, starts, bounds[2] - bounds[0] - 1)
        # each run's 'treatment,session' bytes, decoded once per distinct value
        lo, hi = (bounds[0][run_starts] + 1).tolist(), bounds[2][run_starts].tolist()
        prefixes = [block[i:j] for i, j in zip(lo, hi)]
        keys = [self.keys.get(p) or self._key(p) for p in prefixes]
        return _Rows(line + rows, numbers, True, run_starts, keys, cells), n_lines

    def _csv_rows(self, batch: list[list[str]], lines: list[int]) -> _Rows:
        """The rows csv read, with C-level maps and zips over whole columns."""
        keep = list(map(str.strip, map("".join, batch)))  # '' for a blank row
        if not all(keep):
            batch = list(itertools.compress(batch, keep))
            lines = list(itertools.compress(lines, keep))
        wrong = np.flatnonzero(np.array(list(map(len, batch))) != self.n_cols)
        m = int(wrong[0]) if wrong.size else len(batch)
        columns = list(zip(*batch[:m])) if m else [()] * self.n_cols
        ids = list(zip(columns[0], columns[1]))
        run_starts = np.flatnonzero([True, *map(operator.ne, ids[1:], ids)][:m])
        numbers, parsed = zip(*(_ints(columns[j]) for j in range(2, self.n_cols)))
        return _Rows(
            np.array(lines[: m + 1], dtype=np.int64),
            list(numbers),
            np.logical_and.reduce(parsed),
            run_starts,
            [(ids[i][0].strip(), ids[i][1].strip()) for i in run_starts],
            batch.__getitem__,
        )

    def _take(self, rows: _Rows) -> None:
        """Check rows with array predicates and add them to their sessions;
        at the first failing row, raise that row's error."""
        rnd, *rest = rows.numbers
        if self.action_encoding:
            row_a, col_a = rest
            # both actions are 0 or 1: no bit above the lowest is set
            ok = rows.parsed & ((row_a | col_a) >> 1 == 0)
            state = action_state(row_a, col_a)
        else:
            [state] = rest
            ok = rows.parsed & (state >= 0) & (state < self.r)
        ok &= rnd >= 1

        # one dict lookup per run gives its session; sorting the runs stably
        # by session lists every session's rows together, in file order
        local = {key: i for i, key in enumerate(dict.fromkeys(rows.keys))}
        run_session = list(map(local.__getitem__, rows.keys))
        sessions = [
            self.treatments.setdefault(tid, {}).setdefault(sid, [0, bytearray()])
            for tid, sid in local
        ]
        runs = sorted(range(len(run_session)), key=run_session.__getitem__)
        bounds = np.append(rows.run_starts, rnd.size)
        starts, lengths = bounds[runs], (bounds[1:] - bounds[:-1])[runs]
        group = np.repeat(np.array(run_session, dtype=np.intp)[runs], lengths)
        if runs == list(range(len(runs))):
            order = slice(None)  # no session resumes: the rows are in order
        else:
            order = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
            order += np.arange(rnd.size)

        # rounds increase within a session, from its last round so far on
        last = _int_array([session[0] for session in sessions])
        if last.dtype != rnd.dtype:
            rnd, last = rnd.astype(object), last.astype(object)
        rnd = rnd[order]
        first = np.ones(rnd.size, dtype=bool)
        first[1:] = group[1:] != group[:-1]
        before = np.empty_like(rnd)
        before[1:] = rnd[:-1]
        before[first] = last[group[first]]
        ok[order] &= rnd > before
        stop = ok.size if ok.all() else int(ok.argmin())  # the first failing row

        # rows before `stop` are a prefix of each session's group
        valid = slice(stop) if isinstance(order, slice) else order < stop
        group, rnd, first = group[valid], rnd[valid], first[valid]
        data = state[order][valid].astype(self.dtype).tobytes()
        heads = np.append(np.flatnonzero(first), rnd.size)
        cuts = (heads * self.dtype.itemsize).tolist()
        lasts = rnd[heads[1:] - 1].tolist()
        for g, lo, hi, last in zip(group[heads[:-1]].tolist(), cuts, cuts[1:], lasts):
            session = sessions[g]
            session[0] = last
            session[1] += data[lo:hi]
        if stop < rows.lines.size:
            self._raise_row_error(rows.cells(stop), int(rows.lines[stop]))

    def _raise_row_error(self, cells: list[str], line: int) -> None:
        """Raise the error of a row that fails a check, testing its cells in
        the order a row is read."""

        def number(j: int, what: str) -> int:
            try:
                return int(cells[j].strip())
            except ValueError:
                raise ParseError(
                    f"{what} {cells[j]!r} is not an integer", line
                ) from None

        if len(cells) != self.n_cols:
            raise ParseError(f"expected {self.n_cols} columns, got {len(cells)}", line)
        tid, sid = cells[0].strip(), cells[1].strip()
        rnd = number(2, "round")
        if rnd < 1:
            raise ParseError(f"round must be >= 1, got {rnd}", line)
        if rnd <= self.treatments.get(tid, {}).get(sid, [0])[0]:
            raise NonMonotoneRoundsError(
                f"round {rnd} does not increase within session {sid!r} "
                f"of treatment {tid!r}",
                line,
            )
        if self.action_encoding:
            row_a, col_a = number(3, "row_action"), number(4, "col_action")
            if row_a not in (0, 1) or col_a not in (0, 1):
                raise ParseError(
                    f"actions must be 0 or 1, got ({row_a}, {col_a})", line
                )
            state = action_state(row_a, col_a)
        else:
            state = number(3, "state")
        if not (0 <= state < self.r):
            raise StateOutOfRangeError(f"state {state} outside [0, {self.r})", line)
        raise AssertionError(f"line {line} was flagged but passes every check")

    def datasets(self, space: StateSpace) -> Iterator[TreatmentDataset]:
        """One dataset per treatment, whose states are its session bytes
        joined once."""
        for tid, sessions in self.treatments.items():
            chunks = [chunk for _, chunk in sessions.values()]
            offsets = np.cumsum([0, *map(len, chunks)]) // self.dtype.itemsize
            states = np.frombuffer(b"".join(chunks), self.dtype)
            yield TreatmentDataset(tid, space, states, offsets, tuple(sessions))


def write_csv(datasets, path, encoding: str = "state") -> None:
    """Write datasets in the load_csv contract; inverse of load_csv on
    content. encoding='actions' requires the canonical 4-state square space.

    The bytes are those of csv.writer with its default dialect, one row per
    record.

    Raises:
        ValueError: bad encoding, or actions asked for off the square space;
            raised before the file is opened.
        ReportIoError: the file cannot be written; the target is left
            untouched.
    """
    if encoding not in ("state", "actions"):
        raise ValueError(f"encoding must be 'state' or 'actions', got {encoding!r}")
    datasets = list(datasets)
    actions = encoding == "actions"
    if actions and not all(is_square_2x2(data.space) for data in datasets):
        raise ValueError("action encoding requires the 4-state square convention")
    longest = max((np.diff(d.offsets).max(initial=0) for d in datasets), default=0)
    rounds = [str(k) for k in range(1, min(longest, _WRITE_BATCH_ROWS) + 1)]
    with _atomic_text(Path(path), "") as fh:
        csv.writer(fh).writerow(_ACTION_HEADER if actions else _STATE_HEADER)
        for data in datasets:
            if actions:  # the square's coordinates are each state's actions
                tails = [f",{a:g},{b:g}\r\n" for a, b in data.space.coordinates.tolist()]
            else:
                tails = [f",{s}\r\n" for s in range(data.space.size)]
            bounds = data.offsets.tolist()
            for sid, start, stop in zip(data.session_ids, bounds, bounds[1:]):
                prefix = _csv_prefix(data.treatment_id, sid)
                for lo in range(start, stop, _WRITE_BATCH_ROWS):
                    hi = min(lo + _WRITE_BATCH_ROWS, stop)
                    # row k is parts[3k] + parts[3k+1] + parts[3k+2]
                    parts = [prefix] * (3 * (hi - lo))
                    if lo == start:
                        parts[1::3] = rounds[: hi - lo]
                    else:
                        parts[1::3] = map(str, range(lo - start + 1, hi - start + 1))
                    parts[2::3] = [tails[s] for s in data.states[lo:hi].tolist()]
                    fh.write("".join(parts))


def _csv_prefix(treatment_id, session_id) -> str:
    """The csv-quoted 'treatment_id,session_id,' that starts a session's rows.
    csv.writer quotes a str cell only for a comma, quote or line end in it,
    so other str ids are written as they are."""
    if isinstance(treatment_id, str) and isinstance(session_id, str):
        if not (_CSV_QUOTED.search(treatment_id) or _CSV_QUOTED.search(session_id)):
            return f"{treatment_id},{session_id},"
    buf = io.StringIO()
    csv.writer(buf).writerow([treatment_id, session_id, ""])
    return buf.getvalue()[: -len("\r\n")]


def _jsonable(obj):
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def check_report_path(path, what: str = "report to ") -> None:
    """Fail early, before any work, when write_report (or, with what="",
    write_csv) could not create path.

    Raises:
        ReportIoError: path (or, for a symlink, its target) exists and is not
            a regular file, or its directory is missing or not writable; the
            message reads "cannot write <what><path>: <reason>".
    """
    path = Path(path)
    folder = _target(path, what).parent
    if not folder.is_dir():
        reason = f"no such directory {folder}"
    elif not os.access(folder, os.W_OK | os.X_OK):
        reason = f"directory {folder} is not writable"
    else:
        return
    raise ReportIoError(f"cannot write {what}{path}: {reason}")


def _target(path: Path, what: str) -> Path:
    """The file that writing `path` replaces: the target of a symlink, so the
    link stays, or else path itself.

    Raises:
        ReportIoError: it exists and is not a regular file (a directory, a
            FIFO, a device), which a rename would swap for a file.
    """
    target = Path(os.path.realpath(path)) if path.is_symlink() else path
    if target.exists() and not target.is_file():
        kind = "a directory" if target.is_dir() else "not a regular file"
        raise ReportIoError(f"cannot write {what}{path}: it is {kind}")
    return target


def write_report(
    reports,
    tests,
    fits,
    path,
    *,
    config: dict | None = None,
    reproducible: bool = False,
) -> None:
    """Write the analysis document as one JSON file.

    reports: per-treatment entries (dicts, see the README schema).
    tests:   mapping name -> across-treatment test (a dict or dataclass).
    fits:    mapping name -> OlsFit or dict.
    Any dataclass in them is written as its fields (dataclasses.asdict),
    with arrays as lists; none is dispatched on by type. Pass a summary of a
    null's samples, never the samples.
    The creation timestamp is suppressed when reproducible is True so that
    identical inputs produce byte-identical files.

    Raises:
        ReportIoError: the document holds NaN or Infinity, or the file
            cannot be written; the target path is left untouched.
    """
    from . import __version__

    document = {
        "tool": {"name": "chainflux", "version": __version__},
        "config": config or {},
        "treatments": list(reports),
        "tests": dict(tests or {}),
        "fits": dict(fits or {}),
    }
    if not reproducible:
        document["created_at"] = datetime.now(timezone.utc).isoformat()
    try:
        text = json.dumps(
            document, indent=2, sort_keys=True, default=_jsonable, allow_nan=False
        )
    except ValueError as exc:
        raise ReportIoError(f"report for {path} is not valid JSON: {exc}") from exc
    with _atomic_text(Path(path), "report to ") as fh:
        fh.write(text + "\n")


@contextlib.contextmanager
def _atomic_text(path: Path, what: str):
    """Yield a UTF-8 text file, without newline translation, that replaces
    `path` when the block ends.

    The file is written as .<name>.<pid>.tmp beside the target (see _target)
    and renamed into place with os.replace, so the target is either the old
    file or the complete new one. On any failure the temporary file is
    removed; an OSError becomes ReportIoError("cannot write <what><path>:
    <reason>").
    """
    target = _target(path, what)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        try:
            with open(tmp, "w", newline="", encoding="utf-8") as fh:
                yield fh
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        reason = exc.strerror or exc
        raise ReportIoError(f"cannot write {what}{path}: {reason}") from exc
