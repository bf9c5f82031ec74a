"""Block-wise CSV ingest against the per-row csv loop it replaced."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainflux.dataio as dataio
from chainflux import StateSpace, TreatmentDataset, load_csv, square_2x2
from chainflux.cli import main
from chainflux.errors import (
    ChainfluxError,
    MixedEncodingsError,
    NonMonotoneRoundsError,
    ParseError,
    StateOutOfRangeError,
)

from conftest import sessions_of

STATE_HEADER = ["treatment_id", "session_id", "round", "state"]
ACTION_HEADER = ["treatment_id", "session_id", "round", "row_action", "col_action"]
BLOCK_BYTES = dataio._BLOCK_BYTES


def _parse_int(text: str, what: str, line: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ParseError(f"{what} {text!r} is not an integer", line) from None


def loop_load_csv(path, space: StateSpace) -> list[TreatmentDataset]:
    """Reference ingest, one csv row at a time."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip().lower() for h in next(reader)]
        except StopIteration:
            raise ParseError(f"{path.name}: empty file", line=1) from None
        has_state = "state" in header
        has_actions = "row_action" in header or "col_action" in header
        if has_state and has_actions:
            raise MixedEncodingsError(
                f"{path.name}: header mixes 'state' with action columns", line=1
            )
        if header == STATE_HEADER:
            action_encoding = False
        elif header == ACTION_HEADER:
            action_encoding = True
        else:
            raise ParseError(
                f"{path.name}: header must be exactly "
                f"{','.join(STATE_HEADER)} or {','.join(ACTION_HEADER)}; "
                f"got {','.join(header)}",
                line=1,
            )
        r = space.size
        n_cols = len(header)
        treatments: dict[str, dict[str, list[int]]] = {}
        last_round: dict[tuple[str, str], int] = {}
        for row in reader:
            line = reader.line_num
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != n_cols:
                raise ParseError(f"expected {n_cols} columns, got {len(row)}", line)
            tid, sid = row[0].strip(), row[1].strip()
            rnd = _parse_int(row[2], "round", line)
            if rnd < 1:
                raise ParseError(f"round must be >= 1, got {rnd}", line)
            key = (tid, sid)
            if key in last_round and rnd <= last_round[key]:
                raise NonMonotoneRoundsError(
                    f"round {rnd} does not increase within session {sid!r} "
                    f"of treatment {tid!r}",
                    line,
                )
            last_round[key] = rnd
            if action_encoding:
                row_a = _parse_int(row[3], "row_action", line)
                col_a = _parse_int(row[4], "col_action", line)
                if row_a not in (0, 1) or col_a not in (0, 1):
                    raise ParseError(
                        f"actions must be 0 or 1, got ({row_a}, {col_a})", line
                    )
                state = 2 * row_a + col_a
            else:
                state = _parse_int(row[3], "state", line)
            if not (0 <= state < r):
                raise StateOutOfRangeError(f"state {state} outside [0, {r})", line)
            treatments.setdefault(tid, {}).setdefault(sid, []).append(state)
    return [
        TreatmentDataset.from_sessions(treatment_id=tid, space=space, sessions=sessions)
        for tid, sessions in treatments.items()
    ]


def outcome(loader, path, space):
    """Datasets as plain tuples, or (error class, message, line)."""
    try:
        datasets = loader(path, space)
    except ChainfluxError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return [
        (
            d.treatment_id,
            [(sid, states.dtype.str, states.tolist()) for sid, states in sessions_of(d)],
        )
        for d in datasets
    ]


def assert_same_as_loop(path, space, block_bytes):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_BLOCK_BYTES", block_bytes)
        got = outcome(load_csv, path, space)
    assert got == outcome(loop_load_csv, path, space)


# ---------------------------------------------------------------------------
# generated files
# ---------------------------------------------------------------------------

IDS = ["t1", "t2", "T", " t1", "t1 ", "é", "s\u00a0", "\u00a0s", ""]
QUOTED_IDS = ["a,b", 'q"x', "x\ny", "r\rs"]
DECOR = ["{}", "{}", "{}", " {} ", "+{}", "0{}", "\t{}", "\u00a0{}", "{}\x0b"]
QUOTED_DECOR = ['"{}"', '" {}\n"']
JUNK = ["", "zero", "1.5", "-", "1_0", "٣", "9" * 20, "ab,c", "-3"]
BLANKS = ["", "   ", ",,,", " , ,\t", "\x0b,", "\u00a0", "\u00a0,\u2003", "\x1c"]
QUOTED_BLANKS = ['""', '"",""', '" , "']
FAULTS = ["repeat round", "zero round", "junk", "state range", "short", "long"]
ENDINGS = ["\n", "\r\n", "\r"]


def quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def record_files(draw):
    """Bytes of a record file: valid rows in interleaved sessions, with
    optional quoting, blank rows, a BOM and mixed line ends, and at most two
    faulty rows or a faulty header."""
    actions = draw(st.booleans())
    quotes = draw(st.booleans())
    pick = lambda values: draw(st.sampled_from(values))  # noqa: E731
    header = list(ACTION_HEADER if actions else STATE_HEADER)
    header_fault = pick([None] * 8 + ["bogus", "mixed", "decorated"])
    if header_fault == "bogus":
        header[draw(st.integers(0, len(header) - 1))] = "bogus"
    elif header_fault == "mixed":
        header = header[:3] + ["state", "row_action"]
    elif header_fault == "decorated":
        header = [f" {h.upper()} " if i % 2 else h for i, h in enumerate(header)]
        if quotes:
            header[0] = quoted(header[0])
    ids = IDS + QUOTED_IDS if quotes else IDS
    keys = [(pick(ids), pick(ids)) for _ in range(draw(st.integers(1, 4)))]
    n_rows = draw(st.integers(0, 40))
    faults = st.tuples(st.integers(0, n_rows), st.sampled_from(FAULTS))
    faults = dict(draw(st.lists(faults, max_size=2)))

    def id_cell(text):
        if any(ch in text for ch in ',"\r\n') or (quotes and pick([0] * 5 + [1])):
            return quoted(text)
        return text

    def number_cell(value):
        return pick(DECOR + QUOTED_DECOR if quotes else DECOR).format(value)

    lines = [",".join(header)]
    rounds: dict[tuple[str, str], int] = {}
    for i in range(n_rows):
        if pick([0] * 9 + [1]):
            lines.append(pick(BLANKS + QUOTED_BLANKS if quotes else BLANKS))
        fault = faults.get(i)
        key = pick(keys)
        step = {"repeat round": 0, "zero round": -rounds.get(key, 0)}.get(fault, 1)
        rnd = rounds[key] = rounds.get(key, 0) + pick([step] * 3 + [step + 2])
        if actions:
            tail = [draw(st.integers(0, 1)), draw(st.integers(0, 1))]
        else:
            tail = [draw(st.integers(0, 3))]
        if fault == "state range":
            tail[-1] = pick([-1, 2, 4, 17] if actions else [-1, 4, 17])
        cells = [id_cell(key[0]), id_cell(key[1])]
        cells += [number_cell(v) for v in [rnd, *tail]]
        if fault == "junk":
            cells[draw(st.integers(2, len(cells) - 1))] = pick(JUNK)
        elif fault == "short":
            cells = cells[: draw(st.integers(1, len(cells) - 1))]
        elif fault == "long":
            cells.append("7")
        lines.append(",".join(cells))
    text = "".join(line + pick(ENDINGS) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    return (b"\xef\xbb\xbf" + data) if draw(st.booleans()) else data


@settings(max_examples=400, deadline=None)
@given(
    data=record_files(),
    block_bytes=st.sampled_from([1, 2, 5, 16, 64, BLOCK_BYTES]),
)
def test_generated_files_match_loop(tmp_path_factory, data, block_bytes):
    path = tmp_path_factory.mktemp("gen") / "records.csv"
    path.write_bytes(data)
    assert_same_as_loop(path, square_2x2(), block_bytes)


# ---------------------------------------------------------------------------
# targeted cases
# ---------------------------------------------------------------------------


def write(tmp_path, data: bytes) -> Path:
    path = tmp_path / "records.csv"
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("block_bytes", [1, 3, 7, 29, BLOCK_BYTES])
def test_rows_straddling_blocks_match_loop(tmp_path, block_bytes):
    rows = [f"t{k % 3},s{k % 2},{k + 1},{k % 4}" for k in range(40)]
    text = "treatment_id,session_id,round,state\r\n" + "\r\n".join(rows) + "\r\n"
    path = write(tmp_path, text.encode())
    assert_same_as_loop(path, square_2x2(), block_bytes)
    datasets = load_csv(path, square_2x2())
    assert [d.treatment_id for d in datasets] == ["t0", "t1", "t2"]


def test_interleaved_sessions_keep_first_appearance_order(tmp_path):
    text = (
        "treatment_id,session_id,round,state\n"
        "b,y,1,0\na,x,1,1\nb,z,1,2\nb,y,2,3\na,x,2,0\nb,z,2,1\nb,y,3,2\n"
    )
    datasets = load_csv(write(tmp_path, text.encode()), square_2x2())
    assert [d.treatment_id for d in datasets] == ["b", "a"]
    assert list(datasets[0].session_ids) == ["y", "z"]
    assert sessions_of(datasets[0])[0][1].tolist() == [0, 3, 2]
    assert sessions_of(datasets[1])[0][1].tolist() == [1, 0]


@pytest.mark.parametrize("block_bytes", [4, BLOCK_BYTES])
def test_first_error_wins_across_blocks(tmp_path, block_bytes):
    text = "treatment_id,session_id,round,state\nt,s,1,0\nt,s,2,9\nt,s,1,x\n"
    path = write(tmp_path, text.encode())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_BLOCK_BYTES", block_bytes)
        with pytest.raises(StateOutOfRangeError) as exc:
            load_csv(path, square_2x2())
    assert exc.value.line == 3
    assert_same_as_loop(path, square_2x2(), block_bytes)


def test_non_monotone_across_runs_names_line(tmp_path):
    text = "treatment_id,session_id,round,state\nt,s,1,0\nt,u,1,0\nt,s,1,0\n"
    path = write(tmp_path, text.encode())
    with pytest.raises(NonMonotoneRoundsError, match="session 's'") as exc:
        load_csv(path, square_2x2())
    assert exc.value.line == 4


def test_rounds_beyond_int64_compare_exactly(tmp_path):
    big = 2**70
    text = f"treatment_id,session_id,round,state\nt,s,{big},0\nt,s,{big + 1},1\n"
    path = write(tmp_path, text.encode())
    assert sessions_of(load_csv(path, square_2x2())[0])[0][1].tolist() == [0, 1]
    path = write(tmp_path, text.replace(str(big + 1), str(big)).encode())
    with pytest.raises(NonMonotoneRoundsError) as exc:
        load_csv(path, square_2x2())
    assert exc.value.line == 3


def test_large_state_space_keeps_every_index(tmp_path):
    space = StateSpace(tuple(str(i) for i in range(300)), np.arange(300.0))
    text = "treatment_id,session_id,round,state\n" + "".join(
        f"t,s,{k + 1},{k}\n" for k in range(300)
    )
    datasets = load_csv(write(tmp_path, text.encode()), space)
    assert sessions_of(datasets[0])[0][1].tolist() == list(range(300))


@pytest.mark.parametrize("block_bytes", [1, BLOCK_BYTES])
@pytest.mark.parametrize("quote", [False, True])
def test_invalid_utf8_names_its_line(tmp_path, block_bytes, quote):
    body = b"t,s,1,0\nt,s,2,1\r\nt,\xffs,3,2\nt,s,4,x\n"
    if quote:
        body = b'"t",s,1,0\n' + body.replace(b"t,s,1,0\n", b"")
    path = write(tmp_path, b"treatment_id,session_id,round,state\n" + body)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_BLOCK_BYTES", block_bytes)
        with pytest.raises(ParseError, match="invalid UTF-8 byte 0xff") as exc:
            load_csv(path, square_2x2())
    assert exc.value.line == 4


def test_invalid_utf8_inside_a_quoted_row(tmp_path):
    """The row is cut short where the bad byte ends the text; the error names
    that line, not the cut row's column count."""
    path = write(
        tmp_path,
        b'treatment_id,session_id,round,state\nt,s,1,0\nt,"s\n\xff",2,1\n',
    )
    with pytest.raises(ParseError, match="invalid UTF-8") as exc:
        load_csv(path, square_2x2())
    assert exc.value.line == 4


@pytest.mark.parametrize("where", ["header", "body"])
def test_oversized_quoted_cell_is_a_parse_error(tmp_path, where):
    """csv refuses a field over its size limit; that is bad input (exit 1)."""
    big = '"' + "x" * (csv.field_size_limit() + 1) + '"'
    header = "treatment_id,session_id,round,state"
    if where == "header":
        text = f"{big},{header}\nt,s,1,0\n"
    else:
        text = f"{header}\nt,s,1,0\n{big},s,2,1\nt,s,3,x\n"
    with pytest.raises(ParseError, match="field larger than field limit") as exc:
        load_csv(write(tmp_path, text.encode()), square_2x2())
    assert exc.value.line == (1 if where == "header" else 3)


def test_long_unquoted_cell_is_read(tmp_path):
    tid = "x" * (csv.field_size_limit() + 1)
    text = f"treatment_id,session_id,round,state\n{tid},s,1,0\n{tid},s,2,3\n"
    datasets = load_csv(write(tmp_path, text.encode()), square_2x2())
    assert datasets[0].treatment_id == tid
    assert sessions_of(datasets[0])[0][1].tolist() == [0, 3]


def test_error_before_invalid_utf8_wins(tmp_path):
    path = write(
        tmp_path, b"treatment_id,session_id,round,state\nt,s,1,9\nt,s,2,\xff\n"
    )
    with pytest.raises(StateOutOfRangeError) as exc:
        load_csv(path, square_2x2())
    assert exc.value.line == 2


def test_invalid_utf8_in_header(tmp_path):
    path = write(tmp_path, b"treatment_id,session_id,round,st\xe9te\nt,s,1,0\n")
    with pytest.raises(ParseError, match="invalid UTF-8") as exc:
        load_csv(path, square_2x2())
    assert exc.value.line == 1


@pytest.mark.parametrize("actions", [False, True])
@pytest.mark.parametrize("cell", JUNK + [d.format(1) for d in DECOR + QUOTED_DECOR])
def test_odd_number_cells_match_loop(tmp_path, actions, cell):
    header = ACTION_HEADER if actions else STATE_HEADER
    good = ["t", "s", "2", "1", "0"][: len(header)]
    for column in range(2, len(header)):
        cells = list(good)
        cells[column] = cell
        text = ",".join(header) + "\nt,s,1,0" + ",0" * actions + "\n"
        path = write(tmp_path, (text + ",".join(cells) + "\n").encode())
        assert_same_as_loop(path, square_2x2(), BLOCK_BYTES)


# ---------------------------------------------------------------------------
# well-formed blocks: the comma grid and CRLF line ends
# ---------------------------------------------------------------------------


def strict_rows(n: int) -> list[str]:
    """n action rows as write_csv writes them: two sessions, CRLF ends."""
    return [
        f"T01,s{k * 2 // n + 1},{k + 1},{k % 2},{k // 2 % 2}\r\n" for k in range(n)
    ]


def strict_file(rows: list[str]) -> bytes:
    return (",".join(ACTION_HEADER) + "\r\n" + "".join(rows)).encode()


@pytest.mark.parametrize(
    "pair",
    [
        ["T01,s1,5,0,1,7\r\n", "T01,s1,6,1\r\n"],
        ["T01,s1,5,0\r\n", "T01,s1,6,1,0,1\r\n"],
        ["T01,s1,5,0,1,7\r\n", "T01,s1,6,1,0\r\n", "T01,s1,7\r\n", "T01,s1,8,1,1,1\r\n"],
    ],
    ids=["long-then-short", "short-then-long", "long-short-twice"],
)
def test_compensating_column_counts_in_one_block(tmp_path, pair):
    """The block's comma total is right, but its rows are not."""
    rows = strict_rows(40)
    rows[20 : 20 + len(pair)] = pair
    path = write(tmp_path, strict_file(rows))
    assert_same_as_loop(path, square_2x2(), BLOCK_BYTES)
    with pytest.raises(ParseError, match="expected 5 columns") as exc:
        load_csv(path, square_2x2())
    assert exc.value.line == 22


@pytest.mark.parametrize("where", [1, 20, 39])
def test_one_lone_cr_in_a_crlf_block(tmp_path, where):
    rows = strict_rows(40)
    rows[where] = rows[where].replace("\r\n", "\r")
    path = write(tmp_path, strict_file(rows))
    assert_same_as_loop(path, square_2x2(), BLOCK_BYTES)
    assert len(sessions_of(load_csv(path, square_2x2())[0])[0][1]) == 20


STRICT_FAULTS = FAULTS + ["empty first cell", "empty last cell"]


def _fault(row: str, fault: str) -> str:
    tid, sid, rnd, row_a, col_a = row.rstrip("\r\n").split(",")
    cells = {
        "repeat round": [tid, sid, str(int(rnd) - 1), row_a, col_a],
        "zero round": [tid, sid, "0", row_a, col_a],
        "junk": [tid, sid, rnd, "x", col_a],
        "state range": [tid, sid, rnd, "2", col_a],
        "short": [tid, sid, rnd, row_a],
        "long": [tid, sid, rnd, row_a, col_a, "7"],
        "empty first cell": ["", tid + sid, rnd, row_a, col_a],
        "empty last cell": [tid, sid, rnd, row_a, ""],
    }[fault]
    return ",".join(cells) + "\r\n"


@pytest.mark.parametrize("fault", STRICT_FAULTS)
@pytest.mark.parametrize("where", ["first", "end of block one", "last"])
def test_strict_two_block_file_with_one_fault(tmp_path, where, fault):
    rows = strict_rows(5000)
    data = strict_file(rows)
    assert BLOCK_BYTES < len(data) <= 2 * BLOCK_BYTES
    # the last row whose line end lies in the first block read
    last_in_block = data.count(b"\n", 0, BLOCK_BYTES) - 2
    at = {"first": 0, "end of block one": last_in_block, "last": len(rows) - 1}
    rows[at[where]] = _fault(rows[at[where]], fault)
    path = write(tmp_path, strict_file(rows))
    assert_same_as_loop(path, square_2x2(), BLOCK_BYTES)


# ---------------------------------------------------------------------------
# which parser reads a block
# ---------------------------------------------------------------------------

# `simulate` options of the benchmark's inputs (perfbench/run.py), with
# analyze-1m cut from 25 to 2 sessions per treatment
BENCHMARK_INPUTS = {
    "analyze-1m": "--model square-cycle --forward 0.6 --backward 0.2 --treatments 8"
    " --sessions 2 --rounds 5000 --encoding actions",
    "cycle-long": "--model square-cycle --forward 0.35 --backward 0.25"
    " --treatments 2 --sessions 1 --rounds 20000",
    "vnm-16x16x12": "--model vnm --p 0.4 --q 0.6 --treatments 16 --sessions 16"
    " --rounds 12 --encoding actions",
}


@pytest.mark.parametrize("name", BENCHMARK_INPUTS)
def test_written_files_never_reach_csv(tmp_path, monkeypatch, name):
    path = tmp_path / "input.csv"
    argv = ["simulate", *BENCHMARK_INPUTS[name].split(), "--output", str(path)]
    assert main(argv) == 0

    def no_csv(self, blocks, line):
        raise AssertionError(f"the block from line {line} was read by csv")

    monkeypatch.setattr(dataio._Records, "add_csv", no_csv)
    assert_same_as_loop(path, square_2x2(), BLOCK_BYTES)


IRREGULAR_ROWS = {
    "lone CR": lambda cells: ",".join(cells) + "\r",
    "padded cell": lambda cells: ",".join([*cells[:3], " 1 ", cells[4]]) + "\r\n",
    "19-digit round": lambda cells: ",".join([*cells[:2], str(10**18), *cells[3:]])
    + "\r\n",
    "wrong column count": lambda cells: ",".join([*cells, "7"]) + "\r\n",
}


@pytest.mark.parametrize("case", IRREGULAR_ROWS)
def test_only_the_irregular_block_goes_through_csv(tmp_path, monkeypatch, case):
    rows = strict_rows(5000)
    rows[-1] = IRREGULAR_ROWS[case](rows[-1].rstrip("\r\n").split(","))
    path = write(tmp_path, strict_file(rows))
    calls = []
    add_csv = dataio._Records.add_csv

    def spy(self, blocks, line):
        calls.append(line)
        return add_csv(self, blocks, line)

    monkeypatch.setattr(dataio._Records, "add_csv", spy)
    assert_same_as_loop(path, square_2x2(), BLOCK_BYTES)
    # the first of the file's two blocks is strict; the second holds the row
    assert len(calls) == 1 and calls[0] > 2
