"""Per-trial trajectory logs and their on-disk CSV form.

A TrialRecord holds everything needed to audit a finished trial, or a
block of its steps: states, the three input components, process noise,
breaker flags, stage costs, and the feedback gain in effect over each span
of steps. The CSV schema is
``k,x...,u_ce...,u_cb...,u_pr...,w...,breaker,stage_cost`` with vector
fields expanded to one indexed column per component; floats are written as
their shortest round-tripping decimal form, so a load returns bit-identical
values. A load parses the rows in blocks of at most NOISE_CHUNK, one
np.loadtxt call each, so a cell must be a
plain ASCII decimal or nan/inf, which is all a save writes; underscored or
non-ASCII digits, which float() accepts, fail to parse, and the error names
the row, as for any other bad cell. Gain history does
not fit a flat per-step CSV row, so it travels in a JSON sidecar next to
each trial file. A record holds exactly what a log and its sidecar hold:
the state after the last step is not kept, since regret.TrialFold derives
it from the last row with plant.step. The fold reads blocks of rows:
TrialRecord.rows cuts them from a running trial, load_trial_csv from a log.
"""

from __future__ import annotations

import json
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from typing import NoReturn

import numpy as np

from .errors import IncompleteLog, IoError
from .plant import NOISE_CHUNK

BREAKER_CLEAR = 0   # feedback passed through (u_cb = u_ce)
BREAKER_DWELL = 1   # dwell period running, feedback zeroed
BREAKER_TRIGGER = 2  # threshold exceeded this step, dwell counter set


@dataclass(frozen=True)
class TrialRecord:
    """Trajectory of one trial, or of a block of its consecutive steps,
    shape-checked at construction.

    ``X[i]`` is the state at step first_step + i, and row i's inputs and
    noise lead from it to ``X[i + 1]``; ``horizon`` is the step of the last
    row, T for a whole trial. The state after a trial's last step is one
    plant.step from the last row. ``gain_segments`` lists
    ``(from_step, K)`` pairs: K is the feedback gain in effect from that
    step until the next segment starts. A field whose shape disagrees with
    ``X`` and ``U_ce``, or a gain that is not (m, n), raises IncompleteLog
    naming the field. run_trials's records are strided views of the batch
    arrays; every reader gives the bits of a contiguous copy.
    """

    trial_index: int
    seed: int
    X: np.ndarray            # (T, n)
    U_ce: np.ndarray         # (T, m)
    U_cb: np.ndarray         # (T, m)
    U_pr: np.ndarray         # (T, m)
    W: np.ndarray            # (T, n)
    breaker: np.ndarray      # (T,) int8 codes above
    stage_cost: np.ndarray   # (T,)
    gain_segments: list[tuple[int, np.ndarray]] = field(default_factory=list)
    first_step: int = 1

    @property
    def horizon(self) -> int:
        return self.first_step + self.X.shape[0] - 1

    @property
    def n(self) -> int:
        return self.X.shape[1]

    @property
    def m(self) -> int:
        return self.U_ce.shape[1]

    def __post_init__(self):
        T, n = self.X.shape
        m = self.U_ce.shape[1]
        for name, arr, shape in (("U_ce", self.U_ce, (T, m)),
                                 ("U_cb", self.U_cb, (T, m)),
                                 ("U_pr", self.U_pr, (T, m)),
                                 ("W", self.W, (T, n)),
                                 ("breaker", self.breaker, (T,)),
                                 ("stage_cost", self.stage_cost, (T,))):
            if arr is None or tuple(arr.shape) != shape:
                raise IncompleteLog(
                    f"trial {self.trial_index}: field {name} has shape "
                    f"{None if arr is None else arr.shape}, expected {shape}")
        for start, K in self.gain_segments:
            if np.shape(K) != (m, n):
                raise IncompleteLog(
                    f"trial {self.trial_index}: field gain_segments has a "
                    f"gain of shape {np.shape(K)} from step {start}, "
                    f"expected {(m, n)}")

    def rows(self, start: int, stop: int) -> TrialRecord:
        """Rows start:stop, clipped like a slice, as a record of their
        steps: views of these arrays, the gain history kept."""
        cut = slice(start, stop)
        return replace(self, X=self.X[cut], U_ce=self.U_ce[cut],
                       U_cb=self.U_cb[cut], U_pr=self.U_pr[cut],
                       W=self.W[cut], breaker=self.breaker[cut],
                       stage_cost=self.stage_cost[cut],
                       first_step=self.first_step + start)


def csv_header(n: int, m: int) -> str:
    cols = ["k"]
    cols += [f"x_{i+1}" for i in range(n)]
    for prefix in ("u_ce", "u_cb", "u_pr"):
        cols += [f"{prefix}_{i+1}" for i in range(m)]
    cols += [f"w_{i+1}" for i in range(n)]
    cols += ["breaker", "stage_cost"]
    return ",".join(cols)


def save_trial_csv(record: TrialRecord, path: str) -> None:
    """Write the record's rows under the schema header.

    Python floats repr to the shortest digits that round-trip exactly.
    Cells are formatted a column at a time over blocks of at most
    NOISE_CHUNK rows, so the strings held at once do not grow with the
    horizon. A u_cb cell equal to the u_ce cell beside it, as at every step
    the breaker passes, reuses that cell's string. A file that cannot be
    written raises IoError naming it.
    """
    try:
        with open(path, "w") as f:
            f.write(csv_header(record.n, record.m) + "\n")
            for a in range(0, record.horizon, NOISE_CHUNK):
                rows = slice(a, min(a + NOISE_CHUNK, record.horizon))
                ce, cb = record.U_ce[rows], record.U_cb[rows]
                ce_cells = [list(map(repr, col)) for col in ce.T.tolist()]
                cb_cells = [list(cells) for cells in ce_cells]
                # equal values of one sign are one float, so the same digits
                same = (cb == ce) & (np.signbit(cb) == np.signbit(ce))
                for i, j in np.argwhere(~same).tolist():
                    cb_cells[j][i] = repr(cb[i, j].item())
                columns = [map(str, range(rows.start + 1, rows.stop + 1))]
                columns += [map(repr, col)
                            for col in record.X[rows].T.tolist()]
                columns += ce_cells + cb_cells
                columns += [map(repr, col) for arr in (record.U_pr, record.W)
                            for col in arr[rows].T.tolist()]
                columns.append(map(str, record.breaker[rows].tolist()))
                columns.append(map(repr, record.stage_cost[rows].tolist()))
                f.write("\n".join(map(",".join, zip(*columns))))
                f.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _raise_bad_row(f, path: str, width: int, first: int,
                   reason: str) -> NoReturn:
    """Raise IncompleteLog naming the first row of the open log ``f``, from
    step ``first`` on, that has the wrong field count or that the parse in
    load_trial_csv rejects, counting lines from the header as row 1; with
    no such row, raise it for ``reason``. The rows before step ``first``
    parsed already, so their lines, blank ones included, are only counted.
    np.loadtxt numbers rows its own way, so each later line is parsed here
    alone, by the same call, and named by its line."""
    f.seek(0)
    f.readline()
    # the step of the row on the current line
    step = 0
    for lineno, line in enumerate(f, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        step += 1
        if step < first:
            continue
        fields = line.count(",") + 1
        if fields != width:
            raise IncompleteLog(
                f"{path}: row {lineno} has {fields} fields, "
                f"expected {width}")
        try:
            np.loadtxt([line], delimiter=",", comments=None)
        except ValueError as exc:
            # loadtxt counts this one line as row 0
            message = str(exc).replace(" at row 0, column", " in column")
            raise IncompleteLog(
                f"{path}: row {lineno} failed to parse: {message}") from None
    raise IncompleteLog(f"{path}: failed to parse: {reason}")


def load_trial_csv(path: str,
                   trial_index: int = -1) -> Iterator[TrialRecord]:
    """Parse a trial CSV into TrialRecords of its consecutive blocks of at
    most NOISE_CHUNK rows, in step order.

    The seed (set to -1) and gain history are not part of the CSV; callers
    that need the gains read them from the sidecar. A block's rows are one
    (L, width) array from np.loadtxt with max_rows on the open file, and
    its fields are column slices of it. Raises IncompleteLog naming the row
    on any structural or parse problem, as the block holding it is read,
    and naming the file when it cannot be opened.
    """
    # an undecodable byte becomes U+FFFD, which no header or number matches
    try:
        f = open(path, encoding="utf-8", errors="replace")
    except OSError as exc:
        raise IncompleteLog(f"cannot read {path}: {exc}") from None
    with f:
        header = f.readline().rstrip("\n")
        names = header.split(",")
        n = sum(1 for c in names if c.startswith("x_"))
        m = sum(1 for c in names if c.startswith("u_ce_"))
        if n < 1 or m < 1 or names != csv_header(n, m).split(","):
            raise IncompleteLog(f"{path}: header does not match the trial schema")
        width = len(names)
        first = 1
        while True:
            try:
                with warnings.catch_warnings():
                    # a log without rows is reported below and a blank
                    # line is skipped, neither warned about
                    warnings.filterwarnings("ignore", ".*contained no data")
                    data = np.loadtxt(f, delimiter=",", comments=None,
                                      ndmin=2, max_rows=NOISE_CHUNK)
                if len(data) and data.shape[1] != width:
                    raise ValueError(f"rows have {data.shape[1]} fields, "
                                     f"expected {width}")
            except ValueError as exc:
                _raise_bad_row(f, path, width, first, str(exc))
            if not len(data):
                if first == 1:
                    raise IncompleteLog(f"{path}: no data rows")
                return
            steps, X, U_ce, U_cb, U_pr, W, codes, stage = np.split(
                data, np.cumsum([1, n, m, m, m, n, 1]), axis=1)
            if not np.array_equal(steps[:, 0], first + np.arange(len(data))):
                raise IncompleteLog(f"{path}: step column is not the "
                                    f"integers 1, 2, ... in order")
            breaker = codes[:, 0].astype(np.int8)
            if not np.array_equal(codes[:, 0], breaker):
                raise IncompleteLog(
                    f"{path}: breaker column contains non-integer codes")
            if np.any((breaker < 0) | (breaker > 2)):
                raise IncompleteLog(f"{path}: breaker codes outside 0..2")
            yield TrialRecord(trial_index=trial_index, seed=-1, X=X,
                              U_ce=U_ce, U_cb=U_cb, U_pr=U_pr, W=W,
                              breaker=breaker, stage_cost=stage[:, 0],
                              first_step=first)
            if len(data) < NOISE_CHUNK:
                return
            first += len(data)


def save_gain_sidecar(record: TrialRecord, path: str) -> None:
    """Write the gain history as JSON; IoError names an unwritable path."""
    doc = {
        "trial": record.trial_index,
        "seed": record.seed,
        "gain_segments": [
            {"from_step": int(start), "K": K.tolist()}
            for start, K in record.gain_segments
        ],
    }
    try:
        with open(path, "w") as f:
            f.write(json.dumps(doc, sort_keys=True) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_gain_sidecar(path: str) -> list[tuple[int, np.ndarray]]:
    """Gain segments from a sidecar; IncompleteLog names a file that
    cannot be opened or is bad, a gain with a NaN or infinite entry
    included."""
    try:
        with open(path) as f:
            doc = json.load(f)
        segments = [(int(seg["from_step"]), np.array(seg["K"], dtype=float))
                    for seg in doc.get("gain_segments", [])]
    except OSError as exc:
        raise IncompleteLog(f"cannot read {path}: {exc}") from None
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise IncompleteLog(f"{path}: malformed gain sidecar: "
                            f"{type(exc).__name__}: {exc}") from None
    if not segments:
        raise IncompleteLog(f"{path}: no gain segments recorded")
    for start, K in segments:
        if not np.isfinite(K).all():
            raise IncompleteLog(f"{path}: the gain from step {start} has a "
                                f"non-finite entry")
    return segments
