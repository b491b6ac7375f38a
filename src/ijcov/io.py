"""File formats: CSV schemas for datasets, draws, and log-likelihood
matrices, plus JSON (de)serialization of estimates.

Floats are written with ``repr``, Python's shortest round-trip formatting, so
files are bit-exact across platforms and re-reading reproduces the matrices
to the last ulp.  Draw files carry a strictly increasing integer ``draw``
column; log-likelihood files must agree with the draw file row by row.
Validation failures raise :class:`IngestError` citing the 1-based data row.

Draw and log-likelihood files are written row by row with ``repr`` joined
per row, byte-identical to ``csv.writer`` over :func:`fmt`.  They are read
by numpy's C parser, over the lines ``csv`` reads, when the file is plainly
well formed: an unquoted header, no blank lines, at least two rows of the
header's width, every cell finite, and an integral, strictly increasing
``draw`` column.  Any other file goes through the per-cell validator, so
every accepted file yields the same bits and every rejected one the same
:class:`IngestError` message (row, column, reason) on either path.
"""

from __future__ import annotations

import ast
import csv
import json
import math
import operator
import warnings
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import IngestError
from .models import Dataset
from .samplers import PosteriorSample

__all__ = [
    "SCHEMA_VERSION",
    "fmt",
    "write_csv",
    "write_dataset_csv",
    "read_dataset_csv",
    "write_draws_csv",
    "write_loglik_csv",
    "ingest_draws",
    "ingest_loglik",
    "assemble_sample",
    "cov_to_dict",
    "cov_from_dict",
]

SCHEMA_VERSION = 1


def fmt(x) -> str:
    """Shortest round-trip decimal for a float; plain digits for ints;
    strings pass through (label columns)."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def _read_rows(path):
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise IngestError(f"{path}: empty file")
    return rows[0], rows[1:]


def _parse_float(cell: str, row: int, col: str) -> float:
    try:
        val = float(cell)
    except ValueError as exc:
        raise IngestError(f"row {row}: column {col!r} is not numeric: {cell!r}") from exc
    if not math.isfinite(val):
        raise IngestError(f"row {row}: column {col!r} is not finite: {cell!r}")
    return val


def _parse_count(cell: str, row: int, col: str) -> int:
    """An integer cell, exact at any size, or an integral float such as 3.0."""
    try:
        return int(cell)
    except ValueError:
        val = _parse_float(cell, row, col)
    if val != int(val):
        raise IngestError(f"row {row}: y and a must be integers")
    return int(val)


def write_dataset_csv(path, data: Dataset, kind: str) -> None:
    """`kind` "normal": one `x` column; "poisson_re": integer `y,a` columns."""
    if kind == "normal":
        write_csv(path, ["x"], ([float(v)] for v in np.asarray(data.units)))
    elif kind == "poisson_re":
        write_csv(
            path, ["y", "a"], ([int(r[0]), int(r[1])] for r in np.asarray(data.units))
        )
    else:
        raise ValueError(f"unknown dataset kind {kind!r}")


def read_dataset_csv(path) -> tuple[Dataset, str]:
    """Reads either dataset schema back; returns (Dataset, kind)."""
    header, body = _read_rows(path)
    if header == ["x"]:
        vals = []
        for i, row in enumerate(body):
            if len(row) != 1:
                raise IngestError(f"row {i + 1}: expected 1 cell, got {len(row)}")
            vals.append(_parse_float(row[0], i + 1, "x"))
        return Dataset(np.array(vals)), "normal"
    if header == ["y", "a"]:
        units = []
        for i, row in enumerate(body):
            if len(row) != 2:
                raise IngestError(f"row {i + 1}: expected 2 cells, got {len(row)}")
            y, a = (_parse_count(cell, i + 1, col) for cell, col in zip(row, "ya"))
            if not (0 <= y < 2**63 and 0 <= a < 2**63):
                raise IngestError(f"row {i + 1}: y and a must lie in [0, 2^63)")
            units.append([y, a])
        return Dataset(np.array(units, dtype=np.int64)), "poisson_re"
    raise IngestError(f"{path}: unrecognized dataset header {header}")


def _write_indexed_block(path, header, blocks) -> None:
    """Writes ``draw`` = 0..M-1 followed by the row-wise concatenation of
    `blocks` (arrays with M rows).  Rows are converted one at a time, so no
    list of all M x N cells is ever held."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for m, parts in enumerate(zip(*blocks)):
            cells = chain.from_iterable(part.tolist() for part in parts)
            fh.write(f"{m}," + ",".join(map(repr, cells)) + "\r\n")


def write_draws_csv(path, sample: PosteriorSample, param_names=None) -> None:
    """Schema: draw,<param_1..D>,g_1..g_q (draw = 0-based retained index)."""
    d = sample.draws.shape[1]
    q = sample.q
    names = list(param_names) if param_names else [f"p_{j + 1}" for j in range(d)]
    if len(names) != d:
        raise ValueError("param_names length does not match draw dimension")
    header = ["draw", *names, *[f"g_{j + 1}" for j in range(q)]]
    _write_indexed_block(path, header, (sample.draws, sample.g_values))


def write_loglik_csv(path, sample: PosteriorSample) -> None:
    """Schema: draw,ll_1..ll_N."""
    if sample.loglik is None:
        raise ValueError("sample has no log-likelihood matrix")
    n = sample.n_data
    header = ["draw", *[f"ll_{j + 1}" for j in range(n)]]
    _write_indexed_block(path, header, (sample.loglik,))


def _load_indexed_block(path, lead_col: str):
    """The fast path: numpy's C parser over the lines csv would read, accepted
    only when it parsed one row of the header's width per line it consumed
    and the result is the per-cell validator's; None otherwise."""
    rows = 0

    def counted(lines):
        nonlocal rows
        for rows, line in enumerate(lines, 1):
            yield line

    try:
        with open(path, newline="") as fh:
            first = fh.readline()
            if '"' in first:
                return None
            header = next(csv.reader([first]))
            if header[:1] != [lead_col] or len(header) < 2:
                return None
            with warnings.catch_warnings():
                # a body of blank lines warns; the shape check refuses it
                warnings.simplefilter("ignore", UserWarning)
                block = np.loadtxt(counted(fh), delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError, csv.Error):
        return None
    if rows < 2 or block.shape != (rows, len(header)) or not np.isfinite(block).all():
        return None
    draw = block[:, 0]
    if not (np.all(draw == np.floor(draw)) and np.all(np.abs(draw) < 2.0**63)):
        return None
    idx = draw.astype(np.int64)
    if not np.all(idx[1:] > idx[:-1]):
        return None
    # C order as from the cell parser, so later reductions sum in the same order
    return idx, header[1:], np.ascontiguousarray(block[:, 1:])


def _parse_indexed_cells(path, lead_col: str):
    """The per-cell validator: parses any file and names the first bad row."""
    header, body = _read_rows(path)
    if not header or header[0] != lead_col:
        raise IngestError(f"{path}: first column must be {lead_col!r}, got {header[:1]}")
    cols = header[1:]
    if not cols:
        raise IngestError(f"{path}: no data columns")
    idx = np.empty(len(body), dtype=np.int64)
    vals = np.empty((len(body), len(cols)))
    prev = None
    for i, row in enumerate(body):
        r = i + 1
        if len(row) != len(header):
            raise IngestError(
                f"row {r}: expected {len(header)} cells, got {len(row)}"
            )
        d = _parse_float(row[0], r, lead_col)
        if d != int(d):
            raise IngestError(f"row {r}: draw index must be an integer")
        d = int(d)
        if not -(2**63) <= d < 2**63:
            raise IngestError(f"row {r}: draw index {row[0].strip()} outside int64")
        if prev is not None and d <= prev:
            kind = "duplicate" if d == prev else "decreasing"
            raise IngestError(f"row {r}: {kind} draw index {d}")
        prev = d
        idx[i] = d
        for j, col in enumerate(cols):
            vals[i, j] = _parse_float(row[j + 1], r, col)
    if len(body) < 2:
        raise IngestError(f"{path}: need at least 2 draws")
    return idx, cols, vals


def _parse_indexed_block(path, lead_col: str):
    fast = _load_indexed_block(path, lead_col)
    return fast if fast is not None else _parse_indexed_cells(path, lead_col)


def ingest_draws(path):
    """Parse a draws CSV; returns (draw_index, param_names, params, g or None).

    Columns named ``g_*`` are split out as the quantity-of-interest block;
    everything else after ``draw`` is a parameter column.
    """
    idx, cols, vals = _parse_indexed_block(path, "draw")
    g_mask = np.array([c.startswith("g_") for c in cols])
    names = [c for c, m in zip(cols, g_mask) if not m]
    params = vals[:, ~g_mask]
    g = vals[:, g_mask] if g_mask.any() else None
    if params.shape[1] == 0:
        raise IngestError(f"{path}: no parameter columns")
    return idx, names, params, g


def ingest_loglik(path):
    """Parse a log-likelihood CSV; returns (draw_index, M x N matrix)."""
    idx, _, vals = _parse_indexed_block(path, "draw")
    return idx, vals


_G_EXPR_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}
_G_EXPR_FUNCS = ("exp", "log", "sqrt", "abs", "sin", "cos", "tanh")


def _eval_g_expr(expr: str, env: dict):
    """Evaluates `expr` over the column arrays in `env`.  Only column names,
    numbers, + - * / **, unary minus and ``np.<fn>(x)`` for the functions in
    _G_EXPR_FUNCS are allowed; anything else raises ValueError."""

    def ev(node):
        if isinstance(node, ast.BinOp) and type(node.op) in _G_EXPR_OPS:
            return _G_EXPR_OPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return float(node.value)  # float powers overflow instead of growing
        if isinstance(node, ast.Name):
            if node.id not in env:
                raise ValueError(f"name {node.id!r} is not a parameter column")
            return env[node.id]
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
            and node.func.attr in _G_EXPR_FUNCS
            and len(node.args) == 1
            and not node.keywords
        ):
            return getattr(np, node.func.attr)(ev(node.args[0]))
        raise ValueError(f"unsupported expression {ast.unparse(node)!r}")

    return ev(ast.parse(expr, mode="eval").body)


def assemble_sample(
    draws_path, loglik_path=None, *, g_cols=None, g_expr=None
) -> PosteriorSample:
    """Build a PosteriorSample from external files.

    g resolution order: explicit ``g_*`` columns in the file, then
    ``g_cols`` (comma-separated 1-based parameter column indices), then
    ``g_expr`` (a numpy expression over parameter column names, e.g.
    "p_1 + 2*p_2").  Having none is an error.
    """
    idx, names, params, g = ingest_draws(draws_path)
    if g is None and g_cols is not None:
        try:
            sel = [int(s) for s in str(g_cols).split(",")]
        except ValueError as exc:
            raise IngestError(f"--g-cols must be integers, got {g_cols!r}") from exc
        if any(not (1 <= s <= params.shape[1]) for s in sel):
            raise IngestError(
                f"--g-cols out of range 1..{params.shape[1]}: {g_cols!r}"
            )
        g = params[:, [s - 1 for s in sel]]
    if g is None and g_expr is not None:
        env = {name: params[:, j] for j, name in enumerate(names)}
        try:
            val = _eval_g_expr(g_expr, env)
        except Exception as exc:
            raise IngestError(f"--g-expr failed: {exc}") from exc
        g = np.asarray(val, dtype=np.float64)
        if g.shape != (params.shape[0],):
            raise IngestError(
                f"--g-expr must give one value per draw ({params.shape[0]}), "
                f"got shape {g.shape}"
            )
        g = g[:, None]
    if g is None:
        raise IngestError(
            "no g columns in the draws file; pass --g-cols or --g-expr"
        )

    loglik = None
    n_data = 0
    if loglik_path is not None:
        lidx, loglik = ingest_loglik(loglik_path)
        if loglik.shape[0] != params.shape[0]:
            raise IngestError(
                f"row-count mismatch: {params.shape[0]} draws vs "
                f"{loglik.shape[0]} log-likelihood rows"
            )
        neq = np.nonzero(lidx != idx)[0]
        if neq.size:
            raise IngestError(
                f"row {neq[0] + 1}: draw index differs between files "
                f"({idx[neq[0]]} vs {lidx[neq[0]]})"
            )
        n_data = loglik.shape[1]

    return PosteriorSample(
        draws=params,
        g_values=g,
        loglik=loglik,
        n_data=n_data,
    )


def cov_to_dict(est) -> dict:
    d = {
        "v": est.v.tolist(),
        "method": est.method,
        "se": None if est.se is None else est.se.tolist(),
        "b_or_m": est.b_or_m,
    }
    return d


def cov_from_dict(d):
    from .estimators import CovEstimate

    return CovEstimate(
        v=np.asarray(d["v"], dtype=np.float64),
        method=d["method"],
        se=None if d.get("se") is None else np.asarray(d["se"], dtype=np.float64),
        b_or_m=int(d.get("b_or_m", 0)),
    )


def write_json(path, obj) -> None:
    """Write `obj` as strict JSON: a NaN or infinity raises ValueError before
    the file is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
