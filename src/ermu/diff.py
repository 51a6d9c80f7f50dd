"""``ermu diff A B``: what changed between two results directories.

Every file under either directory is compared with its namesake. Equal
bytes print ``identical``. Otherwise a CSV artifact is read column by
column over rows paired in file order, a JSON artifact leaf by leaf, and a
saved matrix entry by entry:

* a numeric column, or the numeric leaves that share a path up to their
  list positions, gives its count of changed values and the largest
  absolute and relative change, |b - a| / max(|a|, |b|), and the sums of
  both sides (``iters`` reads as the total iteration count);
* every other changed value (flags, booleans, names) is listed with the
  cell it belongs to: a CSV row's family, n, trial, s and arm, or a JSON
  path whose list elements are named by their family and n.

Two NaNs are equal. A value that turns non-finite counts as an infinite
change. A CSV row pair in which either row has more or fewer fields than
the header is reported by its data row number (from 1) and cell, with both
field counts, and left out of the column comparisons.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

from ermu.matio import load_matrix

# The CSV fields that name a row's cell, in the order they are printed.
_CELL_FIELDS = ("family", "n", "trial", "s")


class _Numbers:
    """Changed-value count, largest changes and sums of one numeric column or leaf group."""

    def __init__(self) -> None:
        self.total = self.changed = 0
        self.max_abs = self.max_rel = 0.0
        self.sum_a = self.sum_b = 0.0

    def add(self, a: float, b: float) -> None:
        self.total += 1
        self.sum_a += a
        self.sum_b += b
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        self.changed += 1
        change = abs(b - a)
        scale = max(abs(a), abs(b))
        rel = change / scale if scale > 0 else math.inf
        self.max_abs = max(self.max_abs, change if change == change else math.inf)
        self.max_rel = max(self.max_rel, rel if rel == rel else math.inf)

    def line(self, name: str) -> str:
        return (f"  {name}: {self.changed} of {self.total} changed, max abs {self.max_abs:.3g}, "
                f"max rel {self.max_rel:.3g}, sum {self.sum_a:.17g} -> {self.sum_b:.17g}")


def _float(text):
    if isinstance(text, bool):
        return None
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _row_cell(header: list[str], row: list[str]) -> str:
    fields = dict(zip(header, row))
    parts = [f"{k}={fields[k]}" for k in _CELL_FIELDS if k in fields]
    parts += [flag for flag in fields.get("flags", "").split(";") if flag.startswith("arm:")]
    return " ".join(parts)


def _diff_csv(a: Path, b: Path) -> list[str]:
    rows_a = list(csv.reader(a.read_text().splitlines()))
    rows_b = list(csv.reader(b.read_text().splitlines()))
    header = rows_a[0] if rows_a else []
    if not rows_b or rows_b[0] != header:
        return [f"  header: {rows_a[:1]} -> {rows_b[:1]}"]
    body_a, body_b = rows_a[1:], rows_b[1:]
    out = [] if len(body_a) == len(body_b) else [f"  rows: {len(body_a)} -> {len(body_b)}"]
    pairs = []
    for i, (ra, rb) in enumerate(zip(body_a, body_b), 1):
        if len(ra) == len(rb) == len(header):
            pairs.append((ra, rb))
        else:
            out.append(f"  row {i} [{_row_cell(header, ra)}]: {len(ra)} fields -> {len(rb)} fields")
    for col, name in enumerate(header):
        values = [(ra[col], rb[col]) for ra, rb in pairs]
        numbers = [(_float(x), _float(y)) for x, y in values]
        if name != "flags" and all(x is not None and y is not None for x, y in numbers):
            stats = _Numbers()
            for x, y in numbers:
                stats.add(x, y)
            if stats.changed:
                out.append(stats.line(name))
            continue
        for (ra, _), (x, y) in zip(pairs, values):
            if x != y:
                out.append(f"  {name} [{_row_cell(header, ra)}]: {x} -> {y}")
    return out


def _leaves(node, path: str, out: dict) -> dict:
    """{labelled path: leaf}; a list element is named by its family and n, else its index."""
    if isinstance(node, dict):
        for key, value in node.items():
            _leaves(value, f"{path}.{key}" if path else str(key), out)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            names = [f"{k}={value[k]}" for k in ("family", "n")
                     if isinstance(value, dict) and k in value]
            _leaves(value, f"{path}[{','.join(names) or i}]", out)
    else:
        out[path] = node
    return out


def _group(path: str) -> str:
    """``path`` with every list element's name dropped: the leaves a numeric summary pools."""
    return re.sub(r"\[[^\]]*\]", "[]", path)


def _diff_json(a: Path, b: Path) -> list[str]:
    leaves_a = _leaves(json.loads(a.read_text()), "", {})
    leaves_b = _leaves(json.loads(b.read_text()), "", {})
    out = [f"  only in {side}: {path}"
           for side, mine, other in (("A", leaves_a, leaves_b), ("B", leaves_b, leaves_a))
           for path in mine if path not in other]
    groups: dict[str, _Numbers] = {}
    for path, x in leaves_a.items():
        if path not in leaves_b:
            continue
        y = leaves_b[path]
        fx, fy = _float(x), _float(y)
        if fx is not None and fy is not None:
            groups.setdefault(_group(path), _Numbers()).add(fx, fy)
        elif x != y:
            out.append(f"  {path}: {json.dumps(x)} -> {json.dumps(y)}")
    out += [stats.line(name) for name, stats in groups.items() if stats.changed]
    return out


def _diff_matrix(a: Path, b: Path) -> list[str]:
    ma, mb = load_matrix(a), load_matrix(b)
    if ma.shape != mb.shape:
        return [f"  shape: {ma.shape} -> {mb.shape}"]
    stats = _Numbers()
    for x, y in zip(ma.ravel().tolist(), mb.ravel().tolist()):
        stats.add(x, y)
    return [stats.line("entries")]


_READERS = {".csv": _diff_csv, ".json": _diff_json, ".ermumat": _diff_matrix}


def diff_dirs(a: Path, b: Path) -> tuple[list[str], bool]:
    """The report of ``ermu diff a b``, one line each, and whether any file differs."""
    names = sorted({p.relative_to(root).as_posix()
                    for root in (a, b) for p in root.rglob("*") if p.is_file()})
    lines, differ = [], False
    for name in names:
        fa, fb = a / name, b / name
        if not (fa.is_file() and fb.is_file()):
            lines.append(f"{name}: only in {'A' if fa.is_file() else 'B'}")
            differ = True
        elif fa.read_bytes() == fb.read_bytes():
            lines.append(f"{name}: identical")
        else:
            differ = True
            reader = _READERS.get(fa.suffix)
            lines.append(f"{name}: differs")
            lines.extend(reader(fa, fb) if reader else [])
    return lines, differ
