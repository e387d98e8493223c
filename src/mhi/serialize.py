"""Canonical text writers: JSON for model files and prediction output, and
CSV for feature and confusion tables.

The stdlib ``json`` module no longer allows overriding float formatting, and
the model-file contract wants every float as a 17-significant-digit decimal
(the shortest width guaranteed to round-trip any double exactly). This small
dumper walks plain Python/numpy structures and emits deterministic bytes:
insertion-ordered keys, fixed separators, ``%.17g`` floats.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np


def format_float(value: float) -> str:
    """17-significant-digit decimal of a finite float, the one float format of
    every text output; non-finite values raise ``ValueError``."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value cannot be serialized: {value}")
    return format(value, ".17g")


def dumps(obj, indent: int = 0) -> str:
    """Serialize ``obj`` to a canonical JSON string."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dumps(item, indent + 2) for item in obj]
        return "[\n" + ",\n".join(inner + i for i in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {dumps(v, indent + 2)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_bytes(obj) -> bytes:
    """Canonical JSON document as UTF-8 bytes with a trailing newline."""
    return (dumps(obj) + "\n").encode("utf-8")


def csv_text(rows) -> str:
    """CSV text of ``rows`` (lists of strings), each ended by ``"\\n"``, that
    ``csv.reader`` reads back field for field. A row holding a ``"\\r"`` is
    quoted in full: the minimal writer leaves it bare, and the reader splits
    rows on it."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in rows:
        (quoted if any("\r" in field for field in row) else writer).writerow(row)
    return out.getvalue()
