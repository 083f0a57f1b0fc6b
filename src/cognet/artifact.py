"""The one text format of trained artifacts: checkpoints, SVM models, PMI matrices.

    cognet-artifact<TAB>1<TAB>KIND
    KEY<TAB>VALUE                  header: exactly KIND's keys, always with ``system``
    tensor<TAB>NAME<TAB>D1xD2...   followed by one line of tab-separated floats

Floats are written with ``repr`` and so reload bit-exactly.  :func:`load`
checks that the file is UTF-8, the format line, the exact header key set,
every header value, the exact tensor set, each tensor's shape and value
count, and that every value is finite; any defect raises
:class:`ArtifactError` naming the file and line.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

FORMAT, VERSION = "cognet-artifact", "1"


class DataError(ValueError):
    """Input data that cannot give a result: every error that names bad input derives from it."""


class ArtifactError(DataError):
    """A file that is not exactly what its writer writes, reported as ``FILE:LINE: msg``."""

    def __init__(self, path, line: int, msg: str):
        super().__init__(f"{path}:{line}: {msg}")
        self.path, self.line = path, line


def read_text(path) -> str:
    """The file at ``path`` as UTF-8 text, newlines translated as by ``open``.

    A byte sequence that is not UTF-8 raises :class:`ArtifactError` for the
    line that holds it.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = " ".join(f"0x{byte:02x}" for byte in data[exc.start:exc.end])
        line = data.count(b"\n", 0, exc.start) + 1
        raise ArtifactError(path, line, f"not UTF-8: {exc.reason} {bad}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def format_dims(dims) -> str:
    return "x".join(str(d) for d in dims)


def parse_dims(text: str) -> tuple[int, ...]:
    """'2x3' -> (2, 3); every dimension must be a positive integer."""
    dims = tuple(int(d) for d in text.split("x"))
    if min(dims) < 1:
        raise ValueError(f"dimensions must be >= 1, got {text!r}")
    return dims


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def one_of(*choices: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"{text!r} is not one of {list(choices)}")
        return text
    return parse


def save(path, kind: str, header: dict[str, object], tensors: dict[str, np.ndarray]) -> None:
    """Write ``header`` (tuple values as dims) and ``tensors`` as a ``kind`` artifact."""
    lines = [f"{FORMAT}\t{VERSION}\t{kind}"]
    lines += [f"{k}\t{format_dims(v) if isinstance(v, tuple) else v}" for k, v in header.items()]
    for name, tensor in tensors.items():
        lines.append(f"tensor\t{name}\t{format_dims(tensor.shape)}")
        lines.append("\t".join(repr(float(v)) for v in tensor.ravel()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load(path, kind: str, header: dict[str, Callable[[str], object]],
         shapes: Callable[[dict], dict[str, tuple[int, ...]]], system: str | None = None):
    """Read a ``kind`` artifact; returns (header values, tensors, lines).

    The header must hold exactly the keys of ``header``, each value parsed by
    its function there.  ``shapes`` maps the parsed header to the exact tensor
    set and shapes.  A ``system`` other than None must be the recorded one.
    ``lines`` maps each header key and tensor name to its (values) line.
    """
    rows = read_text(path).split("\n")
    if rows.pop() != "":
        raise ArtifactError(path, len(rows) + 1, "file does not end with a newline (truncated?)")

    def at(index: int, msg: str) -> ArtifactError:
        return ArtifactError(path, index + 1, msg)

    first = rows[0].split("\t") if rows else []
    if len(first) != 3 or first[0] != FORMAT:
        raise at(0, f"not a {FORMAT} file")
    if first[1:] != [VERSION, kind]:
        raise at(0, f"holds a {first[2]!r} (version {first[1]}), expected a {kind!r} (version {VERSION})")

    values, tensors, lines = {}, {}, {}
    i = 1
    while i < len(rows) and not rows[i].startswith("tensor\t"):
        key, _, text = rows[i].partition("\t")
        if key not in header or key in lines:
            raise at(i, f"expected each header key of {list(header)} once, as KEY<TAB>VALUE")
        try:
            values[key] = header[key](text)
        except ValueError as exc:
            raise at(i, f"{key}: {exc}") from None
        lines[key] = i + 1
        i += 1
    missing = [k for k in header if k not in values]
    if missing:
        raise at(i, f"header lacks {missing}")
    if system is not None and values["system"] != system:
        raise ArtifactError(path, lines["system"], f"trained for {values['system']!r}, not {system!r}")
    try:
        expected = shapes(values)
    except ValueError as exc:
        raise at(1, f"header: {exc}") from None

    while i < len(rows):
        parts = rows[i].split("\t")
        if len(parts) != 3 or parts[0] != "tensor" or parts[1] not in expected or parts[1] in tensors:
            raise at(i, f"expected each tensor of {list(expected)} once, as tensor<TAB>NAME<TAB>SHAPE")
        name, shape = parts[1], expected[parts[1]]
        if parts[2] != format_dims(shape):
            raise at(i, f"tensor {name!r} has shape {parts[2]!r}, expected {format_dims(shape)!r}")
        cells = rows[i + 1].split("\t") if i + 1 < len(rows) else []
        if len(cells) != math.prod(shape):
            raise at(i + 1, f"tensor {name!r} needs {math.prod(shape)} values, found {len(cells)}")
        try:
            tensors[name] = np.array([finite_float(c) for c in cells]).reshape(shape)
        except ValueError as exc:
            raise at(i + 1, f"tensor {name!r}: {exc}") from None
        lines[name] = i + 2
        i += 2
    missing = [k for k in expected if k not in tensors]
    if missing:
        raise at(i, f"tensor(s) {missing} are missing")
    return values, tensors, lines
