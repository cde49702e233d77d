"""On-disk JSON formats for designs and exported codes.

Design files carry the fields v, k, t, lambda, directed, blocks (in that
order, UTF-8); k is null for variable block sizes and points are 0-based.
``DesignDocument`` checks that header whether the document is written or read.
Code files carry type ("cw" or "indel"), length, weight or alphabet, and the
word list: 0/1 strings for constant-weight words (leftmost character is
point 0), integer arrays for deletion-code words.  Both kinds are written
as one line of JSON and read in any layout.

``write_file`` makes every write of the package, the CLI's ``-o`` included.
It overwrites a file in place: it opens without ``O_TRUNC``, writes, and
then cuts a regular file to the length written.  Opening with ``O_TRUNC``,
which cuts an existing file to zero before the write, costs 95-150 us per
rewrite of a 300 B or 20 KB file on ext4 mounted ``discard``, where the
in-place write takes 12-20 us; a pipeline re-run over its own outputs pays
that per file.  Devices and pipes (``-o /dev/null``, ``-o /dev/stdout``)
are not cut.
"""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path
from typing import Union

from .codes import ConstantWeightCode, IndelCode
from .core import (
    Design, DesignParams, DirectedPackingDesign, PackingDesign, StructuralError, _first_non_int,
    _Value,
)


class DesignDocument(_Value):
    """A design plus its header: t, lam ints >= 1, k None or an int that no block outgrows.

    The header must also fit the point count: v >= k >= t, or v >= t when k
    is None, so that every document gives ``DesignParams(v, k or v, t, lam)``.
    """

    def __init__(self, design: Design, k: int | None, t: int, lam: int) -> None:
        for key, value in (("t", t), ("lambda", lam)):
            if type(value) is not int:  # a bool is not an int here
                raise StructuralError(f"{key!r} must be an integer")
        if t < 1 or lam < 1:
            raise StructuralError(f"need t, lambda >= 1, got {t}, {lam}")
        if k is not None and type(k) is not int:
            raise StructuralError("'k' must be an integer")
        if k is not None and design.blocks and max(map(len, design.blocks)) > k:
            block = next(block for block in design.blocks if len(block) > k)
            raise StructuralError(f"block {block} larger than k={k}")
        if k is None and design.v < t:
            raise StructuralError(f"need v >= t, got v={design.v} t={t}")
        if k is not None and not design.v >= k >= t:
            raise StructuralError(f"need v >= k >= t, got v={design.v} k={k} t={t}")
        self.__dict__.update(design=design, k=k, t=t, lam=lam)

    @property
    def directed(self) -> bool:
        return isinstance(self.design, DirectedPackingDesign)

    @property
    def params(self) -> DesignParams:
        if self.k is None:
            raise ValueError("variable-size design document carries no block size k")
        return DesignParams(self.design.v, self.k, self.t, self.lam)


def write_file(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 in place, then cut a regular file to its length.

    A new file gets mode 0o666 less the umask, and symlinks are followed, as by
    ``open(path, "w")``; an existing file is not truncated before the write.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as out:
        out.write(text)
        if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
            out.truncate()


def _decode(text: str, kind: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"malformed {kind} file: {exc}") from exc


def _fields(data: object, kind: str, keys: tuple[str, ...]) -> dict:
    if not isinstance(data, dict):
        raise StructuralError(f"malformed {kind} file: expected a JSON object")
    missing = [key for key in keys if key not in data]
    if missing:
        raise StructuralError(f"malformed {kind} file: missing keys {missing}")
    return data


def _require_int(data: dict, key: str, kind: str = "design") -> int:
    value = data[key]
    if type(value) is not int:  # bool is a subclass of int, not an int here
        raise StructuralError(f"malformed {kind} file: {key!r} must be an integer")
    return value


def _rows(data: dict, key: str, kind: str) -> list:
    """``data[key]`` as a list of lists; a design checks the types of its points itself."""
    rows = data[key]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise StructuralError(f"malformed {kind} file: {key!r} must be a list of integer lists")
    return rows


def _int_rows(data: dict, key: str, kind: str) -> list:
    """``data[key]`` as a list of integer lists; the points are walked only to name a bad one."""
    rows = _rows(data, key, kind)
    bad = _first_non_int(rows)
    if bad:
        raise StructuralError(f"malformed {kind} file: point {bad[1]!r} is not an integer")
    return rows


def design_to_dict(doc: DesignDocument) -> dict:
    return {
        "v": doc.design.v,
        "k": doc.k,
        "t": doc.t,
        "lambda": doc.lam,
        "directed": doc.directed,
        "blocks": [list(block) for block in doc.design.blocks],
    }


def design_from_dict(data: object) -> DesignDocument:
    data = _fields(data, "design", ("v", "k", "t", "lambda", "directed", "blocks"))
    v = _require_int(data, "v")
    directed = data["directed"]
    if not isinstance(directed, bool):
        raise StructuralError("malformed design file: 'directed' must be a boolean")
    # the design's constructor checks the points and makes each block a tuple,
    # so the lists go in as read; the document checks the header
    design = (DirectedPackingDesign if directed else PackingDesign)(v, _rows(data, "blocks", "design"))
    try:
        return DesignDocument(design, data["k"], data["t"], data["lambda"])
    except StructuralError as exc:
        raise StructuralError(f"malformed design file: {exc}") from exc


def dumps_design(doc: DesignDocument) -> str:
    return json.dumps(design_to_dict(doc)) + "\n"


def loads_design(text: str) -> DesignDocument:
    return design_from_dict(_decode(text, "design"))


def save_design(
    path: str | Path,
    design: Design,
    *,
    k: int | None,
    t: int = 2,
    lam: int = 1,
) -> DesignDocument:
    doc = DesignDocument(design, k, t, lam)
    write_file(path, dumps_design(doc))
    return doc


def load_design(path: str | Path) -> DesignDocument:
    return loads_design(Path(path).read_text(encoding="utf-8"))


# bit 0 and bit 1 as the digits "0" and "1" of a word written as a string
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def code_to_dict(code: Union[ConstantWeightCode, IndelCode]) -> dict:
    if isinstance(code, ConstantWeightCode):
        return {
            "type": "cw",
            "length": code.length,
            "weight": code.weight,
            "words": [bytes(w).translate(_BIT_DIGITS).decode() for w in code.words],
        }
    return {
        "type": "indel",
        "length": code.word_length,
        "alphabet": code.alphabet_size,
        "words": [list(w) for w in code.words],
    }


def code_from_dict(data: object) -> Union[ConstantWeightCode, IndelCode]:
    kind = _fields(data, "code", ("type",))["type"]
    if kind not in ("cw", "indel"):
        raise StructuralError(f"malformed code file: unknown type {kind!r}")
    keys = ("length", "weight" if kind == "cw" else "alphabet", "words")
    _fields(data, "code", keys)
    length = _require_int(data, "length", "code")
    size = _require_int(data, keys[1], "code")
    if kind == "cw":
        words = data["words"]
        if not isinstance(words, list) or any(
            not isinstance(w, str) or set(w) - {"0", "1"} for w in words
        ):
            raise StructuralError("malformed code file: 'words' must be a list of 0/1 strings")
        return ConstantWeightCode(length, size, tuple(tuple(map(int, w)) for w in words))
    words = _int_rows(data, "words", "code")  # IndelCode makes each word a tuple
    repeats = any(len(set(w)) != len(w) for w in words)
    return IndelCode(size, length, words, allow_repeats=repeats)


def dumps_code(code: Union[ConstantWeightCode, IndelCode]) -> str:
    return json.dumps(code_to_dict(code)) + "\n"


def save_code(path: str | Path, code: Union[ConstantWeightCode, IndelCode]) -> None:
    write_file(path, dumps_code(code))


def load_code(path: str | Path) -> Union[ConstantWeightCode, IndelCode]:
    return code_from_dict(_decode(Path(path).read_text(encoding="utf-8"), "code"))
