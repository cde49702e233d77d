"""On-disk JSON formats for designs and exported codes.

Design files carry the fields v, k, t, lambda, directed, blocks (in that
order, UTF-8); k is null for variable block sizes and points are 0-based.
Code files carry type ("cw" or "indel"), length, weight or alphabet, and the
word list: 0/1 strings for constant-weight words (leftmost character is
point 0), integer arrays for deletion-code words.  Both kinds are written
as one line of JSON and read in any layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Union

from .codes import ConstantWeightCode, IndelCode
from .core import Design, DesignParams, DirectedPackingDesign, PackingDesign, StructuralError


@dataclass(frozen=True)
class DesignDocument:
    """A design plus the problem parameters stored alongside it."""

    design: Design
    k: int | None
    t: int
    lam: int

    @property
    def directed(self) -> bool:
        return isinstance(self.design, DirectedPackingDesign)

    @property
    def params(self) -> DesignParams:
        if self.k is None:
            raise ValueError("variable-size design document carries no block size k")
        return DesignParams(self.design.v, self.k, self.t, self.lam)


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


def _int_rows(data: dict, key: str, kind: str) -> list:
    """``data[key]`` as a list of integer lists; the points are walked only to name a bad one."""
    rows = data[key]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise StructuralError(f"malformed {kind} file: {key!r} must be a list of integer lists")
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        bad = next(x for x in chain.from_iterable(rows) if type(x) is not int)
        raise StructuralError(f"malformed {kind} file: point {bad!r} is not an integer")
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
    t = _require_int(data, "t")
    lam = _require_int(data, "lambda")
    if t < 1 or lam < 1:
        raise StructuralError(f"malformed design file: need t, lambda >= 1, got {t}, {lam}")
    k = data["k"] if data["k"] is None else _require_int(data, "k")
    directed = data["directed"]
    if not isinstance(directed, bool):
        raise StructuralError("malformed design file: 'directed' must be a boolean")
    # the design's constructor makes each block a tuple, so the lists go in as read
    design = (DirectedPackingDesign if directed else PackingDesign)(v, _int_rows(data, "blocks", "design"))
    for block in design.blocks if k is not None else ():
        if len(block) > k:
            raise StructuralError(f"malformed design file: block {block} larger than k={k}")
    return DesignDocument(design, k, t, lam)


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
    Path(path).write_text(dumps_design(doc), encoding="utf-8")
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
    Path(path).write_text(dumps_code(code), encoding="utf-8")


def load_code(path: str | Path) -> Union[ConstantWeightCode, IndelCode]:
    return code_from_dict(_decode(Path(path).read_text(encoding="utf-8"), "code"))
