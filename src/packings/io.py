"""On-disk JSON formats for designs and exported codes.

Design files carry the fields v, k, t, lambda, directed, blocks (in that
order, UTF-8); k is null for variable block sizes and points are 0-based.
Code files carry type ("cw" or "indel"), length, weight or alphabet, and the
word list: 0/1 strings for constant-weight words (leftmost character is
point 0), integer arrays for deletion-code words.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(data: dict, key: str, kind: str = "design") -> int:
    value = data[key]
    if not _is_int(value):
        raise StructuralError(f"malformed {kind} file: {key!r} must be an integer")
    return value


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
    if not isinstance(data, dict):
        raise StructuralError("malformed design file: expected a JSON object")
    missing = [key for key in ("v", "k", "t", "lambda", "directed", "blocks") if key not in data]
    if missing:
        raise StructuralError(f"malformed design file: missing keys {missing}")
    v = _require_int(data, "v")
    t = _require_int(data, "t")
    lam = _require_int(data, "lambda")
    if t < 1 or lam < 1:
        raise StructuralError(f"malformed design file: need t, lambda >= 1, got {t}, {lam}")
    k = data["k"] if data["k"] is None else _require_int(data, "k")
    directed = data["directed"]
    if not isinstance(directed, bool):
        raise StructuralError("malformed design file: 'directed' must be a boolean")
    raw_blocks = data["blocks"]
    if not isinstance(raw_blocks, list) or any(not isinstance(b, list) for b in raw_blocks):
        raise StructuralError("malformed design file: 'blocks' must be a list of lists")
    blocks = []
    for block in raw_blocks:
        for x in block:
            if not _is_int(x):
                raise StructuralError(f"malformed design file: point {x!r} is not an integer")
        blocks.append(tuple(block))
    design = (DirectedPackingDesign if directed else PackingDesign)(v, tuple(blocks))
    if k is not None:
        for block in design.blocks:
            if len(block) > k:
                raise StructuralError(
                    f"malformed design file: block {block} larger than k={k}"
                )
    return DesignDocument(design, k, t, lam)


def dumps_design(doc: DesignDocument) -> str:
    return json.dumps(design_to_dict(doc), indent=2) + "\n"


def loads_design(text: str) -> DesignDocument:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"malformed design file: {exc}") from exc
    return design_from_dict(data)


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


def code_to_dict(code: Union[ConstantWeightCode, IndelCode]) -> dict:
    if isinstance(code, ConstantWeightCode):
        return {
            "type": "cw",
            "length": code.length,
            "weight": code.weight,
            "words": ["".join(str(bit) for bit in w) for w in code.words],
        }
    return {
        "type": "indel",
        "length": code.word_length,
        "alphabet": code.alphabet_size,
        "words": [list(w) for w in code.words],
    }


def code_from_dict(data: object) -> Union[ConstantWeightCode, IndelCode]:
    if not isinstance(data, dict) or "type" not in data:
        raise StructuralError("malformed code file: expected an object with a 'type'")
    kind = data["type"]
    if kind not in ("cw", "indel"):
        raise StructuralError(f"malformed code file: unknown type {kind!r}")
    keys = ("length", "weight" if kind == "cw" else "alphabet", "words")
    missing = [key for key in keys if key not in data]
    if missing:
        raise StructuralError(f"malformed code file: missing keys {missing}")
    length = _require_int(data, "length", "code")
    size = _require_int(data, keys[1], "code")
    words = data["words"]
    if kind == "cw":
        if not isinstance(words, list) or any(
            not isinstance(w, str) or set(w) - {"0", "1"} for w in words
        ):
            raise StructuralError("malformed code file: 'words' must be a list of 0/1 strings")
        bits = tuple(tuple(int(ch) for ch in word) for word in words)
        return ConstantWeightCode(length, size, bits)
    if not isinstance(words, list) or any(
        not isinstance(w, list) or not all(_is_int(x) for x in w) for w in words
    ):
        raise StructuralError("malformed code file: 'words' must be a list of integer lists")
    symbols = tuple(tuple(w) for w in words)
    repeats = any(len(set(w)) != len(w) for w in symbols)
    return IndelCode(size, length, symbols, allow_repeats=repeats)


def dumps_code(code: Union[ConstantWeightCode, IndelCode]) -> str:
    return json.dumps(code_to_dict(code), indent=2) + "\n"


def save_code(path: str | Path, code: Union[ConstantWeightCode, IndelCode]) -> None:
    Path(path).write_text(dumps_code(code), encoding="utf-8")


def load_code(path: str | Path) -> Union[ConstantWeightCode, IndelCode]:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise StructuralError(f"malformed code file: {exc}") from exc
    return code_from_dict(data)
