"""Constant-weight and insertion/deletion codes realized by designs.

A multiplicity-one packing gives a binary constant-weight code (one
characteristic vector per block) whose minimum Hamming distance is at least
2(k - t + 1).  A directed packing gives a fixed-length code over the point
alphabet that survives k - t symbol deletions, because distinct codewords
share no ordered t-subsequence.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations

from .core import (
    DesignParams,
    DirectedPackingDesign,
    PackingDesign,
    _lis_heights,
    require_valid,
)

# Largest constant-weight code, words times length v, in bits (as the search's masks)
CW_BITS_LIMIT = 100_000_000


def lcs_length(a, b) -> int:
    """Length of the longest common subsequence (Hunt-Szymanski).

    Each symbol of ``b`` is replaced by its positions in ``a``, listed in
    decreasing order; a common subsequence is then exactly a strictly
    increasing subsequence of the result.  With r matching pairs this costs
    O(r log k), so O(k log k) when either word repeats no symbol.
    """
    where: dict[object, list[int]] = {}
    for i, x in enumerate(a):
        where.setdefault(x, []).append(i)
    matches = (i for y in b for i in reversed(where.get(y, ())))
    return max(_lis_heights(matches), default=0)


@dataclass(frozen=True)
class ConstantWeightCode:
    """Binary code whose words all share the same weight."""

    length: int
    weight: int
    words: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", tuple(tuple(w) for w in self.words))
        for w in self.words:
            if len(w) != self.length:
                raise ValueError(f"word {w} does not have length {self.length}")
            if not set(w) <= {0, 1}:
                raise ValueError(f"word {w} is not binary")
            if sum(w) != self.weight:
                raise ValueError(f"word {w} does not have weight {self.weight}")
        if len(set(self.words)) != len(self.words):
            raise ValueError("code words must be distinct")


@dataclass(frozen=True)
class IndelCode:
    """Fixed-length code over the alphabet {0, ..., alphabet_size-1}.

    Words are symbol sequences; repeats inside a word are forbidden unless
    ``allow_repeats``, a permission that equality ignores, is set (as after
    constant words are appended).  The code carries no deletion capability:
    ``deletion_channel_check`` decides how many deletions it survives.
    """

    alphabet_size: int
    word_length: int
    words: tuple[tuple[int, ...], ...]
    allow_repeats: bool = field(default=False, kw_only=True, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", tuple(tuple(w) for w in self.words))
        for w in self.words:
            if len(w) != self.word_length:
                raise ValueError(f"word {w} does not have length {self.word_length}")
            if w and not (0 <= min(w) and max(w) < self.alphabet_size):
                raise ValueError(f"word {w} uses symbols outside the alphabet")
            if not self.allow_repeats and len(set(w)) != len(w):
                raise ValueError(f"word {w} repeats a symbol")
        if len(set(self.words)) != len(self.words):
            raise ValueError("code words must be distinct")


def to_constant_weight(design: PackingDesign, params: DesignParams) -> ConstantWeightCode:
    """Characteristic vectors of the blocks of a multiplicity-one packing.

    Refuses a code of more than CW_BITS_LIMIT bits before building a word.
    """
    if params.lam != 1:
        raise ValueError("constant-weight equivalence requires lam = 1")
    bits = design.n * design.v
    if bits > CW_BITS_LIMIT:
        raise ValueError(f"constant-weight code of {design.n:,} words of length "
                         f"{design.v:,} needs {bits:,} bits, beyond the limit of {CW_BITS_LIMIT:,}")
    require_valid(design, params, uniform=True)
    words = []
    for block in design.blocks:
        member = set(block)
        words.append(tuple(1 if x in member else 0 for x in range(design.v)))
    return ConstantWeightCode(design.v, params.k, tuple(words))


def min_hamming_distance(code: ConstantWeightCode) -> int:
    """Exact minimum Hamming distance over all pairs of words."""
    if len(code.words) < 2:
        raise ValueError("minimum distance undefined for fewer than two words")
    return min(
        sum(x != y for x, y in zip(a, b)) for a, b in combinations(code.words, 2)
    )


def to_indel_code(design: DirectedPackingDesign, params: DesignParams) -> IndelCode:
    """Codewords from the ordered blocks of a directed packing.

    The resulting code withstands k - t symbol deletions: no length-t
    subsequence is shared between codewords.
    """
    if params.lam != 1:
        raise ValueError("the deletion-code equivalence requires lam = 1")
    require_valid(design, params, uniform=True)
    return IndelCode(design.v, params.k, design.blocks)


def max_pairwise_lcs(code: IndelCode) -> int:
    """Exact maximum LCS length over all pairs of distinct words."""
    if len(code.words) < 2:
        raise ValueError("pairwise LCS undefined for fewer than two words")
    return max(lcs_length(a, b) for a, b in combinations(code.words, 2))


def _residues(word: tuple[int, ...], keep: int) -> frozenset[tuple[int, ...]]:
    # distinct deletion positions can leave equal residues; the channel
    # criterion is about the residue sets, so deduplicate per word
    return frozenset(combinations(word, keep))


def deletion_channel_check(code: IndelCode, s: int) -> bool:
    """Whether every pair of codewords stays distinguishable after s deletions.

    True iff the length-(k-s) subsequence sets of distinct words are pairwise
    disjoint, equivalently iff the maximum pairwise LCS is below k-s.  For
    words of length at most eight the residue sets are also enumerated
    outright and the two answers are required to agree.
    """
    k = code.word_length
    if not 0 <= s <= k:
        raise ValueError(f"deletion count must be within 0..{k}, got {s}")
    if len(code.words) < 2:
        return True
    keep = k - s
    via_lcs = max_pairwise_lcs(code) <= keep - 1
    if k <= 8:
        # each word counts a residue once, so a count of two is a shared residue
        counts = Counter(chain.from_iterable(_residues(w, keep) for w in code.words))
        via_enum = max(counts.values()) <= 1
        if via_enum != via_lcs:
            raise RuntimeError(
                f"LCS test ({via_lcs}) and residue enumeration ({via_enum}) disagree "
                f"at k={k}, s={s} on {len(code.words)} words"
            )
    return via_lcs


def add_constant_words(code: IndelCode) -> IndelCode:
    """Append one constant word per alphabet symbol; repeats become legal.

    A constant word shares at most a single symbol with any repeat-free word
    and nothing with other constant words, so the deletion check at
    s = k - 2 still passes.
    """
    if len(code.words) >= 2 and max_pairwise_lcs(code) > 1:
        raise ValueError("input code must have pairwise LCS at most 1")
    constants = tuple(
        tuple([c] * code.word_length) for c in range(code.alphabet_size)
    )
    return IndelCode(
        code.alphabet_size, code.word_length, code.words + constants, allow_repeats=True
    )
