"""Constant-weight and insertion/deletion codes realized by designs.

A multiplicity-one packing gives a binary constant-weight code (one
characteristic vector per block) whose minimum Hamming distance is at least
2(k - t + 1).  A directed packing gives a fixed-length code over the point
alphabet that survives k - t symbol deletions, because distinct codewords
share no ordered t-subsequence.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain, combinations, compress

from .core import (
    DesignParams,
    DirectedPackingDesign,
    PackingDesign,
    _lis_heights,
    require_valid,
)

# Largest constant-weight code, words times length v, in bits (as the search's masks)
CW_BITS_LIMIT = 100_000_000


def _shared_matches(words) -> Iterator[list[int]]:
    """The Hunt-Szymanski match list of every pair of words that share a symbol.

    An occurrence index lists, per symbol, its (word j, position q) entries
    for the words after the current word i, by decreasing j and, within a
    word, decreasing q.  Walking word i in order and appending each such q
    to the list of pair (i, j) gives that pair's matches: by position in
    word i, and by decreasing position in word j within one symbol.  A
    common subsequence is then exactly a strictly increasing subsequence of
    the list, and the list's length counts the symbol pairs the two words
    share.  Pairs that share nothing get no list.  The work is O(total
    symbols + total matches); memory holds the index and the lists of one i.
    """
    later: dict[object, list[tuple[int, int]]] = {}
    for i in reversed(range(len(words))):
        word = words[i]
        lists: defaultdict[int, list[int]] = defaultdict(list)
        for x in word:
            for j, q in later.get(x, ()):
                lists[j].append(q)
        yield from lists.values()
        for q in reversed(range(len(word))):
            later.setdefault(word[q], []).append((i, q))


def _max_lcs(words) -> int:
    """Largest LCS length over all pairs of words, 0 when no pair shares a symbol.

    A pair's LCS is at most its number of matches, so a pair whose match
    list is no longer than the best LCS so far is skipped.
    """
    best = 0
    for matches in _shared_matches(words):
        if len(matches) > best:
            best = max(best, max(_lis_heights(matches)))
    return best


def lcs_length(a, b) -> int:
    """Length of the longest common subsequence (Hunt-Szymanski).

    The two-word case of ``_max_lcs``: with r matching symbol pairs this
    costs O(r log k), so O(k log k) when either word repeats no symbol.
    """
    return _max_lcs((a, b))


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
            ones = w.count(1)
            if w.count(0) + ones != self.length:
                raise ValueError(f"word {w} is not binary")
            if ones != self.weight:
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
        word = bytearray(design.v)
        for x in block:
            word[x] = 1
        words.append(tuple(word))
    return ConstantWeightCode(design.v, params.k, tuple(words))


def min_hamming_distance(code: ConstantWeightCode) -> int:
    """Exact minimum Hamming distance over all pairs of words.

    Two words of weight w whose supports share s positions differ in
    2(w - s) places, so the distance is 2(w - largest support overlap).  A
    pair's overlap is the length of its match list over the supports.
    """
    if len(code.words) < 2:
        raise ValueError("minimum distance undefined for fewer than two words")
    supports = [list(compress(range(code.length), w)) for w in code.words]
    overlap = max(map(len, _shared_matches(supports)), default=0)
    return 2 * (code.weight - overlap)


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
    """Exact maximum LCS length over all pairs of distinct words.

    One all-pairs Hunt-Szymanski pass (``_max_lcs``): only pairs that share
    a symbol are compared.  Their match lists cost O(total symbols + total
    matches), and each pair searched adds O(r log k) for its r matches.
    """
    if len(code.words) < 2:
        raise ValueError("pairwise LCS undefined for fewer than two words")
    return _max_lcs(code.words)


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
