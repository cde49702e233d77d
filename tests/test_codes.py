from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from packings import (
    ConstantWeightCode,
    DesignParams,
    DirectedPackingDesign,
    IndelCode,
    PackingDesign,
    add_constant_words,
    deletion_channel_check,
    lcs_length,
    max_pairwise_lcs,
    min_hamming_distance,
    to_constant_weight,
    to_indel_code,
)
from packings import codes, core
from packings.core import _lis_heights as core_lis_heights


def lcs_reference(a, b):
    """Independent recursive-with-memo LCS oracle."""

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    return go(0, 0)


def lcs_dp(a, b):
    """Second oracle: the row-by-row dynamic program, O(len(a) * len(b))."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


class TestLcs:
    def test_known_cases(self):
        assert lcs_length((0, 2, 4), (0, 1, 2, 3, 4)) == 3
        assert lcs_length((0, 1, 2), (2, 1, 0)) == 1
        assert lcs_length((), (1, 2, 3)) == 0
        assert lcs_length((5, 5, 5), (5, 5)) == 2

    @given(
        st.lists(st.integers(0, 4), max_size=9),
        st.lists(st.integers(0, 4), max_size=9),
    )
    def test_matches_reference(self, a, b):
        assert lcs_length(tuple(a), tuple(b)) == lcs_reference(tuple(a), tuple(b))

    @given(
        st.lists(st.integers(0, 80), unique=True, max_size=60),
        st.lists(st.integers(0, 80), unique=True, max_size=60),
    )
    def test_repeat_free_words_match_dp(self, a, b):
        assert lcs_length(a, b) == lcs_length(b, a) == lcs_dp(a, b)

    @given(
        st.lists(st.integers(0, 6), max_size=40),
        st.lists(st.integers(0, 6), max_size=40),
    )
    def test_words_with_repeats_match_dp(self, a, b):
        assert lcs_length(a, b) == lcs_length(b, a) == lcs_dp(a, b)

    def test_constant_word_against_repeat_free_word(self):
        word = tuple(range(50))
        assert lcs_length((7,) * 50, word) == lcs_length(word, (7,) * 50) == 1
        assert lcs_length((7,) * 50, (7,) * 20) == 20


class TestConstantWeight:
    def test_four_block_packing(self, pack_6_3):
        code = to_constant_weight(pack_6_3, DesignParams(6, 3, 2, 1))
        assert code.length == 6 and code.weight == 3
        assert code.words[0] == (1, 1, 1, 0, 0, 0)
        # blocks share at most one point, so distances are 4 or 6; 4 occurs
        assert min_hamming_distance(code) == 4 == 2 * (3 - 2 + 1)

    def test_distance_matches_direct_count(self, pack_6_3):
        code = to_constant_weight(pack_6_3, DesignParams(6, 3, 2, 1))
        direct = min(
            sum(x != y for x, y in zip(a, b)) for a, b in combinations(code.words, 2)
        )
        assert min_hamming_distance(code) == direct

    def test_complementary_words(self):
        d = PackingDesign(6, ((0, 1, 2), (3, 4, 5)))
        code = to_constant_weight(d, DesignParams(6, 3, 2, 1))
        assert min_hamming_distance(code) == 6

    @staticmethod
    def check_against_pairwise_count(v, w, supports):
        words = [tuple(int(x in s) for x in range(v)) for s in supports]
        code = ConstantWeightCode(v, w, words)
        direct = min(sum(x != y for x, y in zip(a, b)) for a, b in combinations(words, 2))
        assert min_hamming_distance(code) == direct
        return direct

    def test_distance_matches_pairwise_count_on_random_codes(self, rng):
        # d = 2(w - largest support overlap), against the count over full vectors
        for _ in range(200):
            v = rng.randrange(2, 16)
            w = rng.randrange(1, v + 1)
            supports = {frozenset(rng.sample(range(v), w)) for _ in range(rng.randrange(2, 9))}
            if len(supports) >= 2:
                self.check_against_pairwise_count(v, w, supports)

    def test_pairwise_disjoint_supports(self, rng):
        for _ in range(50):
            w, n = rng.randrange(1, 6), rng.randrange(2, 6)
            v = w * n + rng.randrange(3)
            supports = [range(a, a + w) for a in range(0, w * n, w)]
            assert self.check_against_pairwise_count(v, w, supports) == 2 * w

    def test_single_word_distance_undefined(self):
        d = PackingDesign(6, ((0, 1, 2),))
        code = to_constant_weight(d, DesignParams(6, 3, 2, 1))
        with pytest.raises(ValueError, match="undefined"):
            min_hamming_distance(code)

    def test_multiplicity_must_be_one(self, pack_6_3):
        with pytest.raises(ValueError, match="lam = 1"):
            to_constant_weight(pack_6_3, DesignParams(6, 3, 2, 2))

    def test_invalid_design_rejected(self):
        d = PackingDesign(4, ((0, 1, 2), (0, 1, 3)))
        with pytest.raises(ValueError, match="invalid"):
            to_constant_weight(d, DesignParams(4, 3, 2, 1))

    def test_duplicate_words_rejected_by_type(self):
        with pytest.raises(ValueError, match="distinct"):
            ConstantWeightCode(4, 2, ((1, 1, 0, 0), (1, 1, 0, 0)))

    @pytest.mark.parametrize(
        "words,message",
        [
            (((1, 1, 0),), "word (1, 1, 0) does not have length 4"),
            (((2, 0, 0),), "word (2, 0, 0) does not have length 4"),  # length is checked first
            (((2, 0, 0, 0),), "word (2, 0, 0, 0) is not binary"),  # though its sum is the weight
            (((1, 1, 0, 0.5),), "word (1, 1, 0, 0.5) is not binary"),
            # entries equal to bits, but not ints
            (((1.0, 1.0, 0.0, 0.0), (0, 0, 1, 1)), "word (1.0, 1.0, 0.0, 0.0) is not binary"),
            (((0, 0, 1, 1), (True, 1, 0, 0)), "word (True, 1, 0, 0) is not binary"),
            (((1, 1, 1, 0),), "word (1, 1, 1, 0) does not have weight 2"),
            ([[0, 0, 1, 1], [0, 0, 1, 0]], "word (0, 0, 1, 0) does not have weight 2"),
            (((1, 1, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0)), "word (1, 1, 1, 0) does not have weight 2"),
            (((0, 1, 1, 0), (1, 0, 1, 0), (0, 1, 1, 0)), "code words must be distinct"),
        ],
    )
    def test_word_checks_name_the_fault(self, words, message):
        # each word is checked for length, then binary entries, then weight,
        # and the code for distinct words only after every word passed
        with pytest.raises(ValueError) as info:
            ConstantWeightCode(4, 2, words)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "length,weight,words,message",
        [
            (-3, -1, [], "length must be at least 0, got -3"),
            (3, 5, [], "weight must be within 0..3, got 5"),
            (3, -1, [], "weight must be within 0..3, got -1"),
            (True, 1, [(1,)], "length must be an integer, got True"),
            (2, False, [(0, 0)], "weight must be an integer, got False"),
            (2.0, 1, [(1, 0)], "length must be an integer, got 2.0"),
            # the parameters are checked before the words
            (3, 5, [(1,)], "weight must be within 0..3, got 5"),
        ],
    )
    def test_nonsense_parameters_are_named(self, length, weight, words, message):
        with pytest.raises(ValueError) as info:
            ConstantWeightCode(length, weight, words)
        assert str(info.value) == message

    def test_edge_parameters_build(self):
        assert ConstantWeightCode(0, 0, [()]).words == ((),)
        assert ConstantWeightCode(3, 3, [(1, 1, 1)]).weight == 3

    def test_window_design_distance(self):
        from packings import construct_optimal

        design, _ = construct_optimal(DesignParams(8, 4, 2, 1))
        code = to_constant_weight(design, DesignParams(8, 4, 2, 1))
        assert min_hamming_distance(code) >= 6

    def test_distance_bound_holds_and_is_achieved(self):
        # whenever two blocks share t-1 points the distance bound is tight
        from packings import construct_optimal

        for v, k in [(6, 3), (14, 5), (9, 4)]:
            params = DesignParams(v, k, 2, 1)
            design, _ = construct_optimal(params)
            code = to_constant_weight(design, params)
            dist = min_hamming_distance(code)
            assert dist >= 2 * (k - 1)
            member = [set(b) for b in design.blocks]
            if any(len(a & b) == 1 for a, b in combinations(member, 2)):
                assert dist == 2 * (k - 1)


class TestIndelCode:
    def test_published_ordering(self, directed_12_7):
        code = to_indel_code(directed_12_7, DesignParams(12, 7, 2, 1))
        assert max_pairwise_lcs(code) == 1
        assert deletion_channel_check(code, 5)
        assert not deletion_channel_check(code, 6)

    def test_small_directed_design(self, directed_6_4):
        code = to_indel_code(directed_6_4, DesignParams(6, 4, 2, 1))
        assert max_pairwise_lcs(code) == 1
        assert deletion_channel_check(code, 2)

    def test_single_word(self):
        d = DirectedPackingDesign(4, ((0, 1, 2, 3),))
        code = to_indel_code(d, DesignParams(4, 4, 2, 1))
        for s in range(5):
            assert deletion_channel_check(code, s)

    def test_reversed_pair_words(self):
        code = IndelCode(3, 3, ((0, 1, 2), (2, 1, 0)))
        assert max_pairwise_lcs(code) == 1

    def test_identical_words_rejected_by_type(self):
        with pytest.raises(ValueError, match="distinct"):
            IndelCode(4, 3, ((0, 1, 2), (0, 1, 2)))

    @pytest.mark.parametrize(
        "alphabet_size,word_length,words,message",
        [
            (2.5, 1, [(0,)], "alphabet_size must be an integer, got 2.5"),
            (-2, -4, [], "alphabet_size must be at least 1, got -2"),
            (0, 0, [], "alphabet_size must be at least 1, got 0"),
            (3, -1, [], "word_length must be at least 0, got -1"),
            (True, 1, [(0,)], "alphabet_size must be an integer, got True"),
            (3, 1.0, [(0,)], "word_length must be an integer, got 1.0"),
            # the parameters are checked before the words
            (2, -1, [(5, 5)], "word_length must be at least 0, got -1"),
        ],
    )
    def test_nonsense_parameters_are_named(self, alphabet_size, word_length, words, message):
        with pytest.raises(ValueError) as info:
            IndelCode(alphabet_size, word_length, words)
        assert str(info.value) == message

    def test_edge_parameters_build(self):
        assert IndelCode(1, 0, [()]).words == ((),)
        assert IndelCode(1, 1, [(0,)]).alphabet_size == 1

    def test_repeat_symbols_need_flag(self):
        with pytest.raises(ValueError, match="repeats"):
            IndelCode(4, 3, ((0, 0, 1),))
        assert IndelCode(4, 3, ((0, 0, 1),), allow_repeats=True).words

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: IndelCode(3, 2, ((0, 1), (0, 1, 2))), "word (0, 1, 2) does not have length 2"),
            (lambda: IndelCode(3, 2, ((0, 3),)), "word (0, 3) uses symbols outside the alphabet"),
            (lambda: IndelCode(3, 2, ((-1, 0),)), "word (-1, 0) uses symbols outside the alphabet"),
            (lambda: IndelCode(3, 2, [(0.5, 1), (True, 2)]),
             "word (0.5, 1) has symbol 0.5, which is not an integer"),
            (lambda: IndelCode(3, 2, [(0, 1), (True, 2)]),
             "word (True, 2) has symbol True, which is not an integer"),
            (lambda: IndelCode(3, 2, [("a", 1)]), "word ('a', 1) has symbol 'a', which is not an integer"),
            (lambda: to_indel_code(DirectedPackingDesign(4, ((0, 1, 2),)), DesignParams(4, 3, 2, 2)),
             "the deletion-code equivalence requires lam = 1"),
            (lambda: max_pairwise_lcs(IndelCode(3, 2, ((0, 1),))),
             "pairwise LCS undefined for fewer than two words"),
            (lambda: max_pairwise_lcs(IndelCode(3, 2, ())),
             "pairwise LCS undefined for fewer than two words"),
        ],
    )
    def test_input_guards_name_the_fault(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert (exc.type, str(exc.value)) == (ValueError, message)

    def test_deletion_count_range(self, directed_6_4):
        code = to_indel_code(directed_6_4, DesignParams(6, 4, 2, 1))
        with pytest.raises(ValueError):
            deletion_channel_check(code, 5)
        with pytest.raises(ValueError):
            deletion_channel_check(code, -1)

    def test_disagreeing_cross_check_raises(self, monkeypatch):
        # the words share the pair (0, 1), so one deletion leaves a common residue
        code = IndelCode(4, 3, ((0, 1, 2), (0, 1, 3)))
        assert not deletion_channel_check(code, 1)
        monkeypatch.setattr(codes, "max_pairwise_lcs", lambda code: 0)
        with pytest.raises(RuntimeError, match="k=3, s=1"):
            deletion_channel_check(code, 1)

    def test_residue_enumeration_matches_lcs_threshold(self, rng):
        # random repeat-free codes, short enough for outright enumeration;
        # the check itself asserts agreement of its two methods internally
        for _ in range(60):
            v = rng.randrange(3, 8)
            k = rng.randrange(2, min(v, 7) + 1)
            words = set()
            for _ in range(rng.randrange(2, 5)):
                words.add(tuple(rng.sample(range(v), k)))
            code = IndelCode(v, k, tuple(words))
            for s in range(k + 1):
                keep = k - s
                expected = all(
                    not (set(combinations(a, keep)) & set(combinations(b, keep)))
                    for a, b in combinations(code.words, 2)
                )
                assert deletion_channel_check(code, s) == expected


class TestAllPairsLcs:
    @staticmethod
    def brute_force(code):
        return max(lcs_dp(a, b) for a, b in combinations(code.words, 2))

    def test_repeat_free_codes_match_pairwise_maximum(self, rng):
        for _ in range(300):
            v = rng.randrange(2, 14)
            k = rng.randrange(1, min(v, 7) + 1)
            words = {tuple(rng.sample(range(v), k)) for _ in range(rng.randrange(2, 9))}
            if len(words) < 2:
                continue
            code = IndelCode(v, k, tuple(words))
            assert max_pairwise_lcs(code) == self.brute_force(code)

    def test_codes_with_repeats_match_pairwise_maximum(self, rng):
        # heavy repeats over small alphabets, and constant words among them
        for _ in range(300):
            q = rng.randrange(1, 4)
            k = rng.randrange(1, 9)
            words = {tuple(rng.choices(range(q), k=k)) for _ in range(rng.randrange(2, 9))}
            words |= {(c,) * k for c in range(q) if rng.random() < 0.5}
            if len(words) < 2:
                continue
            code = IndelCode(q, k, tuple(words), allow_repeats=True)
            assert max_pairwise_lcs(code) == self.brute_force(code)

    def test_rising_shortcut_matches_dp(self, rng):
        # half the cases are two words that share symbols only in reverse (no
        # match list rises), the rest random words, repeats allowed
        cases = [
            [], [(0, 1, 2)], [(0, 1), (1, 0)], [(3,), (3,)],
            [tuple(range(9)), (8, 7, 6, 4, 5, 3, 2, 1, 0)],  # one ascent between decreasing runs
        ]
        for _ in range(400):
            q = rng.randrange(1, 12)
            if rng.random() < 0.5:
                a = rng.sample(range(q), rng.randrange(0, q + 1))
                b = [x for x in reversed(a) if rng.random() < 0.8]
                b += range(q, q + rng.randrange(3))  # symbols a lacks
                if len(b) > 1 and rng.random() < 0.3:  # one ascent between decreasing runs
                    i = rng.randrange(len(b) - 1)
                    b[i], b[i + 1] = b[i + 1], b[i]
                cases.append([tuple(a), tuple(b)])
            else:
                k = rng.randrange(0, 9)
                cases.append([tuple(rng.choices(range(q), k=k)) for _ in range(rng.randrange(0, 6))])
        flat = 0
        for words in cases:
            expected = max((lcs_dp(a, b) for a, b in combinations(words, 2)), default=0)
            assert codes._max_lcs(words) == expected, words
            flat += expected == 1
        assert flat > 100  # the shortcut's case is well covered

    def test_reversed_pairs_need_no_patience_sort(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("bisect_left ran on a match list in which nothing rises")

        monkeypatch.setattr(core, "bisect_left", refuse)
        # every pair of words shares its common symbols only in reverse
        assert codes._max_lcs(((0, 1, 2, 3), (3, 2, 1, 0), (6, 5, 4, 3), (3, 4, 5, 6))) == 1

    def test_words_sharing_nothing(self):
        assert max_pairwise_lcs(IndelCode(9, 3, ((0, 1, 2), (3, 4, 5), (8, 7, 6)))) == 0

    def test_only_sharing_pairs_reach_the_subsequence_search(self, monkeypatch):
        # 2,400 words on disjoint symbols but for four sharing pairs: the
        # longest-increasing-subsequence step sees at most those four
        # match lists, not C(2400, 2) pairs
        n, k = 2400, 4
        words = [list(range(k * i, k * i + k)) for i in range(n)]
        words[7][0] = words[3][2]  # pair (3, 7) shares one symbol
        words[100][1] = words[50][1]  # pair (50, 100) shares one symbol
        words[2000][:2] = words[1999][1:3]  # pair (1999, 2000) shares two, in order
        words[5][3] = words[2][0]  # pair (2, 5) shares one symbol
        code = IndelCode(k * n, k, tuple(map(tuple, words)))
        calls = []

        def counted_heights(matches):
            calls.append(matches)
            return core_lis_heights(matches)

        monkeypatch.setattr(codes, "_lis_heights", counted_heights)
        assert max_pairwise_lcs(code) == 2
        assert 1 <= len(calls) <= 4


class TestAddConstantWords:
    def test_published_code_augmented(self, directed_12_7):
        code = to_indel_code(directed_12_7, DesignParams(12, 7, 2, 1))
        aug = add_constant_words(code)
        assert len(aug.words) == 4 + 12
        assert aug.allow_repeats
        assert deletion_channel_check(aug, 5)

    def test_empty_code(self):
        aug = add_constant_words(IndelCode(5, 3, ()))
        assert len(aug.words) == 5
        assert aug.words[0] == (0, 0, 0)

    def test_small_code_augmented(self, directed_6_4):
        code = to_indel_code(directed_6_4, DesignParams(6, 4, 2, 1))
        aug = add_constant_words(code)
        assert len(aug.words) == 10
        assert deletion_channel_check(aug, 2)

    def test_rejects_overlapping_code(self):
        code = IndelCode(5, 3, ((0, 1, 2), (0, 1, 3)))
        with pytest.raises(ValueError, match="LCS"):
            add_constant_words(code)
