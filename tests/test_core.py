import string
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from slotie import (
    BadAnnotation,
    EmptyInput,
    Extraction,
    LabelGrid,
    NoTriplet,
    PLACEHOLDER_TOKENS,
    PredictionTensor,
    TokenClass,
    grid_from_tuples,
    mask_to_extraction,
    sequence_from_tokens,
    tokenize,
)
from slotie.core import N_CLASSES, class_argmax, class_max, class_sum

B, S, R, O = TokenClass.BACKGROUND, TokenClass.SUBJECT, TokenClass.RELATION, TokenClass.OBJECT


#: Every character that ``str.split()`` splits at (29 on CPython 3.11).
WHITESPACE = tuple(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
#: Pieces of tokenizer input: letters (with a case-changing "İ"), all ASCII
#: punctuation, all whitespace, and placeholder look-alikes.
TEXT_PIECES = (*"abXİé9", *string.punctuation, *WHITESPACE, "[is]", "[IS]", "x[is]", "[is].")
tokenizer_text = st.lists(st.sampled_from(TEXT_PIECES), max_size=12).map("".join)


def reference_split_chunk(chunk):
    """The per-character loop the tokenizer pattern replaced."""
    lead = 0
    while lead < len(chunk) and chunk[lead] in string.punctuation:
        lead += 1
    trail = len(chunk)
    while trail > lead and chunk[trail - 1] in string.punctuation:
        trail -= 1
    return [*chunk[:lead], *([chunk[lead:trail]] if trail > lead else []), *chunk[trail:]]


class TestTokenize:
    def test_whitespace_split(self):
        seq = tokenize("Albert Einstein is physicist")
        assert seq.tokens == ("Albert", "Einstein", "is", "physicist")

    def test_placeholders_appended(self):
        seq = tokenize("Obama born in Hawaii", append_placeholders=True)
        assert len(seq) == 7
        assert seq.tokens[-3:] == PLACEHOLDER_TOKENS
        assert seq.has_placeholders
        assert seq.body_tokens == ("Obama", "born", "in", "Hawaii")

    def test_punctuation_and_numbers(self):
        # Interior punctuation stays attached; the final period is separate.
        seq = tokenize("Males had a median income of $ 28,750 versus $ 16,250 for females .")
        assert len(seq) == 14
        assert seq.tokens[7] == "28,750"
        assert seq.tokens[-1] == "."

    def test_trailing_punct_split(self):
        seq = tokenize('He said "stop." twice')
        assert seq.tokens == ("He", "said", '"', "stop", ".", '"', "twice")

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            tokenize("   ")

    def test_offsets_are_faithful(self):
        # The tokens cover the sentence's characters exactly, in order.
        rng = np.random.default_rng(3)
        words = ["alpha", "b,2", "(x)", "Mr.", "co-op", "...", "3.14"]
        for _ in range(50):
            sentence = " ".join(rng.choice(words, size=rng.integers(1, 8)))
            seq = tokenize(sentence)
            assert "".join(seq.tokens) == sentence.replace(" ", "")
            assert all(token and token.split() == [token] for token in seq.tokens)

    def test_deterministic(self):
        assert tokenize("a b c.") == tokenize("a b c.")

    @settings(max_examples=500, deadline=None)
    @given(sentence=tokenizer_text)
    @example(sentence='He said "stop." twice')
    @example(sentence="x[is] [IS]\u2028[is].\u3000İ")
    def test_matches_the_per_character_loop(self, sentence):
        expected = [piece for chunk in sentence.split() for piece in reference_split_chunk(chunk)]
        if not expected:
            with pytest.raises(EmptyInput):
                tokenize(sentence)
        else:
            assert tokenize(sentence).tokens == tuple(expected)

    @settings(max_examples=300, deadline=None)
    @given(sentence=st.text(st.sampled_from("ab.,( \t\n\u00a0\u2028\u3000")) | st.text(),
           append=st.booleans())
    @example(sentence="He said.", append=False)
    def test_retokenizing_the_body_gives_the_same_sequence(self, sentence, append):
        assume(sentence.split())
        seq = tokenize(sentence, append)
        assert sequence_from_tokens(tokenize(sentence).body_tokens, append) == seq


class TestSequenceFromTokens:
    def test_roundtrip_tokens(self):
        seq = sequence_from_tokens(["The", "cat", "sat"], append_placeholders=True)
        assert seq.tokens[:3] == ("The", "cat", "sat")
        assert seq.has_placeholders

    def test_rejects_bad_token(self):
        with pytest.raises(BadAnnotation):
            sequence_from_tokens(["ok", "not ok"])


class TestMaskToExtraction:
    def test_basic(self):
        seq = tokenize("Albert Einstein is physicist")
        mask = (S, S, R, O)
        assert mask_to_extraction(seq, mask) == Extraction("Albert Einstein", "is", "physicist")

    def test_all_background_raises(self):
        seq = tokenize("Albert Einstein is physicist")
        with pytest.raises(NoTriplet):
            mask_to_extraction(seq, np.zeros(4, dtype=np.int64))

    def test_relation_tokens_joined_in_order(self):
        seq = tokenize("a b c d e f")
        mask = np.array([S, B, R, R, O, B])
        ext = mask_to_extraction(seq, mask)
        assert ext.rel == "c d"

    def test_placeholder_surface_preserved(self):
        seq = tokenize("Obama born in Hawaii", append_placeholders=True)
        mask = (S, R, R, O, R, B, B)
        ext = mask_to_extraction(seq, mask)
        assert ext.rel == "born in [is]"

    def test_token_multiset_matches_mask(self):
        seq = tokenize("w x y z w")
        mask = (S, R, O, O, S)
        ext = mask_to_extraction(seq, mask)
        produced = sorted((ext.arg1 + " " + ext.rel + " " + ext.arg2).split())
        labeled = sorted(t for t, lab in zip(seq.tokens, mask) if lab != B)
        assert produced == labeled


class TestGridFromTuples:
    def test_empty_gold(self):
        seq = tokenize("a b c d")
        grid = grid_from_tuples(seq, [])
        assert grid.n_gold == 0
        assert grid.labels.shape == (0, 4)

    def test_single_triplet(self):
        seq = tokenize("a b c d")
        grid = grid_from_tuples(seq, [((0, 1), (2,), (3,))])
        assert grid.labels.tolist() == [[S, S, R, O]]

    def test_overlapping_triplets_have_independent_masks(self):
        seq = tokenize("a b c d e")
        grid = grid_from_tuples(seq, [((0,), (2,), (3,)), ((1,), (2,), (4,))])
        assert grid.labels[0, 2] == R
        assert grid.labels[1, 2] == R
        assert grid.labels[0, 1] == B

    def test_index_out_of_range(self):
        seq = tokenize("a b")
        with pytest.raises(BadAnnotation):
            grid_from_tuples(seq, [((0,), (1,), (2,))])

    def test_conflicting_labels_rejected(self):
        seq = tokenize("a b c")
        with pytest.raises(BadAnnotation):
            grid_from_tuples(seq, [((0,), (0,), (2,))])

    def test_duplicate_triplets_rejected(self):
        seq = tokenize("a b c")
        with pytest.raises(BadAnnotation):
            grid_from_tuples(seq, [((0,), (1,), (2,)), ((0,), (1,), (2,))])

    def test_mask_roundtrip(self):
        # Index-extraction then grid reconstruction reproduces any mask with
        # at least one token per class.
        rng = np.random.default_rng(11)
        seq = tokenize("t0 t1 t2 t3 t4 t5 t6 t7")
        for _ in range(25):
            labels = rng.integers(0, 4, size=8)
            for cls, pos in zip((S, R, O), rng.choice(8, size=3, replace=False)):
                labels[pos] = cls
            indices = tuple(np.flatnonzero(labels == cls).tolist() for cls in (S, R, O))
            grid = grid_from_tuples(seq, [indices])
            assert grid.labels.tolist() == [labels.tolist()]


class TestGridAndTensorInvariants:
    def test_label_grid_is_a_read_only_id_array(self):
        source = np.array([[S, R, O], [O, R, S]])
        grid = LabelGrid(source)
        assert grid.labels.dtype == np.int64 and grid.n_gold == 2
        with pytest.raises(ValueError):
            grid.labels[0, 0] = B
        source[0, 0] = B
        assert grid.labels[0, 0] == S
        assert grid == LabelGrid([[S, R, O], [O, R, S]])
        assert grid != LabelGrid([[O, R, S], [S, R, O]])
        assert LabelGrid(np.zeros((0, 3))) != LabelGrid(np.zeros((0, 4)))
        for bad in ([S, R, O], [[S, R, 4]], [[-1, R, O]]):
            with pytest.raises(BadAnnotation):
                LabelGrid(bad)

    def test_prediction_tensor_validation(self):
        good = np.full((2, 3, 4), 0.25)
        PredictionTensor(good)
        with pytest.raises(ValueError):
            PredictionTensor(np.full((2, 3, 4), 0.3))
        with pytest.raises(ValueError):
            PredictionTensor(np.full((2, 3, 5), 0.2))

    @pytest.mark.parametrize("excess, ok", [(1.0e-5, True), (1.2e-5, False), (np.nan, False)])
    def test_prediction_tensor_row_sum_tolerance(self, excess, ok):
        # The row sums may miss 1 by 1e-6 + 1e-5 (np.allclose's default
        # rtol on top of atol=1e-6); a NaN sum never passes.
        probs = np.full((2, 3, 4), 0.25)
        probs[1, 2, 0] += excess
        if ok:
            PredictionTensor(probs)
        else:
            with pytest.raises(ValueError, match="sum to 1"):
                PredictionTensor(probs)

    def test_extraction_confidence_range(self):
        with pytest.raises(ValueError):
            Extraction("a", "b", "c", confidence=1.5)


#: Class-axis values: a few exact values that make ties, and any finite
#: double, with both zeros, subnormals and magnitudes near overflow.
class_values = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)

#: (1, N, C) one token, (T, N, C) a sentence, (C, C) the attention matrix of
#: a one-word sentence with its three placeholders.
class_shapes = st.one_of(
    st.tuples(st.just(1), st.integers(1, 20), st.just(N_CLASSES)),
    st.tuples(st.integers(1, 12), st.integers(1, 20), st.just(N_CLASSES)),
    st.just((N_CLASSES, N_CLASSES)),
)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestClassAxisReductions:
    @settings(max_examples=300, deadline=None)
    @given(x=class_shapes.flatmap(lambda shape: hnp.arrays(np.float64, shape, elements=class_values)))
    def test_equal_numpy_bit_for_bit(self, x):
        assert_same_bits(class_max(x), x.max(axis=-1))
        with np.errstate(over="ignore"):  # sums near the top of the range overflow alike
            assert_same_bits(class_sum(x), x.sum(axis=-1))
        assert_same_bits(class_argmax(x), x.argmax(axis=-1))
        assert_same_bits(class_argmax(x, class_max(x)), x.argmax(axis=-1))

    @settings(max_examples=100, deadline=None)
    @given(shape=class_shapes, value=class_values)
    def test_uniform_rows_tie_to_class_zero(self, shape, value):
        x = np.full(shape, value)
        assert not class_argmax(x).any()
        assert_same_bits(class_max(x), x.max(axis=-1))
        with np.errstate(over="ignore"):
            assert_same_bits(class_sum(x), x.sum(axis=-1))

    @pytest.mark.parametrize("shape", [(1, 3, 4), (5, 2, 4), (4, 4)])
    def test_negative_zero_rows(self, shape):
        x = np.full(shape, -0.0)
        assert np.signbit(class_max(x)).all() and not np.signbit(class_sum(x)).any()
        assert_same_bits(class_max(x), x.max(axis=-1))
        assert_same_bits(class_sum(x), x.sum(axis=-1))
        assert_same_bits(class_argmax(x), x.argmax(axis=-1))
