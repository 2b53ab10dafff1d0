import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slotie import (
    CheckpointError,
    Extraction,
    ModelConfig,
    NumericalError,
    PredictionTensor,
    SlotTagger,
    TokenClass,
    TooLong,
    build_vocab,
    decode,
    decode_grid,
    decode_pack,
    mask_to_extraction,
    sequence_from_tokens,
    tokenize,
)
from slotie.model import PACK_TOKENS, sinusoidal_positions

B, S, R, O = TokenClass.BACKGROUND, TokenClass.SUBJECT, TokenClass.RELATION, TokenClass.OBJECT


@pytest.fixture(scope="module")
def small_model():
    vocab = build_vocab([tokenize("the quick brown fox jumps over a lazy dog")])
    return SlotTagger(vocab, ModelConfig(n_slots=20, hidden=32, blocks=2, max_len=64), seed=3)


class TestForward:
    def test_output_shape(self, small_model):
        seq = tokenize("the quick brown fox")
        p = small_model.forward(seq)
        assert p.probs.shape == (4, 20, 4)

    def test_rows_sum_to_one(self, small_model):
        seq = tokenize("fox jumps over dog and unseen words")
        p = small_model.predict(seq)
        np.testing.assert_allclose(p.probs.sum(axis=2), 1.0, atol=1e-9)

    def test_purity(self, small_model):
        seq = tokenize("the lazy dog")
        a = small_model.predict(seq)
        b = small_model.predict(seq)
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_same_seed_same_model(self):
        vocab = build_vocab([tokenize("a b c")])
        cfg = ModelConfig(n_slots=5, hidden=16, blocks=1, max_len=16)
        m1 = SlotTagger(vocab, cfg, seed=7)
        m2 = SlotTagger(vocab, cfg, seed=7)
        seq = tokenize("a c b")
        np.testing.assert_array_equal(m1.predict(seq).probs, m2.predict(seq).probs)

    def test_too_long_rejected(self):
        vocab = build_vocab([tokenize("a")])
        model = SlotTagger(vocab, ModelConfig(n_slots=2, hidden=8, blocks=1, max_len=4))
        with pytest.raises(TooLong):
            model.predict(tokenize("a a a a a"))

    def test_position_rows_are_built_up_to_the_longest_sentence(self):
        vocab = build_vocab([tokenize("a")])
        model = SlotTagger(vocab, ModelConfig(n_slots=2, hidden=8, blocks=1, max_len=10**13))
        for n_tokens, rows in ((3, 3), (7, 7), (5, 7)):
            model.predict(tokenize(" ".join(["a"] * n_tokens)))
            assert model.encoder._rows.shape == (rows, 8)
        np.testing.assert_array_equal(model.encoder._rows,
                                      0.1 * sinusoidal_positions(64, 8)[:7])

    def test_non_finite_output_is_a_numerical_error(self, small_model):
        blown = SlotTagger(small_model.vocab, small_model.config,
                           values=small_model.values * 1e150)
        seq = tokenize("the quick brown fox")
        with np.errstate(all="ignore"):
            for run in (blown.forward, blown.predict):
                with pytest.raises(NumericalError, match="probabilities are not finite"):
                    run(seq)

    def test_head_scales_but_encoder_does_not(self):
        vocab = build_vocab([tokenize("a b c d")])
        cfg20 = ModelConfig(n_slots=20, hidden=16, blocks=2, max_len=16)
        cfg100 = ModelConfig(n_slots=100, hidden=16, blocks=2, max_len=16)
        m20 = SlotTagger(vocab, cfg20, seed=1)
        m100 = SlotTagger(vocab, cfg100, seed=1)
        enc20, enc100 = (
            {k: v.data for k, v in m.named_parameters().items() if not k.startswith("head.")}
            for m in (m20, m100)
        )
        assert enc20.keys() == enc100.keys()
        for key in enc20:
            np.testing.assert_array_equal(enc20[key], enc100[key])
        assert m100.head.weight.data.shape[1] == 5 * m20.head.weight.data.shape[1]


class TestInitialValues:
    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("seed", [0, 9])
    def test_values_are_the_documented_draws(self, blocks, seed):
        """The encoder's stream draws the embedding, then each block's six
        matrices in layout order; the head's stream draws its weight."""
        vocab = build_vocab([tokenize("a b c")])
        model = SlotTagger(vocab, ModelConfig(n_slots=3, hidden=6, blocks=blocks), seed=seed)
        encoder, head = (np.random.default_rng(np.random.SeedSequence([seed, i])) for i in (0, 1))

        def xavier(rng, fan_in, fan_out):
            return rng.normal(0.0, np.sqrt(2.0 / (fan_in + fan_out)), size=(fan_in, fan_out))

        expected = {"embed": encoder.normal(0.0, 0.1, size=(len(vocab), 6))}
        for i in range(blocks):
            block = {}
            for part in "qkvo":
                block[f"w{part}"], block[f"b{part}"] = xavier(encoder, 6, 6), np.zeros(6)
            block["ln1_g"], block["ln1_b"] = np.ones(6), np.zeros(6)
            block["w1"], block["b1"] = xavier(encoder, 6, 24), np.zeros(24)
            block["w2"], block["b2"] = xavier(encoder, 24, 6), np.zeros(6)
            block["ln2_g"], block["ln2_b"] = np.ones(6), np.zeros(6)
            expected |= {f"block{i}.{name}": value for name, value in block.items()}
        expected["head.weight"], expected["head.bias"] = xavier(head, 6, 12), np.zeros(12)
        assert list(model.named_parameters()) == list(expected)
        flat = np.concatenate([value.ravel() for value in expected.values()])
        np.testing.assert_array_equal(model.values, flat)


_WORDS = ("the", "quick", "brown", "fox", "jumps", "over")


def _jittered(model, seed):
    """``model`` with every parameter moved off its initial value, so that
    no bias is zero and no layer-norm gain is one."""
    rng = np.random.default_rng(seed)
    for tensor in model.named_parameters().values():
        tensor.data += rng.normal(0.0, 0.1, size=tensor.data.shape)
    return model


@functools.cache
def _packing_model(blocks, hidden):
    vocab = build_vocab([sequence_from_tokens(list(_WORDS), append_placeholders=True)])
    config = ModelConfig(n_slots=5, hidden=hidden, blocks=blocks, max_len=512)
    return _jittered(SlotTagger(vocab, config, seed=blocks * hidden), hidden)


# "zebra" and "qux" are out of vocabulary.
_packing_seqs = st.builds(
    sequence_from_tokens,
    st.lists(st.sampled_from(_WORDS + ("zebra", "qux")), min_size=1, max_size=12),
    append_placeholders=st.booleans(),
)


def _assert_packs_equal_forward(model, packs, seqs):
    """``packs`` (what ``predict_packs`` yielded for ``seqs``) hold ``seqs``
    in order, and each pack's probabilities are ``forward``'s rows of its
    sentences, stacked in order, bit for bit."""
    assert [seq for pack, _ in packs for seq in pack] == list(seqs)
    for pack, p in packs:
        want = np.concatenate([model.forward(seq).probs for seq in pack])
        np.testing.assert_array_equal(p.probs, want)


class TestPredictMany:
    """Inference over many sentences, through ``predict_packs``."""

    @settings(max_examples=150, deadline=None)
    @given(
        blocks=st.integers(1, 2),
        hidden=st.sampled_from([8, 16]),
        seqs=st.lists(_packing_seqs, max_size=6),
        new_pack=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    def test_equals_forward_for_any_split_into_packs(self, blocks, hidden, seqs, new_pack):
        model = _packing_model(blocks, hidden)
        packs: list[list] = []
        for seq, starts_pack in zip(seqs, new_pack):
            if starts_pack or not packs:
                packs.append([])
            packs[-1].append(seq)
        for pack in packs:
            _assert_packs_equal_forward(model, list(model.predict_packs(pack)), pack)

    def test_pack_over_256_rows_at_default_config(self):
        vocab = build_vocab([tokenize(" ".join(_WORDS))])
        model = _jittered(SlotTagger(vocab, ModelConfig(), seed=4), 4)
        rng = np.random.default_rng(0)
        seqs = [
            sequence_from_tokens(list(rng.choice(_WORDS + ("zebra",), size=n)),
                                 append_placeholders=bool(n % 2))
            for n in rng.integers(1, 30, size=24)
        ]
        assert sum(len(seq) for seq in seqs) > 256
        _assert_packs_equal_forward(model, list(model.predict_packs(seqs)), seqs)

    @pytest.mark.parametrize(
        "sizes, packs",
        [
            ([100, 100, 56, 1, 300, 256, 10], [[100, 100, 56], [1], [300], [256], [10]]),
            ([3, 1, 5, 1, 1, 7], [[3], [1], [5], [1], [1], [7]]),
        ],
        ids=["budget", "one-token"],
    )
    def test_packs_its_own_input(self, monkeypatch, sizes, packs):
        model = _packing_model(1, 8)
        encode_packed = model.encoder.encode_packed
        calls = []

        def recording(seqs):
            calls.append([len(seq) for seq in seqs])
            return encode_packed(seqs)

        monkeypatch.setattr(model.encoder, "encode_packed", recording)
        rng = np.random.default_rng(1)
        seqs = [sequence_from_tokens(list(rng.choice(_WORDS, size=n))) for n in sizes]
        got = list(model.predict_packs(iter(seqs)))
        assert calls == packs
        for call in calls:
            assert sum(call) <= PACK_TOKENS or len(call) == 1
            assert 1 not in call or call == [1]
        _assert_packs_equal_forward(model, got, seqs)

    def test_yields_the_first_pack_before_reading_past_it(self):
        class ReadPastFirstPack(Exception):
            pass

        def sentences():
            # The first two sentences fill one pack; the third closes it, so
            # only a fourth read goes past the first pack.
            yield from (sequence_from_tokens(["fox"] * 100) for _ in range(3))
            raise ReadPastFirstPack

        results = _packing_model(1, 8).predict_packs(sentences())
        pack, p = next(results)
        assert [len(seq) for seq in pack] == [100, 100]
        assert p.n_tokens == 200
        with pytest.raises(ReadPastFirstPack):
            next(results)

    def test_no_sequences(self, small_model):
        assert list(small_model.predict_packs([])) == []

    def test_over_length_sequence_raises(self, small_model):
        with pytest.raises(TooLong):
            list(small_model.predict_packs([tokenize("the fox"),
                                            tokenize(" ".join(["fox"] * 65))]))


def tensor_for_masks(rows):
    """One-hot probability tensor whose slot argmax equals the given masks."""
    rows = np.asarray(rows)
    n_slots, n_tokens = rows.shape
    probs = np.zeros((n_tokens, n_slots, 4))
    for n in range(n_slots):
        for t in range(n_tokens):
            probs[t, n, rows[n, t]] = 1.0
    return PredictionTensor(probs)


class TestDecode:
    def test_background_biased_tensor_is_empty(self):
        probs = np.full((3, 5, 4), 0.2)
        probs[:, :, 0] = 0.4
        seq = tokenize("a b c")
        assert decode(PredictionTensor(probs), seq) == []

    def test_single_slot_extraction(self):
        seq = tokenize("ada wrote notes")
        rows = np.zeros((20, 3), dtype=int)
        rows[4] = [1, 2, 3]
        exts = decode(tensor_for_masks(rows), seq)
        assert len(exts) == 1
        assert exts[0].as_tuple() == ("ada", "wrote", "notes")
        assert exts[0].confidence == pytest.approx(1.0)

    def test_duplicate_slots_deduplicated(self):
        seq = tokenize("ada wrote notes")
        rows = np.zeros((6, 3), dtype=int)
        rows[1] = [1, 2, 3]
        rows[4] = [1, 2, 3]
        exts = decode(tensor_for_masks(rows), seq)
        assert len(exts) == 1

    def test_require_all_parts_filtering(self):
        seq = tokenize("ada wrote notes")
        rows = np.zeros((4, 3), dtype=int)
        rows[0] = [1, 0, 3]  # subject+object, no relation
        assert decode(tensor_for_masks(rows), seq, require_all_parts=True) == []
        kept = decode(tensor_for_masks(rows), seq, require_all_parts=False)
        assert len(kept) == 1
        assert kept[0].rel == ""

    def test_output_bounded_by_slots(self, small_model):
        rng = np.random.default_rng(0)
        seq = tokenize("the quick brown fox jumps over a lazy dog")
        p = small_model.predict(seq)
        exts = decode(p, seq, require_all_parts=False)
        assert len(exts) <= p.n_slots

    def test_decode_grid_keeps_all_slots(self):
        rows = np.zeros((5, 3), dtype=int)
        rows[2] = [1, 2, 3]
        labels = decode_grid(tensor_for_masks(rows))
        assert labels.shape == (3, 5)
        assert labels[:, 2].tolist() == [S, R, O]
        assert not labels[:, [0, 1, 3, 4]].any()


def decode_one_slot(p_slot):
    """Decode a one-slot tensor over a sentence of len(p_slot) tokens,
    keeping masks that miss a part."""
    seq = sequence_from_tokens([f"w{t}" for t in range(len(p_slot))])
    return decode(PredictionTensor(np.asarray(p_slot)[:, None, :]), seq, require_all_parts=False)


class TestConfidence:
    def test_one_hot_slot_scores_one(self):
        (ext,) = decode_one_slot(np.eye(4)[[1, 2, 3]])
        assert ext.confidence == pytest.approx(1.0)

    def test_min_aggregation(self):
        (ext,) = decode_one_slot(np.array([[0.1, 0.9, 0.0, 0.0], [0.4, 0.0, 0.6, 0.0]]))
        assert ext.confidence == pytest.approx(0.6)

    def test_monotone_in_token_probability(self):
        p_slot = np.array([[0.1, 0.9, 0.0, 0.0], [0.4, 0.0, 0.6, 0.0]])
        better = p_slot.copy()
        better[1, 2] = 0.8
        better[1, 0] = 0.2
        (worse_ext,) = decode_one_slot(p_slot)
        (better_ext,) = decode_one_slot(better)
        assert better_ext.confidence >= worse_ext.confidence

    def test_background_slot_has_no_extraction(self):
        # An all-Background slot is dropped before any confidence is taken.
        assert decode_one_slot(np.eye(4)[[0, 0]]) == []


def reference_decode(p, seq, require_all_parts=True):
    """The per-slot decode loop that the array decode replaced: one label
    tuple per slot, filtered, deduplicated in slot order, and scored by its
    lowest argmax probability over non-Background tokens."""
    labels = p.probs.argmax(axis=2)
    extractions = []
    seen = set()
    for n in range(p.n_slots):
        mask = tuple(int(c) for c in labels[:, n])
        present = set(mask)
        if present == {B}:
            continue
        if require_all_parts and not {S, R, O} <= present:
            continue
        if mask in seen:
            continue
        seen.add(mask)
        indices = [t for t, lab in enumerate(mask) if lab != B]
        confidence = float(np.array([p.probs[t, n, mask[t]] for t in indices]).min())
        bare = mask_to_extraction(seq, mask)
        extractions.append(Extraction(bare.arg1, bare.rel, bare.arg2, confidence=confidence))
    return extractions


@st.composite
def label_columns(draw, n_slots=st.integers(1, 8)):
    """(T, N) slot labels over a few class subsets, so slots often miss a
    part, with some columns copied from earlier ones."""
    n_tokens = draw(st.integers(1, 6))
    n_slots = draw(n_slots)
    subsets = st.sampled_from([(0,), (0, 1), (0, 1, 2), (1, 3), (0, 1, 2, 3), (1, 2, 3)])
    columns = []
    for n in range(n_slots):
        if n and draw(st.booleans()):
            columns.append(columns[draw(st.integers(0, n - 1))])
        else:
            classes = draw(subsets)
            columns.append(draw(st.lists(st.sampled_from(classes), min_size=n_tokens,
                                         max_size=n_tokens)))
    return np.array(columns, dtype=np.int64).T


def tensor_with_argmax(labels, seed):
    """Random probabilities whose per-(token, slot) argmax is ``labels``."""
    n_tokens, n_slots = labels.shape
    probs = np.random.default_rng(seed).dirichlet(np.ones(4), size=(n_tokens, n_slots))
    t, n = np.indices(labels.shape)
    top = probs.argmax(axis=2)
    peak = probs[t, n, top]
    probs[t, n, top] = probs[t, n, labels]
    probs[t, n, labels] = peak
    return PredictionTensor(probs)


class TestDecodeMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(labels=label_columns(), seed=st.integers(0, 2**16), require_all_parts=st.booleans())
    def test_equals_per_slot_loop(self, labels, seed, require_all_parts):
        p = tensor_with_argmax(labels, seed)
        assert np.array_equal(decode_grid(p), labels)
        seq = sequence_from_tokens([f"w{t}" for t in range(labels.shape[0])])
        got = decode(p, seq, require_all_parts=require_all_parts)
        # Extraction equality covers the confidence, compared exactly.
        assert got == reference_decode(p, seq, require_all_parts=require_all_parts)


@st.composite
def label_packs(draw):
    """The (T, N) labels of 1-5 sentences that share one slot count, some
    copied from an earlier sentence, whose masks must not collapse into it."""
    n_slots = st.just(draw(st.integers(1, 8)))
    sentences = []
    for i in range(draw(st.integers(1, 5))):
        if i and draw(st.booleans()):
            sentences.append(sentences[draw(st.integers(0, i - 1))])
        else:
            sentences.append(draw(label_columns(n_slots=n_slots)))
    return sentences


class TestDecodePack:
    @settings(max_examples=150, deadline=None)
    @given(packs=label_packs(), seed=st.integers(0, 2**16), require_all_parts=st.booleans())
    def test_equals_per_sentence_decode(self, packs, seed, require_all_parts):
        p = tensor_with_argmax(np.concatenate(packs), seed)
        seqs = [sequence_from_tokens([f"w{t}" for t in range(len(labels))]) for labels in packs]
        got = decode_pack(p, seqs, require_all_parts=require_all_parts)
        assert len(got) == len(seqs)
        start = 0
        for seq, extractions in zip(seqs, got):
            rows = PredictionTensor(p.probs[start : start + len(seq)])
            start += len(seq)
            # Extraction equality covers the confidence, compared exactly.
            assert extractions == decode(rows, seq, require_all_parts=require_all_parts)
            assert extractions == reference_decode(rows, seq, require_all_parts=require_all_parts)

    def test_token_count_mismatch_raises(self):
        p = tensor_for_masks(np.zeros((2, 5), dtype=int))
        with pytest.raises(ValueError, match="different token counts"):
            decode_pack(p, [tokenize("a b"), tokenize("c d")])


class TestCheckpoint:
    def test_roundtrip(self, small_model, tmp_path):
        path = tmp_path / "model.npz"
        small_model.save(path)
        loaded = SlotTagger.load(path)
        seq = tokenize("the quick fox")
        np.testing.assert_array_equal(
            small_model.predict(seq).probs, loaded.predict(seq).probs
        )
        assert loaded.vocab == small_model.vocab

    def test_version_mismatch_rejected(self, small_model, tmp_path):
        import json

        path = tmp_path / "model.npz"
        small_model.save(path)
        data = dict(np.load(path, allow_pickle=False))
        meta = json.loads(str(data["__meta__"]))
        meta["format_version"] = 999
        data["__meta__"] = np.array(json.dumps(meta))
        np.savez(path, **data)
        with pytest.raises(CheckpointError):
            SlotTagger.load(path)

    def test_archive_is_meta_and_one_values_block(self, small_model, tmp_path):
        path = tmp_path / "model.npz"
        small_model.save(path)
        with np.load(path, allow_pickle=False) as archive:
            assert sorted(archive.files) == ["__meta__", "values"]
            values = archive["values"]
        flat = [t.data.ravel() for t in small_model.named_parameters().values()]
        assert values.tobytes() == np.concatenate(flat).tobytes()

    def test_save_load_save_is_byte_identical(self, small_model, tmp_path):
        first, second = tmp_path / "a.npz", tmp_path / "b.npz"
        small_model.save(first)
        SlotTagger.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_load_draws_no_random_numbers(self, small_model, tmp_path, monkeypatch):
        path = tmp_path / "model.npz"
        small_model.save(path)

        def no_rng(*args, **kwargs):
            raise AssertionError("load created a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        loaded = SlotTagger.load(path)
        np.testing.assert_array_equal(loaded.values, small_model.values)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        # Text, an empty file and a file shorter than the zip signature.
        for content in (b"not a checkpoint", b"", b"PK"):
            path.write_bytes(content)
            with pytest.raises(CheckpointError) as caught:
                SlotTagger.load(path)
            assert str(caught.value) == f"cannot read checkpoint {path}: not an .npz archive"

    def test_missing_file_names_file_not_found(self, tmp_path):
        path = tmp_path / "absent.npz"
        with pytest.raises(CheckpointError, match="FileNotFoundError: .*No such file"):
            SlotTagger.load(path)
