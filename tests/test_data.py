import hashlib
import json
import string
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import slotie as sl
from slotie import (
    PLACEHOLDER_TOKENS,
    BadAnnotation,
    Extraction,
    GenerativeRecord,
    TokenClass,
    TripletPool,
    lcs_align,
    lsoie_convert,
    read_conll,
    synth_generate,
    template_frequencies,
)
from slotie.data import (
    MIN_POOL_SIZE,
    ConfigError,
    ConllRecord,
    FormatError,
    SkippedTuple,
    read_grid_jsonl,
    read_imojie_jsonl,
    read_tuples_tsv,
    tuple_part_tokens,
    write_grid_jsonl,
    write_tuples_tsv,
)

B, S, R, O = TokenClass.BACKGROUND, TokenClass.SUBJECT, TokenClass.RELATION, TokenClass.OBJECT


def letters(row):
    return "".join("BSRO"[lab] for lab in row)


_WHITESPACE = tuple(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
_PART_PIECES = (*"abXİé9", *string.punctuation, *_WHITESPACE,
                "[is]", "[IS]", "x[is]", "[is].", "[from]", "[to]")


def reference_part_tokens(text):
    """The per-chunk, per-character loop the tuple-part pattern replaced."""
    tokens = []
    for chunk in text.split():
        if chunk in PLACEHOLDER_TOKENS:
            tokens.append(chunk)
            continue
        lead = 0
        while lead < len(chunk) and chunk[lead] in string.punctuation:
            lead += 1
        trail = len(chunk)
        while trail > lead and chunk[trail - 1] in string.punctuation:
            trail -= 1
        tokens.extend([*chunk[:lead], *([chunk[lead:trail]] if trail > lead else []),
                       *chunk[trail:]])
    return tokens


class TestTuplePartTokens:
    def test_placeholders_stay_atomic(self):
        assert tuple_part_tokens("[is] born in") == ["[is]", "born", "in"]

    def test_ordinary_brackets_split(self):
        assert tuple_part_tokens("[unusual] text") == ["[", "unusual", "]", "text"]

    @settings(max_examples=500, deadline=None)
    @given(text=st.lists(st.sampled_from(_PART_PIECES), max_size=12).map("".join))
    @example(text="x[is] [IS]\u2028[is]. [to]\u3000([from] İ[is]")
    def test_matches_the_per_character_loop(self, text):
        assert tuple_part_tokens(text) == reference_part_tokens(text)


class TestLcsAlign:
    def test_exact_sentence_tuple(self):
        rec = GenerativeRecord(
            "Albert Einstein is physicist",
            (Extraction("Albert Einstein", "is", "physicist"),),
        )
        aligned = lcs_align(rec)
        assert not aligned.skipped
        assert letters(aligned.grid.labels[0]) == "SSROBBB"

    def test_placeholder_satisfies_missing_is(self):
        rec = GenerativeRecord(
            "Obama born in Hawaii",
            (Extraction("Obama", "[is] born in", "Hawaii"),),
        )
        aligned = lcs_align(rec)
        assert not aligned.skipped
        # Relation covers "born", "in" and the appended [is].
        assert letters(aligned.grid.labels[0]) == "SRRORBB"

    def test_bare_is_also_matches_placeholder(self):
        rec = GenerativeRecord(
            "Obama born in Hawaii",
            (Extraction("Obama", "is born in", "Hawaii"),),
        )
        aligned = lcs_align(rec)
        assert not aligned.skipped
        assert letters(aligned.grid.labels[0]) == "SRRORBB"

    def test_unmatchable_token_skips_tuple(self):
        rec = GenerativeRecord(
            "Obama born in Hawaii",
            (Extraction("Obama", "moved from", "Hawaii"),),
        )
        aligned = lcs_align(rec)
        assert aligned.grid.n_gold == 0
        assert len(aligned.skipped) == 1
        assert aligned.skipped[0].unmatched == ("moved",)

    def test_empty_part_skips_tuple(self):
        rec = GenerativeRecord("a b c", (Extraction("a", "b", ""),))
        aligned = lcs_align(rec)
        assert aligned.skipped[0].reason == "empty arg2"

    def test_longest_run_preferred(self):
        # "the big dog" must match as one run even though "the" also occurs
        # earlier in the sentence.
        rec = GenerativeRecord(
            "the cat chased the big dog",
            (Extraction("the cat", "chased", "the big dog"),),
        )
        aligned = lcs_align(rec)
        assert letters(aligned.grid.labels[0]) == "SSROOOBBB"

    def test_exclusion_forces_disjoint_spans(self):
        # Both parts want "on"; exclusion hands the first occurrence to the
        # relation (processed before arg2) and the second to arg2.
        rec = GenerativeRecord(
            "it sits on the mat on monday",
            (Extraction("it", "sits on", "the mat on monday"),),
        )
        aligned = lcs_align(rec)
        assert not aligned.skipped
        mask = aligned.grid.labels[0]
        counts = Counter(mask.tolist())
        assert counts[R] == 2 and counts[O] == 4

    def test_masks_are_class_disjoint_and_sound(self, imojie_fixture_path):
        records = read_imojie_jsonl(imojie_fixture_path)
        for record in records:
            aligned = lcs_align(record)
            accepted = [e for e in record.tuples
                        if e not in [s.extraction for s in aligned.skipped]]
            for mask, ext in zip(aligned.grid.labels, accepted):
                labeled = [
                    tok for tok, lab in zip(aligned.sequence.tokens, mask)
                    if lab != B
                ]
                demand = Counter(
                    t for part in ext.as_tuple() for t in tuple_part_tokens(part)
                )
                # The labeled-token multiset is a sub-multiset of the tuple's
                # tokens (modulo the placeholder-bracket equivalence).
                norm = lambda t: t[1:-1] if t in sl.PLACEHOLDER_TOKENS else t
                got = Counter(norm(t) for t in labeled)
                want = Counter(norm(t) for t in demand.elements())
                assert not got - want


def reference_longest_common_run(sent_keys, sent_avail, part_keys, part_avail):
    """The dynamic program ``data._longest_common_run`` must agree with: the
    longest common contiguous run of the two masked key lists, ties toward
    the earliest sentence position, then the earliest part position."""
    a = [(i, sent_keys[i]) for i, ok in enumerate(sent_avail) if ok]
    b = [(j, part_keys[j]) for j, ok in enumerate(part_avail) if ok]
    if not a or not b:
        return None
    best_len = 0
    best_a = best_b = -1
    prev = [0] * (len(b) + 1)
    for ai in range(1, len(a) + 1):
        cur = [0] * (len(b) + 1)
        for bj in range(1, len(b) + 1):
            if a[ai - 1][1] == b[bj - 1][1]:
                cur[bj] = prev[bj - 1] + 1
                run, a_start, b_start = cur[bj], ai - cur[bj], bj - cur[bj]
                if run > best_len or (run == best_len and (a_start, b_start) < (best_a, best_b)):
                    best_len, best_a, best_b = run, a_start, b_start
        prev = cur
    if best_len == 0:
        return None
    return (
        [a[i][0] for i in range(best_a, best_a + best_len)],
        [b[j][0] for j in range(best_b, best_b + best_len)],
    )


@st.composite
def masked_keys(draw, max_size):
    """A key list over a small alphabet (so runs repeat and tie) and an
    availability mask of the same length."""
    keys = draw(st.lists(st.sampled_from("abc"), max_size=max_size))
    avail = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
    return keys, avail


class TestLongestCommonRun:
    @settings(max_examples=500, deadline=None)
    @given(sent=masked_keys(40), part=masked_keys(12))
    @example(sent=(list("ab" * 100), [True] * 200), part=(list("ba" * 75), [True] * 150))
    def test_equals_reference_dynamic_program(self, sent, part):
        from slotie.data import _longest_common_run

        assert _longest_common_run(*sent, *part) == reference_longest_common_run(*sent, *part)


@st.composite
def spans_of_sentence(draw):
    """A sentence over a 2-5 word vocabulary, with repeats, and a tuple whose
    three parts are disjoint, non-empty, contiguous token spans of it, given
    in any order."""
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon"][: draw(st.integers(2, 5))]
    gaps = draw(st.lists(st.integers(0, 2), min_size=4, max_size=4))
    lengths = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
    words = draw(st.lists(st.sampled_from(vocab), min_size=sum(gaps) + sum(lengths),
                          max_size=sum(gaps) + sum(lengths)))
    parts, start = [], gaps[0]
    for length, gap in zip(lengths, gaps[1:]):
        parts.append(" ".join(words[start : start + length]))
        start += length + gap
    order = draw(st.permutations(parts))
    return GenerativeRecord(" ".join(words), (Extraction(*order),))


class TestAlignmentSoundness:
    @settings(max_examples=300, deadline=None)
    @given(record=spans_of_sentence())
    def test_tuple_of_token_spans_is_never_skipped(self, record):
        aligned = lcs_align(record)
        assert aligned.skipped == ()
        assert aligned.grid.n_gold == 1


class TestConll:
    def test_parse_sample(self, lsoie_fixture_path):
        records = read_conll(lsoie_fixture_path)
        assert len(records) == 4
        assert records[0].tokens[0] == "The"
        assert len(records[0].role_labels) == 2
        assert len(records[1].role_labels) == 1

    def test_basic_conversion(self):
        rec = ConllRecord(("Rain", "fell", "on", "Monday"),
                          (("A0-B", "P-B", "A1-B", "A1-I"),))
        out = lsoie_convert(rec)
        assert out.grid.n_gold == 1 and out.skipped == ()
        assert out.sentence == "Rain fell on Monday"
        assert letters(out.grid.labels[0]) == "SROOBBB"

    def test_higher_arguments_merge_into_object(self):
        rec = ConllRecord(
            ("Maria", "sold", "the", "house", "to", "her", "neighbor"),
            (("A0-B", "P-B", "A1-B", "A1-I", "A2-B", "A2-I", "A2-I"),),
        )
        out = lsoie_convert(rec)
        assert letters(out.grid.labels[0]) == "SROOOOOBBB"

    def test_missing_second_argument_rejected(self):
        rec = ConllRecord(("Rain", "fell"), (("A0-B", "P-B"),))
        out = lsoie_convert(rec)
        assert out.grid.n_gold == 0
        assert out.skipped == (SkippedTuple(None, "layer 0: fewer than two arguments"),)

    def test_missing_predicate_rejected(self):
        rec = ConllRecord(("Rain", "fell"), (("A0-B", "A1-B"),))
        out = lsoie_convert(rec)
        assert [skip.reason for skip in out.skipped] == ["layer 0: no predicate"]

    def test_malformed_bi_sequence(self):
        rec = ConllRecord(("a", "b"), (("A0-I", "P-B"),))
        with pytest.raises(BadAnnotation):
            lsoie_convert(rec)

    def test_unknown_tag(self):
        rec = ConllRecord(("a",), (("X-B",),))
        with pytest.raises(BadAnnotation):
            lsoie_convert(rec)

    def test_placeholders_appended_with_background(self):
        rec = ConllRecord(("Rain", "fell", "hard"), (("A0-B", "P-B", "A1-B"),))
        out = lsoie_convert(rec)
        assert out.sequence.tokens[-3:] == sl.PLACEHOLDER_TOKENS
        assert out.grid.labels[0, -3:].tolist() == [B, B, B]

    def test_sample_file_end_to_end(self, lsoie_fixture_path):
        records = read_conll(lsoie_fixture_path)
        results = [lsoie_convert(r) for r in records]
        # record 0 layer 1 lacks arguments; record 2 lacks a second argument
        assert results[0].grid.n_gold == 1
        assert results[1].grid.n_gold == 1
        assert results[2].grid.n_gold == 0
        assert [skip.reason for skip in results[0].skipped] == ["layer 1: fewer than two arguments"]
        assert results[3].grid.n_gold == 1


class TestSynth:
    def test_forced_single_template(self, pool):
        samples = [s for s in synth_generate(pool, 100, seed=0) if s.template == "single"]
        assert samples
        for s in samples:
            assert len(s.record.tuples) == 1
            a, r, o = s.record.tuples[0].as_tuple()
            assert s.record.sentence == f"{a} {r} {o} ."

    def test_forced_pair_template(self, pool):
        samples = [s for s in synth_generate(pool, 100, seed=1) if s.template == "pair"]
        assert samples
        for s in samples:
            assert len(s.record.tuples) == 2
            first, second = (" ".join(t.as_tuple()) for t in s.record.tuples)
            assert s.record.sentence in {f"{first} {conj} {second} ." for conj in ("while", "and")}

    def test_arity_matches_template(self, pool):
        samples = synth_generate(pool, 300, seed=2)
        for s in samples:
            n = len(s.record.tuples)
            if s.template == "single":
                assert n == 1
            elif s.template == "pair":
                assert n == 2
            elif s.template == "commas":
                assert 3 <= n <= 5
            else:
                assert 2 <= n <= 9

    def test_template_frequencies(self, pool):
        samples = synth_generate(pool, 10_000, seed=3)
        freqs = template_frequencies(samples)
        assert abs(freqs["single"] - 0.10) < 0.02
        assert abs(freqs["pair"] - 0.20) < 0.02
        assert abs(freqs["commas"] - 0.35) < 0.02
        assert abs(freqs["periods"] - 0.35) < 0.02

    def test_bitwise_reproducible(self, pool):
        a = synth_generate(pool, 50, seed=42)
        b = synth_generate(pool, 50, seed=42)
        assert a == b

    def test_triplets_unique_within_sentence(self, pool):
        samples = synth_generate(pool, 200, seed=4)
        for s in samples:
            tuples = [e.as_tuple() for e in s.record.tuples]
            assert len(set(tuples)) == len(tuples)

    def test_draws_in_documented_order(self, pool):
        """Per sentence: the kind, the triplet count only where it varies,
        the triplets, and for a pair then its conjunction."""
        kinds = ("single", "pair", "commas", "periods")
        for seed in range(20):
            rng = np.random.default_rng(seed)
            expected = []
            for _ in range(50):
                kind = kinds[int(rng.choice(4, p=[0.10, 0.20, 0.35, 0.35]))]
                if kind == "commas":
                    count = int(rng.integers(3, 6))
                elif kind == "periods":
                    count = int(rng.integers(2, 10))
                else:
                    count = kinds.index(kind) + 1
                chosen = [pool.triples[i] for i in rng.choice(len(pool), size=count, replace=False)]
                phrases = [" ".join(triple) for triple in chosen]
                if kind == "pair":
                    conjunction = ("while", "and")[int(rng.integers(2))]
                    sentence = f"{phrases[0]} {conjunction} {phrases[1]} ."
                else:
                    sentence = (" , " if kind == "commas" else " . ").join(phrases) + " ."
                expected.append((kind, sentence, [Extraction(*triple) for triple in chosen]))
            got = [(s.template, s.record.sentence, list(s.record.tuples))
                   for s in synth_generate(pool, 50, seed)]
            assert got == expected, f"seed {seed}"

    def test_pool_of_min_size_fills_the_largest_template(self):
        pool = TripletPool(tuple((f"s{i}", "r", f"o{i}") for i in range(MIN_POOL_SIZE)))
        samples = synth_generate(pool, 300, seed=0)
        assert max(len(s.record.tuples) for s in samples) == MIN_POOL_SIZE == 9

    def test_pool_too_small(self):
        small = TripletPool(tuple((f"s{i}", "r", f"o{i}") for i in range(MIN_POOL_SIZE - 1)))
        with pytest.raises(ConfigError, match="need at least"):
            synth_generate(small, 1, seed=0)

    def test_pool_rejects_a_repeated_triple(self):
        triples = [(f"s{i}", "r", f"o{i}") for i in range(MIN_POOL_SIZE)]
        with pytest.raises(ConfigError, match=r"pool repeats the triple \('s1', 'r', 'o1'\)"):
            TripletPool((*triples, triples[1], triples[2]))

    @pytest.mark.parametrize("n", [0, -3])
    def test_no_sentences_rejected(self, pool, n):
        with pytest.raises(ConfigError, match="at least 1"):
            synth_generate(pool, n, seed=0)

    def test_gold_aligns_perfectly(self, pool):
        samples = synth_generate(pool, 40, seed=5)
        for s in samples:
            aligned = lcs_align(s.record)
            assert not aligned.skipped
            assert aligned.grid.n_gold == len(s.record.tuples)


_field = st.text(max_size=8)


@st.composite
def tuple_records(draw):
    """GenerativeRecords with distinct sentences, 1-3 extractions each and
    a float confidence on every extraction; text fields are arbitrary."""
    sentences = draw(st.lists(_field, max_size=4, unique=True))
    extraction = st.builds(
        Extraction, _field, _field, _field, st.floats(0.0, 1.0, allow_nan=False)
    )
    return [
        GenerativeRecord(sentence, tuple(draw(st.lists(extraction, min_size=1, max_size=3))))
        for sentence in sentences
    ]


class TestTuplesTsv:
    @settings(max_examples=150, deadline=None)
    @given(records=tuple_records())
    # U+0085 and U+2028 are line breaks to str.splitlines but not to the format.
    @example(records=[GenerativeRecord("a\x85b", (Extraction("c\u2028d", "r", "o", 0.5),))])
    @example(records=[GenerativeRecord("s\u2028", (Extraction("a", "\x85", "b", 1.0),))])
    @example(records=[GenerativeRecord("\u3000 ", (Extraction("a", "r", "b", 1.0),))])
    def test_write_read_is_an_exact_round_trip(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("tsv") / "t.tsv"
        fields = [f for r in records for e in r.tuples for f in (r.sentence, *e.as_tuple())]
        blank = any(not r.sentence.strip() for r in records)
        if blank or any(c in f for f in fields for c in "\t\n\r"):
            with pytest.raises(FormatError):
                write_tuples_tsv(path, records)
            return
        write_tuples_tsv(path, records)
        assert read_tuples_tsv(path) == records

    def test_roundtrip_identity(self, tmp_path):
        records = [
            GenerativeRecord("alpha beta .", (Extraction("alpha", "beta", "gamma", 0.5),)),
            GenerativeRecord(
                "delta eps .",
                (Extraction("d", "e", "f", 1.0), Extraction("g", "h", "i", 0.25)),
            ),
        ]
        path = tmp_path / "t.tsv"
        write_tuples_tsv(path, records)
        assert read_tuples_tsv(path) == records

    @pytest.mark.parametrize("char", ["\t", "\n", "\r"])
    @pytest.mark.parametrize("field", ["sentence", "arg1", "rel", "arg2"])
    def test_separator_in_a_field_writes_nothing(self, tmp_path, field, char):
        parts = {"sentence": "s s", "arg1": "a", "rel": "r", "arg2": "o"}
        parts[field] = f"x{char}y"
        ok = GenerativeRecord("fine .", (Extraction("a", "r", "o", 0.5),))
        bad = GenerativeRecord(
            parts["sentence"], (Extraction(parts["arg1"], parts["rel"], parts["arg2"]),)
        )
        path = tmp_path / "t.tsv"
        with pytest.raises(FormatError, match="tabs/newlines"):
            write_tuples_tsv(path, [ok, bad])
        assert not path.exists()

    def test_missing_confidence_written_as_one(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_tuples_tsv(path, [GenerativeRecord("s", (Extraction("a", "b", "c"),))])
        line = path.read_text().strip()
        assert line.split("\t")[1] == "1.0"

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("one\ttwo\tthree\n")
        with pytest.raises(FormatError) as err:
            read_tuples_tsv(path)
        assert ":1:" in str(err.value)

    def test_bad_confidence(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("s\thigh\ta\tb\tc\n")
        with pytest.raises(FormatError):
            read_tuples_tsv(path)

    @pytest.mark.parametrize("conf", ["1.5", "-0.25", "nan"])
    def test_confidence_outside_the_unit_range_names_its_line(self, tmp_path, conf):
        # Line 2 also has an empty gold part; the confidence is reported first.
        path = tmp_path / "bad.tsv"
        path.write_text(f"s\t1.0\ta\tb\tc\ns\t{conf}\t \tb\tc\n")
        with pytest.raises(FormatError, match=rf":2: confidence {float(conf)} outside \[0, 1\]$"):
            read_tuples_tsv(path, gold=True)

    def test_lines_are_parsed_as_the_file_is_read(self, tmp_path):
        # The undecodable byte lies past the first chunk that the reader
        # decodes, so the format error on line 1 is met first.
        path = tmp_path / "bad.tsv"
        body = b"s\t1.0\ta\tb\tc\n" * 2000 + b"\xff\n"
        path.write_bytes(b"one\ttwo\n" + body)
        with pytest.raises(FormatError, match=":1: expected 5 columns"):
            read_tuples_tsv(path)
        path.write_bytes(body)
        with pytest.raises(FormatError, match=":2001: 'utf-8' codec can't decode byte 0xff"):
            read_tuples_tsv(path)

    @pytest.mark.parametrize("sentence", ["", " ", "\u3000\x1c"])
    def test_blank_sentence_is_rejected(self, tmp_path, sentence):
        path = tmp_path / "bad.tsv"
        path.write_text(f"s\t1.0\ta\tb\tc\n{sentence}\t1.0\ta\tb\tc\n", encoding="utf-8")
        with pytest.raises(FormatError, match=":2: blank sentence"):
            read_tuples_tsv(path)

    def test_grouping_by_sentence(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text(
            "s1\t1.0\ta\tb\tc\n"
            "s2\t1.0\td\te\tf\n"
            "s1\t0.5\tg\th\ti\n"
        )
        records = read_tuples_tsv(path)
        assert [r.sentence for r in records] == ["s1", "s2"]
        assert len(records[0].tuples) == 2


class TestImojieJsonl:
    def test_read_fixture(self, imojie_fixture_path):
        records = read_imojie_jsonl(imojie_fixture_path)
        assert len(records) == 100
        assert all(r.tuples for r in records)

    def test_extra_parts_append_to_arg2(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"sentence": "s", "tuples": [["a", "r", "b", "c", "d"]]}\n')
        records = read_imojie_jsonl(path)
        assert records[0].tuples[0].arg2 == "b c d"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text("{nope}\n")
        with pytest.raises(FormatError):
            read_imojie_jsonl(path)

    @pytest.mark.parametrize("record", [
        '{"sentence": null, "tuples": []}',
        '{"sentence": 5, "tuples": []}',
        '{"sentence": "s", "tuples": [["a", ["r"], "b"]]}',
        '{"sentence": "s", "tuples": [["a", "r", "b", null]]}',
    ])
    def test_non_string_text_is_rejected(self, tmp_path, record):
        path = tmp_path / "x.jsonl"
        path.write_text('{"sentence": "ok", "tuples": []}\n' + record + "\n")
        with pytest.raises(FormatError, match=":2:"):
            read_imojie_jsonl(path)

    @pytest.mark.parametrize("sentence", ["", " ", "\u2028\t"])
    def test_blank_sentence_is_rejected(self, tmp_path, sentence):
        path = tmp_path / "x.jsonl"
        record = {"sentence": sentence, "tuples": [["a", "r", "b"]]}
        path.write_text('{"sentence": "ok", "tuples": []}\n' + json.dumps(record) + "\n")
        with pytest.raises(FormatError, match=":2: blank sentence"):
            read_imojie_jsonl(path)

    def test_unicode_line_separators_stay_inside_a_record(self, tmp_path):
        path = tmp_path / "x.jsonl"
        record = {"sentence": "Ada wrote\u2028notes\x85.", "tuples": [["Ada", "wrote", "notes"]]}
        path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        records = read_imojie_jsonl(path)
        assert [r.sentence for r in records] == ["Ada wrote\u2028notes\x85."]


#: sha256 of write_grid_jsonl over lcs_align of synth_generate(pool_en, 200, seed=7).
GRIDS_SHA256 = "14cb6deae245d1d3b9910dce0c9cf2fbc7b520039ba1aac10835fedef84135c9"

_token = st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=4)


@st.composite
def grid_records(draw):
    """An AlignedRecord with arbitrary tokens, with or without placeholders,
    and 0-3 mask rows of arbitrary class ids."""
    seq = sl.sequence_from_tokens(
        draw(st.lists(_token, min_size=1, max_size=6)), append_placeholders=draw(st.booleans())
    )
    row = st.lists(st.integers(0, 3), min_size=len(seq), max_size=len(seq))
    rows = draw(st.lists(row, max_size=3))
    grid = sl.LabelGrid(np.array(rows, dtype=np.int64).reshape(len(rows), len(seq)))
    return sl.AlignedRecord(draw(st.text(max_size=12)), seq, grid, ())


WITH_PLACEHOLDERS = '["a", "[is]", "[from]", "[to]"]'


class TestGridJsonl:
    def test_roundtrip(self, tmp_path, pool):
        samples = synth_generate(pool, 10, seed=6)
        aligned = [lcs_align(s.record) for s in samples]
        path = tmp_path / "grids.jsonl"
        write_grid_jsonl(path, aligned)
        loaded = read_grid_jsonl(path)
        assert len(loaded) == len(aligned)
        for (seq, grid), original in zip(loaded, aligned):
            assert seq == original.sequence
            assert grid == original.grid

    def test_seeded_synth_grids_are_pinned(self, tmp_path, pool):
        # The training-grid bytes for a fixed corpus; any change to the
        # alignment or to the writer shows up as a digest mismatch.
        aligned = [lcs_align(s.record) for s in synth_generate(pool, 200, seed=7)]
        path = tmp_path / "grids.jsonl"
        write_grid_jsonl(path, aligned)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GRIDS_SHA256

    @settings(max_examples=100, deadline=None)
    @given(records=st.lists(grid_records(), max_size=4))
    # json.dumps(ensure_ascii=False) leaves U+0085 and U+2028 raw in the line.
    @example(records=[sl.AlignedRecord(
        "a\x85b\u2028c", sl.sequence_from_tokens(["a"]), sl.LabelGrid([[1]]), ()
    )])
    def test_write_read_write_is_byte_identical(self, tmp_path_factory, records):
        first = tmp_path_factory.mktemp("grids") / "first.jsonl"
        second = first.with_name("second.jsonl")
        write_grid_jsonl(first, records)
        loaded = read_grid_jsonl(first)
        assert [seq for seq, _ in loaded] == [r.sequence for r in records]
        for (_, grid), record in zip(loaded, records):
            assert grid.labels.shape == record.grid.labels.shape
            assert np.array_equal(grid.labels, record.grid.labels)
        write_grid_jsonl(second, [
            sl.AlignedRecord(r.sentence, seq, grid, ()) for r, (seq, grid) in zip(records, loaded)
        ])
        assert second.read_bytes() == first.read_bytes()

    def test_bad_class_letter(self, tmp_path):
        path = tmp_path / "g.jsonl"
        path.write_text('{"sentence": "s", "tokens": ["a"], "placeholders": 0, "masks": [["Z"]]}\n')
        with pytest.raises(FormatError):
            read_grid_jsonl(path)

    @pytest.mark.parametrize("masks", ["[5]", '["B"]', "5", '[[["B"]]]'])
    def test_malformed_mask_rows(self, tmp_path, masks):
        path = tmp_path / "g.jsonl"
        path.write_text(
            f'{{"sentence": "s", "tokens": ["a"], "placeholders": 0, "masks": {masks}}}\n'
        )
        with pytest.raises(FormatError, match=":1:"):
            read_grid_jsonl(path)

    @pytest.mark.parametrize("tokens, placeholders", [
        ('"ab"', "0"), ("[1, 2]", "0"), ('["a", "b c"]', "0"), ("[]", "0"),
        (WITH_PLACEHOLDERS, "3.9"), (WITH_PLACEHOLDERS, "3.0"), (WITH_PLACEHOLDERS, "true"),
        (WITH_PLACEHOLDERS, "1"), ('["a", "[is]", "[from]"]', "3"),
        ('["[is]", "[from]", "[to]"]', "3"),
    ])
    def test_malformed_tokens_or_placeholder_count(self, tmp_path, tokens, placeholders):
        path = tmp_path / "g.jsonl"
        record = f'"tokens": {tokens}, "placeholders": {placeholders}, "masks": []'
        path.write_text(f'{{"sentence": "s", {record}}}\n')
        with pytest.raises(FormatError, match=":1:"):
            read_grid_jsonl(path)
