"""Output pins and properties of the four corpus scorers.

The pins hold the sha256 of each scheme's ``report.to_dict()`` serialised
with ``json.dumps(..., sort_keys=True)`` on three fixed inputs, so any
change to a scorer's fields, counts or float bits shows up as a digest
mismatch.  The properties check gold-vs-gold = 1, P/R in [0, 1] and
prediction-order invariance over generated extraction sets.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from slotie import Extraction, read_tuples_tsv, synth_generate
from slotie.scoring import _EVERY_PART, _RELATION, SCHEMES, _pair_table

SYNTH_SENTENCES = 200
SYNTH_SEED = 7


def _as_map(records):
    return {r.sentence: list(r.tuples) for r in records}


def _perturb(gold):
    """A deterministic, RNG-free noisy copy of a gold map.

    Per extraction it cycles through keep / drop a leading arg1 word /
    truncate arg2 / swap in a stopword relation / swap the arguments /
    extend arg2 / drop / duplicate.  Some sentences get no predictions,
    reversed order, a stray tuple from another sentence or an empty arg1,
    and one prediction sentence is absent from gold.
    """
    sentences = list(gold)
    pred = {}
    for i, sentence in enumerate(sentences):
        if i % 7 == 0:
            continue
        out = []
        for j, g in enumerate(gold[sentence]):
            arg1, rel, arg2 = g.as_tuple()
            op = (i + 3 * j) % 8
            if op == 1:
                arg1 = " ".join(arg1.split()[1:]) or arg1
            elif op == 2:
                arg2 = arg2.split()[0]
            elif op == 3:
                rel = "was"
            elif op == 4:
                arg1, arg2 = arg2, arg1
            elif op == 5:
                arg2 = arg2 + " again today"
            elif op == 6:
                continue
            out.append(Extraction(arg1, rel, arg2, 0.5))
            if op == 7:
                out.append(Extraction(arg1, rel, arg2, 0.25))
        if i % 5 == 0:
            out.reverse()
        if i % 11 == 3:
            out.append(gold[sentences[i - 1]][0])
        if i % 13 == 4 and out:
            first = out[0]
            out[0] = Extraction("", first.rel, first.arg2, first.confidence)
        pred[sentence] = out
    pred["a sentence that no gold file holds ."] = [Extraction("a", "b", "c")]
    return pred


def _inputs(name, pool, sample_gold_path, sample_pred_path):
    if name == "sample":
        return (_as_map(read_tuples_tsv(sample_gold_path)),
                _as_map(read_tuples_tsv(sample_pred_path)))
    if name == "synth":
        gold = _as_map(s.record for s in synth_generate(pool, SYNTH_SENTENCES, SYNTH_SEED))
        return gold, _perturb(gold)
    return {}, _as_map(read_tuples_tsv(sample_pred_path))


PINNED = {
    ("carb", "sample"): "eaff9a71da2ced2cf632e25a99cd6254cfeb8b8988d3657a6edac522818c2f1c",
    ("carb11", "sample"): "b579bc185ec23a0f75521b481f8bbf126c3f9bc74de98d5caa39fad3b2972c67",
    ("oie2016", "sample"): "e3b98c5b50376d82073cc7d0d382ba4644cfbc6078cf67318b22b61fcdfcb658",
    ("wire57", "sample"): "8e56b0fb1c3d7704ce2ab0691613002d494a6975c7888b37b833b206b590ac5e",
    ("carb", "synth"): "9d496b0614f7d412230dc9c88a12d46aa14b52c9e72712d3f3ee82a87dea437f",
    ("carb11", "synth"): "b1a3a7d7fc2e314a1b82df3dfaa7db13d3797a6b236d896d1f1bbd6f44c339ff",
    ("oie2016", "synth"): "90efb82437e629f1483ef63a98f4d25e998a2550c5de2070218ab5c02ada4aa4",
    ("wire57", "synth"): "a7f0a773ad758e12fd7a6591316d757c51bb19d12360ad704745cdc7f8ef291e",
    ("carb", "empty-gold"): "c32ee5e4427be7700d02d7b1e08aa44932377e8f76fa9631225aaaed98a2c8ec",
    ("carb11", "empty-gold"): "5208ddf95eac54157af8d873223e9710124b324a6ebd93a00d669775f4c68ae5",
    ("oie2016", "empty-gold"): "86b71490fb172cb17dc4bbca9b28b68f45d4db32390e38d0f32e4cf0b7bd1658",
    ("wire57", "empty-gold"): "9764f8e3f632b60a79a6754ac32a45f03579017a4caa145bce2c990c8635129d",
}


@pytest.mark.parametrize("inputs", ["sample", "synth", "empty-gold"])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_report_json_is_pinned(scheme, inputs, pool, sample_gold_path, sample_pred_path):
    gold, pred = _inputs(inputs, pool, sample_gold_path, sample_pred_path)
    report = SCHEMES[scheme](gold, pred)
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED[(scheme, inputs)]


# -- properties over generated extraction sets -------------------------------------

# A few content words plus stopwords, so stopword filtering and its
# fallback for all-stopword parts both come up.
_WORDS = ("cat", "mat", "sat", "mill", "river", "the", "of", "is", "on", "a")
_part = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join)
_extraction = st.builds(Extraction, _part, _part, _part)
_extractions = st.lists(_extraction, min_size=1, max_size=4)
_corpus = st.dictionaries(st.sampled_from(("s1", "s2", "s3")), _extractions,
                          min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(gold=_corpus)
def test_gold_against_itself_scores_exactly_one(gold):
    for name, scheme in SCHEMES.items():
        report = scheme(gold, gold)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0), name


@settings(max_examples=60, deadline=None)
@given(gold=_corpus, pred=_corpus)
def test_precision_and_recall_stay_in_unit_interval(gold, pred):
    for name, scheme in SCHEMES.items():
        report = scheme(gold, pred)
        assert 0.0 <= report.precision <= 1.0, name
        assert 0.0 <= report.recall <= 1.0, name


def _f1_ties(gold, pred, drop_stopwords, gated_parts):
    """Whether two candidate pairs of one sentence tie on F1, under the
    scheme that filters stopwords and gates parts this way."""
    sentences = [(list(pred.get(sentence, ())), gold_exts) for sentence, gold_exts in gold.items()]
    for table in _pair_table(sentences, drop_stopwords, gated_parts):
        f1s = sorted(pair.f1 for pair in table.pairs)
        if any(b - a < 1e-9 for a, b in zip(f1s, f1s[1:])):
            return True
    return False


@settings(max_examples=60, deadline=None)
@given(gold=_corpus, pred=_corpus)
def test_order_free_schemes_ignore_prediction_order(gold, pred):
    """wire57 and carb11 break F1 ties by prediction index, so the order
    only matters when two candidate pairs tie; without ties it must not."""
    reversed_pred = {s: exts[::-1] for s, exts in pred.items()}
    for name, drop_stopwords, gated_parts in (("wire57", False, _EVERY_PART),
                                              ("carb11", True, _RELATION)):
        if _f1_ties(gold, pred, drop_stopwords, gated_parts):
            continue
        forward = SCHEMES[name](gold, pred)
        backward = SCHEMES[name](gold, reversed_pred)
        assert forward.precision == pytest.approx(backward.precision, abs=1e-12), name
        assert forward.recall == pytest.approx(backward.recall, abs=1e-12), name
