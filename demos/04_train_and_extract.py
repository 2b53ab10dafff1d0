"""Train the tagger on a small synthetic corpus and extract from raw text.

The encoder runs once per sentence; all triplets come out of the same
forward pass, one per non-background slot.  This demo overfits a
60-sentence corpus in about a minute on a laptop CPU, then decodes a few
sentences.  Last it times ``predict_packs`` plus ``decode_pack``, the
packed path that ``slotie extract`` runs, for two slot budgets to show
that the slot count only scales the output head.

Run from the repository root:  python3 demos/04_train_and_extract.py
"""

import time

from slotie import (
    ModelConfig,
    SlotTagger,
    TrainConfig,
    TripletPool,
    decode,
    decode_pack,
    evaluate_macro_f1,
    lcs_align,
    synth_generate,
    tokenize,
    train,
)

pool = TripletPool.from_tsv("data/pool_en.tsv")
samples = synth_generate(pool, 60, seed=9)
dataset = [(a.sequence, a.grid) for a in (lcs_align(s.record) for s in samples)]

cfg = TrainConfig(
    learning_rate=2e-3, batch_size=8, max_epochs=120, seed=0,
    validation_fraction=0.0, target_f1=0.999,
)
print("training (token-wise macro F1 on the training set per epoch)...")
result = train(dataset, cfg, log=lambda s: print(
    f"  epoch {s.epoch:3d}  loss {s.train_loss:.4f}  F1 {s.val_macro_f1:.4f}"
    + ("  *best*" if s.is_best else "")
) if s.epoch % 10 == 0 or s.is_best and s.val_macro_f1 > 0.99 else None)
model = result.model
print(f"best epoch {result.best_epoch}: macro F1 {result.best_val_f1:.4f}")

print()
print("=== decoding a few training sentences ===")
for sample in samples[:3]:
    seq = tokenize(sample.record.sentence, append_placeholders=True)
    print(sample.record.sentence)
    for ext in decode(model.predict(seq), seq):
        print(f"    {ext.as_tuple()}  conf={ext.confidence:.3f}")

print()
print("=== held-out recombinations are harder at desk scale ===")
# With a 65-triplet pool and a tiny encoder the model memorizes rather
# than generalizes; unseen recombinations mostly decode to nothing unless
# the all-parts filter is relaxed.
for sentence in [
    "Marie Curie is chemist while Toyota makes cars .",
    "penguins live in Antarctica . Paris is capital of France .",
]:
    seq = tokenize(sentence, append_placeholders=True)
    strict = decode(model.predict(seq), seq)
    loose = decode(model.predict(seq), seq, require_all_parts=False)
    print(sentence)
    print(f"    strict decode: {len(strict)} extraction(s); "
          f"without the all-parts filter: {len(loose)}")
    for ext in (strict or loose)[:2]:
        print(f"    {ext.as_tuple()}  conf={ext.confidence:.3f}")

print()
print("=== slot count only scales the head ===")
sequences = [tokenize(s.record.sentence, append_placeholders=True)
             for s in synth_generate(pool, 200, seed=10)]
f1 = evaluate_macro_f1(model, dataset)
for n_slots in (20, 100):
    probe = SlotTagger(model.vocab, ModelConfig(n_slots=n_slots), seed=0)
    bias = probe.head.bias.data.reshape(n_slots, 4)
    bias[:, 0] += 4.0  # background-dominant regime, as after training
    tick = time.perf_counter()
    for pack, probs in probe.predict_packs(sequences):
        decode_pack(probs, pack)
    speed = len(sequences) / (time.perf_counter() - tick)
    print(f"   N={n_slots:3d}: {speed:7.0f} sentences/sec")
print(f"final training-set macro F1: {f1:.4f}")
