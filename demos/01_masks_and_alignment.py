"""Token masks and tuple-to-mask alignment, step by step.

A sentence is tagged per token with one of four classes; one mask, a row
of TokenClass ids, encodes one (arg1, rel, arg2) triplet.  A sentence's
gold masks form one (M, T) array, ``LabelGrid.labels``.  String tuples that copy pieces of the
sentence can be projected back onto token masks by repeatedly matching the
longest common token run and excluding it, with the appended [is]/[from]/
[to] placeholders standing in for words the tuple uses implicitly.

Run from the repository root:  python3 demos/01_masks_and_alignment.py
"""

from slotie import (
    Extraction,
    GenerativeRecord,
    TokenClass,
    grid_from_tuples,
    lcs_align,
    mask_to_extraction,
    tokenize,
)

S, R, O = TokenClass.SUBJECT, TokenClass.RELATION, TokenClass.OBJECT


def show_mask(seq, mask):
    row = "  ".join(f"{tok}/{TokenClass(lab).name[0]}" for tok, lab in zip(seq.tokens, mask))
    print("   " + row)


print("=== from mask to extraction ===")
seq = tokenize("Albert Einstein is physicist")
mask = (S, S, R, O)
show_mask(seq, mask)
print("  ->", mask_to_extraction(seq, mask))

print()
print("=== from token indices to a label grid ===")
seq = tokenize("Maria sold the old house to her neighbor")
grid = grid_from_tuples(seq, [((0,), (1,), (2, 3, 4)), ((0,), (1, 5), (6, 7))])
print("label array:", grid.labels.shape)
for mask in grid.labels:
    show_mask(seq, mask)

print()
print("=== aligning string tuples onto the sentence ===")
record = GenerativeRecord(
    "Obama born in Hawaii",
    (
        Extraction("Obama", "[is] born in", "Hawaii"),   # 'is' only implicit
        Extraction("Obama", "moved from", "Hawaii"),     # 'moved' never occurs
    ),
)
aligned = lcs_align(record)
print("sentence tokens:", aligned.sequence.tokens)
for mask in aligned.grid.labels:
    show_mask(aligned.sequence, mask)
    print("  ->", mask_to_extraction(aligned.sequence, mask))
for skip in aligned.skipped:
    print(f"skipped {skip.extraction.as_tuple()}: {skip.reason} {skip.unmatched}")
