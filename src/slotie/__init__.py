"""slotie: single-pass, order-agnostic set prediction for open information
extraction.

A sentence runs through a token encoder once; N parallel slots each emit a
per-token class mask, and a bipartite-matching loss makes the slot order
irrelevant during training.  The package also ships the dataset converters
and the benchmark scorers used to evaluate such extractors.
"""

from .core import (
    BadAnnotation,
    EmptyInput,
    Extraction,
    LabelGrid,
    N_CLASSES,
    NoTriplet,
    PLACEHOLDER_TOKENS,
    PredictionTensor,
    SlotieError,
    TokenClass,
    TokenSequence,
    grid_from_tuples,
    mask_to_extraction,
    sequence_from_tokens,
    tokenize,
)
from .matching import (
    Assignment,
    LossConfig,
    ShapeError,
    TooManyGold,
    hungarian_max,
    loss_assignment_gradient,
    order_agnostic_loss,
    similarity_matrix,
)
from .model import (
    CheckpointError,
    DetectionHead,
    ModelConfig,
    ReferenceEncoder,
    SlotTagger,
    TooLong,
    build_vocab,
    decode,
    decode_grid,
    decode_pack,
)
from .train import (
    AdamState,
    NumericalError,
    TrainConfig,
    TrainResult,
    adam_step,
    evaluate_macro_f1,
    train,
)
from .data import (
    AlignedRecord,
    ConfigError,
    ConllRecord,
    FormatError,
    GenerativeRecord,
    SynthSample,
    TripletPool,
    lcs_align,
    lsoie_convert,
    read_conll,
    read_grid_jsonl,
    read_imojie_jsonl,
    read_tuples_tsv,
    synth_generate,
    template_frequencies,
    write_grid_jsonl,
    write_tuples_tsv,
)
from .scoring import (
    BenchmarkReport,
    MacroF1Accumulator,
    ScoredPair,
    auc_single_point,
    carb_1to1_score,
    carb_score,
    oie2016_score,
    wire57_pair,
    wire57_score,
)

__version__ = "0.1.0"
