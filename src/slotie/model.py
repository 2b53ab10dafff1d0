"""Token tagger: a small self-attention encoder plus an N-slot detection head.

The encoder is a desk-scale stand-in for a large pretrained model: learned
token embeddings over the training vocabulary (with an out-of-vocabulary
bucket), fixed sinusoidal position signals, and a few blocks of single-head
self-attention with feedforward layers, residuals and layer normalization.
The head maps each H-wide hidden state to N x C logits; a softmax over the
class axis yields the (T, N, C) probability tensor.  Growing N only grows
the head, the encoder is untouched.  Every reduction over the four-wide
class axis (the head's softmax in ``autodiff.softmax_array``, the argmax
of decoding) runs plane by plane through ``core.class_max``/``class_sum``/
``class_argmax``.

Training runs on the autodiff tape, one sentence at a time, and trains
every parameter.  The parameters live in two flat float64 blocks owned by
the tagger, one of values and one of gradients, laid out by
``parameter_shapes``; the tagger's one name-to-``Tensor`` table holds a
view of them per parameter, which the encoder and head share, so the tape,
the optimizer and checkpoints share one storage.  A new tagger draws its
initial values over that table in layout order; a loaded one takes the
checkpoint's block as it is and draws nothing.  A checkpoint (format
version 2) is a ``__meta__`` JSON string plus that one ``values`` array;
any failure to read one is a ``CheckpointError``.

Inference (``predict_packs``) runs the same arithmetic on plain arrays: it
packs the tokens of consecutive sentences into one matrix as it reads
them, and yields each pack's probabilities before it reads the next pack;
``decode_pack`` turns a whole pack into extractions in one array pass.
Its forward adds biases and residuals and applies the ReLU mask in place
on fresh matrix products, in the tape's operation order, so its bits equal
the tape's.
"""

from __future__ import annotations

import itertools
import json
import math
import zipfile
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Sequence, get_type_hints

import numpy as np

from . import autodiff
from .autodiff import Tensor, embedding, layer_norm, layer_norm_array, softmax_array
from .core import (
    N_CLASSES,
    Extraction,
    NumericalError,
    PredictionTensor,
    SlotieError,
    TokenSequence,
    class_argmax,
    class_max,
    mask_parts,
    typed_value,
)


class TooLong(SlotieError):
    """Raised when a sentence exceeds the configured token cap."""


class CheckpointError(SlotieError):
    """Raised for unreadable or version-mismatched checkpoints."""


OOV_TOKEN = "<unk>"
CHECKPOINT_VERSION = 2

#: Token rows per pack in ``predict_packs``: enough to amortise the per-pack
#: Python over ~10 sentences while keeping the pack's activations small.
PACK_TOKENS = 256

#: Width of each block's feed-forward layer, as a multiple of ``hidden``.
FF_MULTIPLIER = 4


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs; defaults match the reference configuration."""

    n_slots: int = 20
    hidden: int = 64
    blocks: int = 2
    max_len: int = 256

    def __post_init__(self) -> None:
        if min(self.n_slots, self.hidden, self.blocks, self.max_len) < 1:
            raise ValueError("all architecture sizes must be >= 1")


def build_vocab(sequences) -> dict[str, int]:
    """Token-to-id map in first-appearance order; id 0 is the OOV bucket."""
    vocab: dict[str, int] = {OOV_TOKEN: 0}
    for seq in sequences:
        for token in seq.tokens:
            if token not in vocab:
                vocab[token] = len(vocab)
    return vocab


def sinusoidal_positions(max_len: int, width: int) -> np.ndarray:
    """The standard interleaved sin/cos position table, shape (max_len, width)."""
    positions = np.arange(max_len, dtype=np.float64)[:, None]
    dims = np.arange(width, dtype=np.float64)[None, :]
    angles = positions / np.power(10000.0, 2.0 * (dims // 2) / width)
    table = np.zeros((max_len, width))
    table[:, 0::2] = np.sin(angles[:, 0::2])
    table[:, 1::2] = np.cos(angles[:, 1::2])
    return table


def parameter_shapes(n_vocab: int, config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape by name, in ``named_parameters()`` order:
    the layout of a tagger's flat blocks and of a checkpoint's values."""
    hidden, ff = config.hidden, config.hidden * FF_MULTIPLIER
    block = {
        "wq": (hidden, hidden), "bq": (hidden,),
        "wk": (hidden, hidden), "bk": (hidden,),
        "wv": (hidden, hidden), "bv": (hidden,),
        "wo": (hidden, hidden), "bo": (hidden,),
        "ln1_g": (hidden,), "ln1_b": (hidden,),
        "w1": (hidden, ff), "b1": (ff,),
        "w2": (ff, hidden), "b2": (hidden,),
        "ln2_g": (hidden,), "ln2_b": (hidden,),
    }
    shapes = {"embed": (n_vocab, hidden)}
    for i in range(config.blocks):
        shapes |= {f"block{i}.{name}": shape for name, shape in block.items()}
    out = config.n_slots * N_CLASSES
    return shapes | {"head.weight": (hidden, out), "head.bias": (out,)}


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b``, with the bias added in place to the fresh product."""
    out = x @ w
    out += b
    return out


class ReferenceEncoder:
    """Embeddings + sinusoidal positions + K post-norm attention blocks.

    ``params`` maps ``parameter_shapes`` names to the tagger's tensors; the
    encoder keeps the ``embed`` and ``block{i}.*`` ones."""

    def __init__(self, vocab: dict[str, int], config: ModelConfig, params: dict[str, Tensor]):
        self.vocab = dict(vocab)
        self.config = config
        self.embed = params["embed"]
        # Position signals are fixed; scaled down so content embeddings dominate.
        self._rows = np.zeros((0, config.hidden))
        self.block_params: list[dict[str, Tensor]] = []
        for i in range(config.blocks):
            prefix = f"block{i}."
            self.block_params.append(
                {name[len(prefix) :]: t for name, t in params.items() if name.startswith(prefix)}
            )

    def token_ids(self, seq: TokenSequence) -> np.ndarray:
        oov = self.vocab[OOV_TOKEN]
        return np.array([self.vocab.get(tok, oov) for tok in seq.tokens], dtype=np.int64)

    def positions(self, seq: TokenSequence) -> np.ndarray:
        n_tokens = len(seq)
        if n_tokens > self.config.max_len:
            raise TooLong(f"{n_tokens} tokens exceed the {self.config.max_len}-token cap")
        if n_tokens > len(self._rows):
            self._rows = 0.1 * sinusoidal_positions(n_tokens, self.config.hidden)
        return self._rows[:n_tokens]

    def encode(self, seq: TokenSequence) -> Tensor:
        x = embedding(self.embed, self.token_ids(seq)) + Tensor(self.positions(seq))
        scale = 1.0 / np.sqrt(self.config.hidden)
        for blk in self.block_params:
            q = x @ blk["wq"] + blk["bq"]
            k = x @ blk["wk"] + blk["bk"]
            v = x @ blk["wv"] + blk["bv"]
            attn = ((q @ k.transpose()) * scale).softmax()
            y = (attn @ v) @ blk["wo"] + blk["bo"]
            x = layer_norm(x + y, blk["ln1_g"], blk["ln1_b"])
            f = (x @ blk["w1"] + blk["b1"]).relu() @ blk["w2"] + blk["b2"]
            x = layer_norm(x + f, blk["ln2_g"], blk["ln2_b"])
        return x

    def encode_packed(self, seqs: Sequence[TokenSequence]) -> np.ndarray:
        """The hidden rows of all ``seqs`` stacked into one (sum of T, H)
        array, without a graph.

        The per-token steps run once over the stack; attention runs per
        sentence on its own rows.  Every operation runs in ``encode``'s
        order, so each sentence's rows equal ``encode(seq).data``, except
        that a one-token sentence must be packed alone (see
        ``SlotTagger.predict_packs``).
        """
        ids = np.concatenate([self.token_ids(seq) for seq in seqs])
        x = self.embed.data[ids]
        x += np.concatenate([self.positions(seq) for seq in seqs])
        bounds = np.cumsum([0] + [len(seq) for seq in seqs]).tolist()
        spans = list(zip(bounds[:-1], bounds[1:]))
        scale = 1.0 / np.sqrt(self.config.hidden)
        # Sums run in place on fresh arrays; ``a += b`` gives the bits of
        # ``b + a``, since floating-point addition commutes.
        for blk in self.block_params:
            p = {name: tensor.data for name, tensor in blk.items()}
            q = _affine(x, p["wq"], p["bq"])
            k = _affine(x, p["wk"], p["bk"])
            v = _affine(x, p["wv"], p["bv"])
            mixed = np.empty_like(v)
            for start, stop in spans:
                scores = q[start:stop] @ k[start:stop].T
                scores *= scale
                np.matmul(softmax_array(scores), v[start:stop], out=mixed[start:stop])
            y = _affine(mixed, p["wo"], p["bo"])
            y += x
            x, _, _ = layer_norm_array(y, p["ln1_g"], p["ln1_b"])
            h = _affine(x, p["w1"], p["b1"])
            h *= h > 0.0
            f = _affine(h, p["w2"], p["b2"])
            f += x
            x, _, _ = layer_norm_array(f, p["ln2_g"], p["ln2_b"])
        return x


class DetectionHead:
    """Affine map from H hidden features to N x C logits per token."""

    def __init__(self, config: ModelConfig, weight: Tensor, bias: Tensor):
        self.config = config
        self.weight = weight
        self.bias = bias

    def __call__(self, hidden: Tensor) -> Tensor:
        n_tokens = hidden.shape[0]
        logits = hidden @ self.weight + self.bias
        return logits.reshape(n_tokens, self.config.n_slots, N_CLASSES).softmax()

    def probs(self, hidden: np.ndarray) -> np.ndarray:
        """``__call__``'s forward value on a plain (T, H) array."""
        logits = _affine(hidden, self.weight.data, self.bias.data)
        return softmax_array(logits.reshape(len(hidden), self.config.n_slots, N_CLASSES))


def _checked(probs: np.ndarray) -> PredictionTensor:
    if not np.isfinite(probs).all():
        raise NumericalError("the tagger's probabilities are not finite")
    return PredictionTensor(probs)


class SlotTagger:
    """Encoder + head; produces the (T, N, C) probability tensor.

    ``values`` and ``grads`` are flat float64 blocks laid out as
    ``parameter_shapes``, which is ``named_parameters()`` order.  Every
    parameter's ``.data`` and ``.grad`` are reshaped views of them:
    backward adds into ``grads`` and the optimizer updates ``values``.
    Write into ``.data`` in place; a rebound ``.data`` leaves training.

    Given ``values`` (a flat float64 array of that layout, as ``load``
    reads it), the tagger takes that array as its value block; otherwise
    it draws its initial parameters from ``seed``.
    """

    def __init__(
        self,
        vocab: dict[str, int],
        config: ModelConfig = ModelConfig(),
        seed: int = 0,
        values: np.ndarray | None = None,
    ):
        if OOV_TOKEN not in vocab or vocab[OOV_TOKEN] != 0:
            raise ValueError(f"vocab must map {OOV_TOKEN!r} to id 0")
        self.config = config
        self.seed = seed
        shapes = parameter_shapes(len(vocab), config)
        size = sum(math.prod(shape) for shape in shapes.values())
        if values is not None and (values.dtype != np.float64 or values.shape != (size,)):
            raise ValueError(
                f"parameter values are {values.dtype} of shape {values.shape}, "
                f"expected float64 of shape ({size},) for this config and vocab"
            )
        self.values = np.zeros(size) if values is None else values
        self.grads = np.zeros(size)
        self._params: dict[str, Tensor] = {}
        start = 0
        for name, shape in shapes.items():
            stop = start + math.prod(shape)
            self._params[name] = Tensor(self.values[start:stop].reshape(shape), requires_grad=True)
            self._params[name].grad = self.grads[start:stop].reshape(shape)
            start = stop
        self.encoder = ReferenceEncoder(vocab, config, self._params)
        self.head = DetectionHead(config, self._params["head.weight"], self._params["head.bias"])
        if values is None:
            # One stream for the encoder and one for the head, each drawn in
            # layout order: N(0, 0.1) embeddings, Xavier-normal matrices and
            # unit layer-norm gains; biases stay zero.
            streams = [np.random.default_rng(np.random.SeedSequence([seed, i])) for i in (0, 1)]
            for name, shape in shapes.items():
                rng, data = streams[name.startswith("head.")], self._params[name].data
                if name == "embed":
                    data[...] = rng.normal(0.0, 0.1, size=shape)
                elif name.endswith("_g"):
                    data.fill(1.0)
                elif len(shape) == 2:
                    data[...] = rng.normal(0.0, np.sqrt(2.0 / sum(shape)), size=shape)
        self._last_output: Tensor | None = None

    @property
    def vocab(self) -> dict[str, int]:
        return self.encoder.vocab

    def forward(self, seq: TokenSequence) -> PredictionTensor:
        """Run the model, recording the graph for a later ``backward``."""
        self._last_output = self.head(self.encoder.encode(seq))
        return _checked(self._last_output.data)

    def predict(self, seq: TokenSequence) -> PredictionTensor:
        """Inference-only forward; no graph is recorded."""
        _, p = next(self.predict_packs([seq]))
        return p

    def predict_packs(
        self, seqs: Iterable[TokenSequence]
    ) -> Iterator[tuple[list[TokenSequence], PredictionTensor]]:
        """Inference over plain arrays, one pack at a time: yields ``(pack,
        p)``, where ``pack`` lists consecutive input sentences and ``p``
        stacks their (T, N, C) probabilities in order, checked once.

        A pack holds at most ``PACK_TOKENS`` token rows (a longer sentence,
        or a one-token one, is a pack of its own), and the per-token work
        runs once per pack; a pack is yielded before the input is read past
        it, so only one pack's probabilities are alive at a time.  Each
        sentence's rows equal ``forward(seq).probs`` bit for bit.
        """
        pack: list[TokenSequence] = []
        rows = 0
        for seq in seqs:
            # numpy multiplies a one-row matrix on its vector path, whose sums
            # can round differently from the matrix path: a one-token sentence
            # (the only pack with one row) is a pack of its own.
            if pack and (rows + len(seq) > PACK_TOKENS or len(seq) == 1 or rows == 1):
                yield pack, self._predict_pack(pack)
                pack, rows = [], 0
            pack.append(seq)
            rows += len(seq)
        if pack:
            yield pack, self._predict_pack(pack)

    def _predict_pack(self, pack: list[TokenSequence]) -> PredictionTensor:
        return _checked(self.head.probs(self.encoder.encode_packed(pack)))

    def backward(self, prob_grad: np.ndarray) -> None:
        """Push a (T, N, C) gradient w.r.t. the probabilities into the
        parameters of the most recent ``forward``."""
        if self._last_output is None:
            raise autodiff.GraphError("backward called before any forward pass")
        self._last_output.backward(prob_grad)
        self._last_output = None

    def named_parameters(self) -> dict[str, Tensor]:
        return dict(self._params)

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        id_to_token = sorted(self.vocab, key=self.vocab.get)
        meta = {
            "format_version": CHECKPOINT_VERSION,
            "config": asdict(self.config),
            "vocab": id_to_token,
            "seed": self.seed,
        }
        # An open file, not a path: np.savez appends ".npz" to a path without it.
        with open(path, "wb") as out:
            np.savez(out, __meta__=np.array(json.dumps(meta)), values=self.values)

    @classmethod
    def load(cls, path) -> "SlotTagger":
        try:
            with open(path, "rb") as file:
                # np.load's own zip test: any other file would reach its .npy
                # or pickle branch and come back as an array or pickle advice.
                if file.read(4) not in (b"PK\x03\x04", b"PK\x05\x06"):
                    raise CheckpointError(f"cannot read checkpoint {path}: not an .npz archive")
                file.seek(0)
                with np.load(file, allow_pickle=False) as archive:
                    vocab, config, seed = _checkpoint_meta(json.loads(str(archive["__meta__"])))
                    values = archive["values"]
            model = cls(vocab, config, seed=seed, values=values)
        # A missing member or meta key is a KeyError, meta that is not JSON a ValueError.
        except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
            reason = f"{type(exc).__name__}: {exc}"
            raise CheckpointError(f"cannot read checkpoint {path}: {reason}") from exc
        if not np.isfinite(values).all():
            params = model.named_parameters().items()
            bad = next(name for name, tensor in params if not np.isfinite(tensor.data).all())
            raise CheckpointError(f"parameter {bad} holds non-finite values")
        return model


def _checkpoint_meta(meta) -> tuple[dict[str, int], ModelConfig, int]:
    """The vocabulary, config and seed that checkpoint ``meta`` records."""
    if not isinstance(meta, dict):
        raise CheckpointError(f"checkpoint meta is a {type(meta).__name__}, not a dict")
    version = meta.get("format_version")
    if typed_value("format_version", int, version, CheckpointError) != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version} is not supported (expected {CHECKPOINT_VERSION})"
        )
    tokens, stored, seed = (
        typed_value(key, hint, meta[key], CheckpointError)
        for key, hint in (("vocab", tuple[str, ...]), ("config", dict), ("seed", int))
    )
    hints = get_type_hints(ModelConfig)
    unknown = sorted(set(stored) - set(hints))
    if unknown:
        raise CheckpointError(f"checkpoint config has unknown keys {unknown}")
    config = {k: typed_value(k, hints[k], v, CheckpointError) for k, v in stored.items()}
    return {token: i for i, token in enumerate(tokens)}, ModelConfig(**config), seed


def decode_grid(p: PredictionTensor) -> np.ndarray:
    """Argmax class of every (token, slot), shape (T, N), no filtering."""
    return class_argmax(p.probs)


def decode(
    p: PredictionTensor,
    seq: TokenSequence,
    require_all_parts: bool = True,
) -> list[Extraction]:
    """Turn the probability tensor into extractions.

    Per slot, take the argmax class of every token; drop all-Background
    masks, and with ``require_all_parts`` also drop masks missing a
    Subject, Relation or Object.  Identical masks collapse to the lowest
    slot index.  Survivors are rendered to strings; each one's confidence
    is the lowest argmax probability over its non-Background tokens.
    """
    return decode_pack(p, [seq], require_all_parts)[0]


def decode_pack(
    p: PredictionTensor,
    seqs: Sequence[TokenSequence],
    require_all_parts: bool = True,
) -> list[list[Extraction]]:
    """``decode`` of every sentence of a pack, as ``predict_packs`` yields
    it (``p`` stacks the rows of ``seqs`` in order), in one array pass;
    only the kept slots are rendered one by one."""
    lengths = [len(seq) for seq in seqs]
    starts = list(itertools.accumulate(lengths[:-1], initial=0))
    if p.n_tokens != sum(lengths):
        raise ValueError("prediction tensor and sentences cover different token counts")
    top = class_max(p.probs)  # the argmax probability
    labels = class_argmax(p.probs, top)
    # present[s, n]: bit c is set when slot n of sentence s labels some
    # token with class c; parts: the bits of Subject, Relation and Object.
    present = np.bitwise_or.reduceat(np.left_shift(1, labels), starts)
    parts = (1 << N_CLASSES) - 2
    present &= parts
    keep = present == parts if require_all_parts else present != 0
    confidences = np.minimum.reduceat(np.where(labels > 0, top, np.inf), starts)
    extractions: list[list[Extraction]] = [[] for _ in seqs]
    seen: set[tuple[int, bytes]] = set()
    for s, n in zip(*(index.tolist() for index in np.nonzero(keep))):
        column = labels[starts[s] : starts[s] + lengths[s], n]
        key = (s, column.tobytes())
        if key in seen:
            continue
        seen.add(key)
        arg1, rel, arg2 = mask_parts(seqs[s], column.tolist())
        extractions[s].append(Extraction(arg1, rel, arg2, float(confidences[s, n])))
    return extractions
