"""Hierarchical context bi-LSTM tagger with an auxiliary frequency-bin head.

The representation layer encodes a sentence into a (T, D) token matrix,
which is perturbed with Gaussian noise during training and fed through a
context bi-LSTM; an affine head over each position's encoding scores the
tags, and (optionally) a second head scores the token's log-frequency bin.
The joint loss is the sum of both cross-entropies over all tokens.  Every
layer works on the whole sentence's matrix, so a sentence records a few
dozen tape nodes whatever its length.

Training is plain SGD, one update per sentence, sentence order reshuffled
every epoch with a seeded stream; everything is deterministic for a fixed
seed.
"""

import logging
import math
from collections import namedtuple
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Parameter, Rng, Tape, add, affine, gaussian_noise, glorot, sgd_step, softmax_xent
from .container import ModelError, header_field, load_container, save_container
from .recurrent import LstmCell, birnn_ctx
from .representations import ReprConfig, TokenEncoder, Vocab, build_vocab, load_pretrained

log = logging.getLogger(__name__)

# words seen exactly once in training stand in for the UNK row this often
UNK_REPLACE_PROB = 0.25


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""

    def __init__(self, epoch, sentence_index):
        super().__init__(
            f"non-finite loss at epoch {epoch + 1}, sentence {sentence_index}"
        )
        self.epoch = epoch
        self.sentence_index = sentence_index


@dataclass
class Hyperparams:
    lr: float = 0.1
    epochs: int = 20
    sigma: float = 0.2
    word_dim: int = 128
    subtoken_dim: int = 100
    hidden_dim: int = 100
    seed: int = 1
    repr_mode: str = "w+c"
    freqbin: bool = False
    pretrained_path: str = None

    def __post_init__(self):
        for name in ("lr", "epochs", "word_dim", "subtoken_dim", "hidden_dim"):
            if getattr(self, name) <= 0:
                raise ValueError(f"hyperparameter {name} must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        ReprConfig(self.repr_mode)  # validates the mode


def freqbin_label(freq):
    """Frequency-class label: int(ln(freq)), with freq 0 (UNK) in bin 0."""
    if freq < 0:
        raise ValueError(f"negative frequency {freq}")
    if freq == 0:
        return 0
    return int(math.log(freq))


# (T, n_tags) and (T, n_bins) logit matrices; freq_logits is None without the aux head
TokenScores = namedtuple("TokenScores", ["tag_logits", "freq_logits"])


class TaggerModel:
    """Assembled network: encoder, context cells, tag head, optional freq head."""

    def __init__(self, hp, vocab, tagset, n_bins, init_rng=None, pretrained_path=None, word_dim=None):
        self.hp = hp
        self.vocab = vocab
        self.tagset = list(tagset)
        self.tag_index = {t: i for i, t in enumerate(self.tagset)}
        self.n_bins = n_bins
        self.train_history = []

        self.encoder = TokenEncoder(
            ReprConfig(hp.repr_mode), vocab, word_dim or hp.word_dim, hp.subtoken_dim, hp.hidden_dim, init_rng
        )
        if pretrained_path is not None:
            if self.encoder.word_table is None:
                raise ValueError("pretrained embeddings need a mode containing w")
            report = load_pretrained(
                pretrained_path, vocab, self.encoder.word_table, allow_resize=True, rng=init_rng
            )
            log.info("pretrained embeddings: %(loaded)d loaded, %(missed)d missed", report)

        self.ctx_f = LstmCell("ctx_f", self.encoder.out_dim, hp.hidden_dim, init_rng)
        self.ctx_r = LstmCell("ctx_r", self.encoder.out_dim, hp.hidden_dim, init_rng)
        two_h = 2 * hp.hidden_dim
        self.tag_W = Parameter("tag_head.W", glorot(init_rng, len(self.tagset), two_h))
        self.tag_b = Parameter("tag_head.b", np.zeros(len(self.tagset)))
        if hp.freqbin:
            self.freq_W = Parameter("freq_head.W", glorot(init_rng, n_bins, two_h))
            self.freq_b = Parameter("freq_head.b", np.zeros(n_bins))
        else:
            self.freq_W = self.freq_b = None

    def parameters(self):
        return (
            self.encoder.parameters()
            + self.ctx_f.parameters()
            + self.ctx_r.parameters()
            + [self.tag_W, self.tag_b]
            + ([self.freq_W, self.freq_b] if self.freq_W is not None else [])
        )

    def training_frequency(self, form):
        return self.vocab.freq(form)

    def predict(self, tokens):
        """Most likely tag per token; ties resolve to the lowest tag index."""
        scores = forward_sentence(self, tokens)
        return [self.tagset[i] for i in np.argmax(scores.tag_logits.v, axis=1).tolist()]


def forward_sentence(model, tokens, training=False, rng=None, tape=None, unk_mask=None):
    """Tag logits (and freq logits when the aux head exists), one row per token."""
    if not tokens:
        raise ValueError("forward_sentence: empty sentence")
    x = model.encoder.encode(tokens, tape, replace_unk=unk_mask)
    if training and model.hp.sigma > 0.0:
        x = gaussian_noise(tape, x, model.hp.sigma, rng)
    v = birnn_ctx(model.ctx_f, model.ctx_r, x, tape)
    tag_logits = affine(tape, model.tag_W, v, model.tag_b)
    freq_logits = affine(tape, model.freq_W, v, model.freq_b) if model.freq_W is not None else None
    return TokenScores(tag_logits, freq_logits)


def sentence_loss(model, sentence, tape=None, rng=None, training=False):
    """Summed cross-entropy over tokens: tag loss plus (if enabled) freq loss.

    During training, singleton words may be routed through the UNK row;
    such tokens also take frequency label 0.
    """
    unk_mask = None
    if training and model.encoder.word_table is not None:
        unk_mask = [
            model.vocab.freq(form) == 1 and rng.uniform() < UNK_REPLACE_PROB
            for form in sentence.forms
        ]
    gold = [model.tag_index.get(tag) for tag in sentence.tags]
    if None in gold:
        raise ValueError(f"gold tag {sentence.tags[gold.index(None)]!r} not in model tagset")
    scores = forward_sentence(model, sentence.forms, training, rng, tape, unk_mask)
    total = softmax_xent(tape, scores.tag_logits, gold)
    if scores.freq_logits is not None:
        fbins = [
            0 if unk_mask and unk_mask[i] else freqbin_label(model.vocab.freq(form))
            for i, form in enumerate(sentence.forms)
        ]
        total = add(tape, total, softmax_xent(tape, scores.freq_logits, fbins))
    return total


def _accuracy(model, corpus):
    correct = total = 0
    for sent in corpus:
        for got, want in zip(model.predict(sent.forms), sent.tags):
            correct += got == want
            total += 1
    return correct / total


def train(train_corpus, hp, dev_corpus=None):
    """SGD training: one update per sentence, seeded shuffling, no batches.

    Aborts with DivergenceError if the loss goes non-finite.  Per-epoch mean
    loss (and dev accuracy, when a dev corpus is given) is logged and kept
    in model.train_history.
    """
    if not train_corpus.sentences:
        raise ValueError("train: empty corpus")
    vocab = build_vocab(train_corpus)
    tagset = train_corpus.tagset()
    n_bins = 1 + max(freqbin_label(c) for c in vocab.freq_train.values())
    rng = Rng(hp.seed)
    model = TaggerModel(
        hp, vocab, tagset, n_bins, init_rng=rng.child(0), pretrained_path=hp.pretrained_path
    )
    train_rng = rng.child(1)
    shuffle_rng = rng.child(2)
    params = model.parameters()
    sentences = train_corpus.sentences
    for epoch in range(hp.epochs):
        order = list(range(len(sentences)))
        shuffle_rng.shuffle(order)
        total = 0.0
        for idx in order:
            tape = Tape()
            loss = sentence_loss(model, sentences[idx], tape, train_rng, training=True)
            value = float(loss.v)
            if not math.isfinite(value):
                raise DivergenceError(epoch, idx)
            tape.backward(loss)
            sgd_step(params, tape.gradients(params), hp.lr)
            total += value
        entry = {"epoch": epoch + 1, "mean_loss": total / len(sentences)}
        if dev_corpus is not None:
            entry["dev_acc"] = _accuracy(model, dev_corpus)
            log.info(
                "epoch %d: mean loss %.4f, dev acc %.4f",
                entry["epoch"], entry["mean_loss"], entry["dev_acc"],
            )
        else:
            log.info("epoch %d: mean loss %.4f", entry["epoch"], entry["mean_loss"])
        model.train_history.append(entry)
    return model


def save(model, path):
    """Write the model as a checksummed container with full-precision arrays."""
    wt = model.encoder.word_table
    header = {
        "kind": "bilstm",
        "hp": asdict(model.hp),
        "word_dim_actual": wt.dim if wt is not None else None,
        "vocab": model.vocab.to_dict(),
        "tagset": model.tagset,
        "n_bins": model.n_bins,
    }
    save_container(path, header, [(p.name, p.v) for p in model.parameters()])


def load(path):
    """Rebuild a saved model; predictions match the saved model exactly."""
    header, arrays = load_container(path)
    if header.get("kind") != "bilstm":
        raise ModelError(f"{path}: container holds a {header.get('kind')!r} model, not bilstm")
    model = TaggerModel(
        header_field(path, header, "hp", lambda d: Hyperparams(**d)),
        header_field(path, header, "vocab", Vocab.from_dict),
        header_field(path, header, "tagset", list),
        header_field(path, header, "n_bins", int),
        init_rng=None,
        word_dim=header_field(path, header, "word_dim_actual", lambda v: v if v is None else int(v)),
    )
    for p in model.parameters():
        if p.name not in arrays:
            raise ModelError(f"{path}: missing parameter block {p.name!r}")
        if arrays[p.name].shape != p.v.shape:
            raise ModelError(
                f"{path}: parameter {p.name!r} has shape {arrays[p.name].shape}, expected {p.v.shape}"
            )
        p.v = arrays[p.name]
    return model
