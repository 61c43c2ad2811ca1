"""Hierarchical context bi-LSTM tagger with an auxiliary frequency-bin head.

The representation layer encodes a sentence into a (T, D) token matrix,
which is perturbed with Gaussian noise during training and fed through a
context bi-LSTM into one (T, 2H) encoding per position.  The loss applies
the heads to it: an affine head scores the tags, and (optionally) a second
head scores the token's log-frequency bin; the joint loss is the sum of
both cross-entropies over all tokens.  `predict` applies the tag head
only.  Every layer works on the whole sentence's matrix, so a sentence
records a few dozen tape nodes whatever its length.

Training is plain SGD, one update per sentence, sentence order reshuffled
every epoch with a seeded stream; everything is deterministic for a fixed
seed.  Each parameter's update is applied during the backward sweep, as
soon as its gradient is complete, so the full set of gradients is never
held at once; the arithmetic, and so every saved file, is the same as
updating all parameters after the sweep.
"""

import logging
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .autodiff import Parameter, Rng, Tape, add, affine, gaussian_noise, glorot, sgd_step, softmax_xent, zeros
from .container import ModelError, distinct_strings, header_field, load_container, save_container
from .recurrent import LstmCell, birnn_ctx
from .representations import REPR_MODES, TokenEncoder, Vocab, build_vocab, read_embeddings

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


def _finite(value):
    """A finite int or float (a bool is neither here, nor an int too large for a float)."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # math.isfinite converts an int to a float
        return False


@dataclass
class Hyperparams:
    """Training and model settings; a saved model keeps them in its header.

    With `pretrained_path` (modes with w only), `train` replaces `word_dim`
    by the width of the embedding file before it builds the model.
    """

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
        for name in ("epochs", "seed", "word_dim", "subtoken_dim", "hidden_dim"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"hyperparameter {name} must be an int, got {value!r}")
            if value <= 0 and name != "seed":
                raise ValueError(f"hyperparameter {name} must be positive, got {value}")
        if not _finite(self.lr) or self.lr <= 0:
            raise ValueError(f"hyperparameter lr must be a finite positive number, got {self.lr!r}")
        if not _finite(self.sigma) or self.sigma < 0:
            raise ValueError(f"hyperparameter sigma must be a finite nonnegative number, got {self.sigma!r}")
        if self.repr_mode not in REPR_MODES:
            raise ValueError(f"unknown representation mode {self.repr_mode!r}")
        if not isinstance(self.freqbin, bool):
            raise ValueError(f"hyperparameter freqbin must be a bool, got {self.freqbin!r}")
        path = self.pretrained_path
        if not (path is None or isinstance(path, str) and path):
            raise ValueError(f"hyperparameter pretrained_path must be None or a non-empty str, got {path!r}")
        if path is not None and "w" not in self.repr_mode:
            raise ValueError(f"pretrained embeddings need a mode with w, not {self.repr_mode!r}")


def freqbin_label(freq):
    """Frequency-class label: int(ln(freq)), with freq 0 (UNK) in bin 0."""
    if freq < 0:
        raise ValueError(f"negative frequency {freq}")
    if freq == 0:
        return 0
    return int(math.log(freq))


def n_bins_of(vocab):
    """Frequency classes of a vocabulary: one more than its highest label."""
    return 1 + max(map(freqbin_label, vocab.freq_train.values()), default=0)


class TaggerModel:
    """Assembled network: encoder, context cells, tag head, optional freq head
    over the vocabulary's frequency bins.

    The one owner of the parameter layout: `train` builds through it with an
    rng, and `load` without one, so every parameter is then a read-only zero
    stand-in until the file's block replaces it.
    """

    def __init__(self, hp, vocab, tagset, init_rng=None):
        self.hp = hp
        self.vocab = vocab
        self.tagset = list(tagset)
        self.tag_index = {t: i for i, t in enumerate(self.tagset)}
        self.n_bins = n_bins_of(vocab)
        self.train_history = []

        self.encoder = TokenEncoder(hp.repr_mode, vocab, hp.word_dim, hp.subtoken_dim, hp.hidden_dim, init_rng)
        self.ctx_f = LstmCell("ctx_f", self.encoder.out_dim, hp.hidden_dim, init_rng)
        self.ctx_r = LstmCell("ctx_r", self.encoder.out_dim, hp.hidden_dim, init_rng)
        two_h = 2 * hp.hidden_dim
        self.tag_W = Parameter("tag_head.W", glorot(init_rng, len(self.tagset), two_h))
        self.tag_b = Parameter("tag_head.b", zeros(init_rng, len(self.tagset)))
        if hp.freqbin:
            self.freq_W = Parameter("freq_head.W", glorot(init_rng, self.n_bins, two_h))
            self.freq_b = Parameter("freq_head.b", zeros(init_rng, self.n_bins))
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
        logits = affine(None, self.tag_W, forward_sentence(self, tokens), self.tag_b)
        return [self.tagset[i] for i in np.argmax(logits.v, axis=1).tolist()]


def forward_sentence(model, tokens, tape=None, rng=None, unk_mask=None):
    """(T, 2H) context encodings, one row per token; an rng (training) noises the input."""
    x = model.encoder.encode(tokens, tape, replace_unk=unk_mask)
    if rng is not None and model.hp.sigma > 0.0:
        x = gaussian_noise(tape, x, model.hp.sigma, rng)
    return birnn_ctx(model.ctx_f, model.ctx_r, x, tape)


def sentence_loss(model, sentence, tape=None, rng=None):
    """Summed cross-entropy over tokens: tag loss plus (if enabled) freq loss.

    With an rng (training), the input is noised and singleton words may be
    routed through the UNK row; such tokens also take frequency label 0.
    """
    unk_mask = None
    if rng is not None and model.encoder.word_table is not None:
        unk_mask = [
            model.vocab.freq(form) == 1 and rng.uniform() < UNK_REPLACE_PROB
            for form in sentence.forms
        ]
    gold = [model.tag_index.get(tag) for tag in sentence.tags]
    if None in gold:
        raise ValueError(f"gold tag {sentence.tags[gold.index(None)]!r} not in model tagset")
    v = forward_sentence(model, sentence.forms, tape, rng, unk_mask)
    total = softmax_xent(tape, affine(tape, model.tag_W, v, model.tag_b), gold)
    if model.freq_W is not None:
        fbins = [
            0 if unk_mask and unk_mask[i] else freqbin_label(model.vocab.freq(form))
            for i, form in enumerate(sentence.forms)
        ]
        total = add(tape, total, softmax_xent(tape, affine(tape, model.freq_W, v, model.freq_b), fbins))
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

    The tape applies each parameter's update as soon as the backward sweep
    completes its gradient, with the arithmetic and the files of updating
    all of them after the sweep; a trainable parameter that got no
    gradient raises ValueError naming it.  A pretrained embedding file
    sets the word width, and its rows for training words replace their
    initial rows.  Aborts with DivergenceError if the loss goes
    non-finite.  Per-epoch mean loss (and dev accuracy, when a dev corpus
    is given) is logged and kept in model.train_history.
    """
    if not train_corpus.sentences:
        raise ValueError("train: empty corpus")
    if dev_corpus is not None and not dev_corpus.sentences:
        raise ValueError("train: empty dev corpus")
    vocab = build_vocab(train_corpus)
    tagset = train_corpus.tagset()
    pretrained = read_embeddings(hp.pretrained_path) if hp.pretrained_path is not None else {}
    if pretrained:
        hp = replace(hp, word_dim=len(next(iter(pretrained.values()))))
    rng = Rng(hp.seed)
    model = TaggerModel(hp, vocab, tagset, init_rng=rng.child(0))
    known = [token for token in pretrained if token in vocab.word_ids]
    for token in known:
        model.encoder.word_table.v[vocab.word_ids[token]] = pretrained[token]
    if hp.pretrained_path is not None:
        log.info("pretrained embeddings: %d loaded, %d missed", len(known), len(pretrained) - len(known))
    train_rng = rng.child(1)
    shuffle_rng = rng.child(2)
    params = model.parameters()
    sentences = train_corpus.sentences
    updated = set()

    def update(param, grad):
        sgd_step(param, grad, hp.lr)
        updated.add(param)

    tape = Tape(update)  # reset per sentence: its gradient buffers live as long as this call
    for epoch in range(hp.epochs):
        order = list(range(len(sentences)))
        shuffle_rng.shuffle(order)
        total = 0.0
        for idx in order:
            tape.reset()
            loss = sentence_loss(model, sentences[idx], tape, train_rng)
            value = float(loss.v)
            if not math.isfinite(value):
                raise DivergenceError(epoch, idx)
            updated.clear()
            tape.backward(loss)
            missing = [p.name for p in params if p not in updated]
            if missing:
                raise ValueError(f"no gradient for trainable parameter {missing[0]!r}")
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
    header = {
        "kind": "bilstm",
        "hp": asdict(model.hp),
        "vocab": model.vocab.to_dict(),
        "tagset": model.tagset,
        "n_bins": model.n_bins,
    }
    save_container(path, header, [(p.name, p.v) for p in model.parameters()])


def _n_bins(value, want):
    """ValueError unless value is the int want, the bins of the vocabulary
    as train sets them (a bool is not one)."""
    if type(value) is not int or value != want:
        raise ValueError(f"must be {want}, the bins of the vocabulary's counts, not {value!r}")


def load(path):
    """Rebuild a saved model through the constructor `train` uses, as
    `tnt.load_hmm` does, so a loaded model cannot disagree with itself.

    Built without an rng, every parameter is a zero stand-in that takes no
    memory, so nothing a hostile header sizes is allocated before the
    file's blocks are checked against the stand-ins' shapes.  Predictions
    match the saved model exactly.
    """
    header, arrays = load_container(path)
    if header.get("kind") != "bilstm":
        raise ModelError(f"{path}: container holds a {header.get('kind')!r} model, not bilstm")
    hp = header_field(path, header, "hp", lambda d: Hyperparams(**d))
    vocab = header_field(path, header, "vocab", Vocab.from_dict)
    tagset = header_field(path, header, "tagset", lambda t: distinct_strings(t, "tagset"))
    try:
        model = TaggerModel(hp, vocab, tagset)
    except ValueError as e:  # a dim numpy cannot hold, even as a stand-in
        raise ModelError(f"{path}: bad 'hp' field: {type(e).__name__}: {e}") from e
    header_field(path, header, "n_bins", lambda n: _n_bins(n, model.n_bins))
    for p in model.parameters():
        block = arrays.pop(p.name, None)
        if block is None:
            raise ModelError(f"{path}: missing parameter block {p.name!r}")
        if block.shape != p.v.shape:
            raise ModelError(
                f"{path}: parameter {p.name!r} has shape {block.shape}, but 'hp', 'vocab', 'tagset' and "
                f"'n_bins' give {p.v.shape}"
            )
        p.v = block
    if arrays:
        raise ModelError(f"{path}: unexpected array block {next(iter(arrays))!r}")
    return model
