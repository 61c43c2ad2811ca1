"""Vocabularies, embedding tables, and sentence -> token matrix composition.

A token representation is assembled from up to three sources, always
concatenated in the fixed order word o char o byte:

  w    learned word embedding (UNK row for unseen forms)
  c    sequence bi-LSTM over [start, code points..., end] character ids
  b    sequence bi-LSTM over [start, UTF-8 bytes..., end] byte ids

A whole sentence is encoded at once into a (T, out_dim) matrix, one row
per token.  The word rows come from one table lookup.  Each subword
encoder pads the sentence's symbol sequences to the longest one (with the
end marker, which no state ever reads) and runs its forward and reverse
LSTMs over all words as one batch, so a sentence costs as many recurrent
steps as its longest word has symbols, not the sum over its words.  Row k
equals the encoding of word k on its own.

Vocabularies are frozen at training time: lookups of unseen symbols map to
reserved UNK ids and never extend the inventory.  Forms are never
lowercased.
"""

import logging
from collections import Counter

import numpy as np

from .autodiff import Parameter, concat, glorot, lookup_row
from .corpus import DataError, not_utf8, open_text
from .recurrent import LstmCell, birnn_seq

log = logging.getLogger(__name__)

UNK_FORM = "<unk>"
REPR_MODES = ("w", "c", "b", "c+b", "w+c")

# reserved char ids; real characters start at 3
CHAR_UNK, CHAR_START, CHAR_END = 0, 1, 2
# byte ids are the raw byte values; two marker rows on top
BYTE_START, BYTE_END, N_BYTE_SYMBOLS = 256, 257, 258


class Vocab:
    """Word and character inventories plus training-frequency table.

    Word id 0 is the UNK row (serialized under the form "<unk>"); character
    ids 0..2 are reserved for UNK/start/end markers.  A form is OOV iff its
    training frequency is zero.
    """

    def __init__(self, word_ids, char_ids, freq):
        self.word_ids = word_ids
        self.char_ids = char_ids
        self.freq_train = freq

    @property
    def n_words(self):
        return len(self.word_ids)

    @property
    def n_chars(self):
        return 3 + len(self.char_ids)

    def word_id(self, form):
        return self.word_ids.get(form, 0)

    def char_id(self, ch):
        return self.char_ids.get(ch, CHAR_UNK)

    def freq(self, form):
        return self.freq_train.get(form, 0)

    def is_oov(self, form):
        return self.freq(form) == 0

    def to_dict(self):
        words = [None] * self.n_words
        for w, i in self.word_ids.items():
            words[i] = w
        chars = [None] * len(self.char_ids)
        for ch, i in self.char_ids.items():
            chars[i - 3] = ch
        return {
            "words": words,
            "chars": chars,
            "counts": [self.freq_train.get(w, 0) for w in words],
        }

    @classmethod
    def from_dict(cls, d):
        word_ids = {w: i for i, w in enumerate(d["words"])}
        char_ids = {ch: i + 3 for i, ch in enumerate(d["chars"])}
        freq = {w: c for w, c in zip(d["words"], d["counts"], strict=True) if c > 0}
        return cls(word_ids, char_ids, freq)


def build_vocab(train_corpus):
    """Inventories and frequencies from the training split only.

    Ids follow first occurrence, which makes vocabulary construction (and
    everything downstream) deterministic for a given corpus.
    """
    if not len(train_corpus.sentences):
        raise ValueError("build_vocab: empty corpus")
    word_ids = {UNK_FORM: 0}
    char_ids = {}
    freq = Counter()
    for sent in train_corpus:
        for form in sent.forms:
            freq[form] += 1
            if form not in word_ids:
                word_ids[form] = len(word_ids)
            for ch in form:
                if ch not in char_ids:
                    char_ids[ch] = 3 + len(char_ids)
    return Vocab(word_ids, dict(char_ids), dict(freq))


class EmbeddingTable(Parameter):
    """(|symbols| x dim) parameter matrix, one row per symbol id."""

    def __init__(self, name, n_symbols, dim, rng=None):
        super().__init__(name, glorot(rng, n_symbols, dim))

    @property
    def dim(self):
        return self.v.shape[1]


class ReprConfig:
    """Representation mode: which of word, char and byte sources it uses."""

    def __init__(self, mode):
        if mode not in REPR_MODES:
            raise ValueError(f"unknown representation mode {mode!r}")
        self.mode = mode


def subtoken_ids(word, level, vocab=None):
    """Marker-wrapped symbol ids for a word at the char or byte level."""
    if not word:
        raise ValueError("subtoken_ids: empty word")
    if level == "char":
        return [CHAR_START] + [vocab.char_id(ch) for ch in word] + [CHAR_END]
    if level == "byte":
        return [BYTE_START] + list(word.encode("utf-8")) + [BYTE_END]
    raise ValueError(f"unknown subtoken level {level!r}")


def subtoken_batch(words, level, vocab=None):
    """(B, L) marker-wrapped symbol ids of B words, padded with the end
    marker to the longest, and each word's symbol count."""
    seqs = [subtoken_ids(w, level, vocab) for w in words]
    lengths = np.array([len(q) for q in seqs])
    ids = np.full((len(seqs), lengths.max()), CHAR_END if level == "char" else BYTE_END)
    for k, q in enumerate(seqs):
        ids[k, : len(q)] = q
    return ids, lengths


class TokenEncoder:
    """Bundles the tables and lower-level cells for one representation mode."""

    def __init__(self, config, vocab, word_dim, subtoken_dim, hidden_dim, rng=None):
        self.vocab = vocab
        self.word_table = None
        self.char_table = self.char_f = self.char_r = None
        self.byte_table = self.byte_f = self.byte_r = None
        if "w" in config.mode:
            self.word_table = EmbeddingTable("word_emb", vocab.n_words, word_dim, rng)
        if "c" in config.mode:
            self.char_table = EmbeddingTable("char_emb", vocab.n_chars, subtoken_dim, rng)
            self.char_f = LstmCell("char_f", subtoken_dim, hidden_dim, rng)
            self.char_r = LstmCell("char_r", subtoken_dim, hidden_dim, rng)
        if "b" in config.mode:
            self.byte_table = EmbeddingTable("byte_emb", N_BYTE_SYMBOLS, subtoken_dim, rng)
            self.byte_f = LstmCell("byte_f", subtoken_dim, hidden_dim, rng)
            self.byte_r = LstmCell("byte_r", subtoken_dim, hidden_dim, rng)

    @property
    def out_dim(self):
        """Width of encode's rows: the word table's plus each subword cell's."""
        dim = self.word_table.dim if self.word_table is not None else 0
        for cell in (self.char_f, self.char_r, self.byte_f, self.byte_r):
            if cell is not None:
                dim += cell.hidden_dim
        return dim

    def parameters(self):
        out = []
        if self.word_table is not None:
            out.append(self.word_table)
        if self.char_table is not None:
            out.append(self.char_table)
            out += self.char_f.parameters() + self.char_r.parameters()
        if self.byte_table is not None:
            out.append(self.byte_table)
            out += self.byte_f.parameters() + self.byte_r.parameters()
        return out

    def encode(self, words, tape=None, replace_unk=None):
        """(len(words), out_dim) token matrix, columns in the order word o char o byte.

        `replace_unk[k]` true routes word k's *word-table* lookup through the
        UNK row (the subtoken paths still see the true spelling).
        """
        if not words:
            raise ValueError("encode: empty sentence")
        parts = []
        if self.word_table is not None:
            ids = [0 if replace_unk and replace_unk[k] else self.vocab.word_id(w) for k, w in enumerate(words)]
            parts.append(lookup_row(tape, self.word_table, np.array(ids)))
        if self.char_table is not None:
            ids, lengths = subtoken_batch(words, "char", self.vocab)
            x = lookup_row(tape, self.char_table, ids)
            parts.append(birnn_seq(self.char_f, self.char_r, x, lengths, tape))
        if self.byte_table is not None:
            ids, lengths = subtoken_batch(words, "byte")
            x = lookup_row(tape, self.byte_table, ids)
            parts.append(birnn_seq(self.byte_f, self.byte_r, x, lengths, tape))
        return parts[0] if len(parts) == 1 else concat(tape, parts)


def load_pretrained(path, vocab, word_table, allow_resize=False, rng=None):
    """Overwrite word-embedding rows from a text file of "token floats...".

    Rows for tokens outside the vocabulary are counted as missed and
    ignored; a duplicated token keeps its last occurrence (with a warning).
    A dimension conflict is an error unless `allow_resize` is set (fresh,
    untrained model), in which case the table is rebuilt at the file
    dimension (Glorot re-init when `rng` is given, zeros otherwise) before
    the file rows are written.  Returns {"loaded": n, "missed": m}.
    """
    rows = {}
    dim = None
    with open_text(path) as fh:
        try:
            for lineno, raw in enumerate(fh, 1):
                cols = raw.split()
                if not cols:
                    continue
                if len(cols) < 2:
                    raise DataError(f"{path}:{lineno}: expected token + floats")
                token = cols[0]
                try:
                    vec = np.array([float(x) for x in cols[1:]], dtype=np.float64)
                except ValueError as e:
                    raise DataError(f"{path}:{lineno}: {e}") from e
                if not np.all(np.isfinite(vec)):
                    raise DataError(f"{path}:{lineno}: non-finite value in the embedding of {token!r}")
                if dim is None:
                    dim = vec.shape[0]
                elif vec.shape[0] != dim:
                    raise DataError(
                        f"{path}:{lineno}: row has {vec.shape[0]} dims, file started with {dim}"
                    )
                if token in rows:
                    log.warning("%s:%d: duplicate embedding for %r, keeping last", path, lineno, token)
                rows[token] = vec
        except UnicodeDecodeError:
            raise not_utf8(path) from None

    if dim is not None and dim != word_table.dim:
        if not allow_resize:
            raise DataError(
                f"{path}: embedding dim {dim} conflicts with model word dim {word_table.dim}"
            )
        rows_n = word_table.v.shape[0]
        word_table.v = glorot(rng, rows_n, dim)

    loaded = missed = 0
    for token, vec in rows.items():
        wid = vocab.word_ids.get(token)
        if wid is None:
            missed += 1
            continue
        word_table.v[wid] = vec
        loaded += 1
    return {"loaded": loaded, "missed": missed}
