"""Vocabularies, embedding tables, and sentence -> token matrix composition.

A token representation is assembled from up to three sources, always
concatenated in the fixed order word o char o byte:

  w    learned word embedding (UNK row for unseen forms)
  c    sequence bi-LSTM over [start, code points..., end] character ids
  b    sequence bi-LSTM over [start, UTF-8 bytes..., end] byte ids (a lone
       surrogate, which UTF-8 cannot hold, as its three surrogatepass bytes)

The c and b sources are one compositional word encoder (Ling et al. 2015,
arXiv:1508.02096) run over two symbol inventories: a `Subword` holds one
inventory's table, its forward and reverse LSTMs and its markers.

A whole sentence is encoded at once into a (T, out_dim) matrix, one row
per token.  The word rows come from one table lookup.  Each subword
encoder pads the sentence's symbol sequences to the longest one (with the
end marker, which no state ever reads) and runs its forward and reverse
LSTMs over all words as one batch, so a sentence costs as many recurrent
steps as its longest word has symbols, not the sum over its words.  The
LSTMs read the table rows of the sentence's distinct symbols, picked by
their index among them, so each direction's input projection is one GEMM
over a few dozen rows, not the hundred-odd character positions.  Row k
equals the encoding of word k on its own.

Pretrained word embeddings are read into a {token: vector} map before the
model is built, and the file's width becomes the word table's width.

Vocabularies are frozen at training time: lookups of unseen symbols map to
reserved UNK ids and never extend the inventory.  Forms are never
lowercased.
"""

import logging
from collections import Counter

import numpy as np

from .autodiff import Parameter, concat, glorot, take
from .container import distinct_strings
from .corpus import DataError, check_tokens, not_utf8, open_text
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

    Built from the three lists it serialises to: the word forms by id, the
    characters by id - 3, and each word's training count.  Word id 0 is the
    UNK row (serialized under the form "<unk>"); character ids 0..2 are
    reserved for UNK/start/end markers.  A form is OOV iff its training
    frequency is zero.
    """

    def __init__(self, words, chars, counts):
        self.words, self.chars, self.counts = list(words), list(chars), list(counts)
        self.word_ids = {w: i for i, w in enumerate(self.words)}
        self.char_ids = {ch: i + 3 for i, ch in enumerate(self.chars)}
        self.freq_train = {w: c for w, c in zip(self.words, self.counts, strict=True) if c > 0}

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

    def to_dict(self):
        return {"words": self.words, "chars": self.chars, "counts": self.counts}

    @classmethod
    def from_dict(cls, d):
        """The Vocab of to_dict's lists; ValueError naming the list that no
        Vocab writes: words or chars not distinct strings, words not led by
        the UNK form (unseen words would take word 0's row), a char of more
        than one character, or counts not one non-negative int per word."""
        words = distinct_strings(d["words"], "words")
        if words[:1] != [UNK_FORM]:
            raise ValueError(f"'words' must start with {UNK_FORM!r}, the UNK row")
        chars = distinct_strings(d["chars"], "chars")
        counts = d["counts"]
        if any(len(ch) != 1 for ch in chars):
            raise ValueError("'chars' must be single characters")
        ints = isinstance(counts, list) and all(type(c) is int and c >= 0 for c in counts)
        if not ints or len(counts) != len(words):
            raise ValueError("'counts' must be one non-negative int per word")
        return cls(words, chars, counts)


def build_vocab(train_corpus):
    """Inventories and frequencies from the training split only.

    Ids follow first occurrence, which makes vocabulary construction (and
    everything downstream) deterministic for a given corpus.
    """
    if not len(train_corpus.sentences):
        raise ValueError("build_vocab: empty corpus")
    freq = Counter(form for sent in train_corpus for form in sent.forms)
    words = list(dict.fromkeys([UNK_FORM, *freq]))
    chars = list(dict.fromkeys(ch for form in freq for ch in form))
    return Vocab(words, chars, [freq[w] for w in words])


class Subword:
    """Bi-LSTM over one symbol inventory's marker-wrapped spelling of a word.

    `symbols(word)` gives the word's symbol ids, which `ids` wraps in the
    `start` and `end` markers; the encoding of a word is [forward final
    state, reverse final state].
    """

    def __init__(self, name, n_symbols, symbols, start, end, dim, hidden_dim, rng=None):
        self.table = Parameter(f"{name}_emb", glorot(rng, n_symbols, dim))
        self.fwd = LstmCell(f"{name}_f", dim, hidden_dim, rng)
        self.rev = LstmCell(f"{name}_r", dim, hidden_dim, rng)
        self.symbols, self.start, self.end = symbols, start, end

    def parameters(self):
        return [self.table] + self.fwd.parameters() + self.rev.parameters()

    def ids(self, words):
        """(B, L) marker-wrapped symbol ids of B words, padded with the end
        marker to the longest, and each word's symbol count."""
        check_tokens(words)
        seqs = [[self.start, *self.symbols(w), self.end] for w in words]
        lengths = np.array([len(q) for q in seqs])
        ids = np.full((len(seqs), lengths.max()), self.end)
        for k, q in enumerate(seqs):
            ids[k, : len(q)] = q
        return ids, lengths

    def encode(self, words, tape=None):
        """(B, 2H) encodings of B words, run over their distinct symbols' rows."""
        ids, lengths = self.ids(words)
        u, inv = np.unique(ids, return_inverse=True)
        return birnn_seq(self.fwd, self.rev, take(tape, self.table, u), inv.reshape(ids.shape), lengths, tape)


class TokenEncoder:
    """The word table (modes with w) and the subword encoders of one mode."""

    def __init__(self, mode, vocab, word_dim, subtoken_dim, hidden_dim, rng=None):
        if mode not in REPR_MODES:
            raise ValueError(f"unknown representation mode {mode!r}")
        self.vocab = vocab
        self.word_table = Parameter("word_emb", glorot(rng, vocab.n_words, word_dim)) if "w" in mode else None
        levels = {
            "c": ("char", vocab.n_chars, lambda w: [vocab.char_id(ch) for ch in w], CHAR_START, CHAR_END),
            "b": ("byte", N_BYTE_SYMBOLS, lambda w: w.encode("utf-8", "surrogatepass"), BYTE_START, BYTE_END),
        }
        self.subwords = [Subword(*levels[k], subtoken_dim, hidden_dim, rng) for k in "cb" if k in mode]
        # width of encode's rows: the word table's plus each subword bi-LSTM's
        self.out_dim = (word_dim if self.word_table is not None else 0) + 2 * hidden_dim * len(self.subwords)

    def parameters(self):
        words = [self.word_table] if self.word_table is not None else []
        return words + [p for sw in self.subwords for p in sw.parameters()]

    def encode(self, words, tape=None, replace_unk=None):
        """(len(words), out_dim) token matrix, columns in the order word o char o byte.

        `replace_unk[k]` true routes word k's *word-table* lookup through the
        UNK row (the subtoken paths still see the true spelling).
        """
        if not words:
            raise ValueError("encode: empty sentence")
        check_tokens(words)
        parts = []
        if self.word_table is not None:
            ids = [0 if replace_unk and replace_unk[k] else self.vocab.word_id(w) for k, w in enumerate(words)]
            parts.append(take(tape, self.word_table, np.array(ids)))
        parts += [sw.encode(words, tape) for sw in self.subwords]
        return parts[0] if len(parts) == 1 else concat(tape, parts)


def read_embeddings(path):
    """{token: vector} of a text file of "token floats..." lines.

    Every row must have the width of the first; a duplicated token keeps
    its last occurrence (with a warning).
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
    return rows
