"""CoNLL-U ingestion, corpus statistics, label corruption, subsampling.

Only FORM (column 2) and UPOS (column 4) are consumed; multiword-token
range lines (ID like "3-4") and empty nodes (ID like "5.1") are skipped so
sentences contain syntactic words only.  All files are UTF-8; a line that
is not raises DataError naming it.

The reader interns within one file: every occurrence of a form (or tag)
is the same string object, so a corpus holds one string per type, not per
token, and each one's hash is computed once and cached on it.  A corpus is
held for a whole run, so a read sentence is slotted (no per-instance
__dict__) and its forms and tags lists are exact-size copies of the
reader's two reused buffers, with none of the spare slots that append
leaves.

A sentence does not know where it came from.  A read corpus keeps its path
and one integer array of every sentence's first and last line, 16 bytes a
sentence, and Corpus.source(i) builds the "path:first-last" label only
when it is asked for.  subsample and corrupt_labels carry the lines of the
sentences they keep.
"""

import logging
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

log = logging.getLogger(__name__)

# UD v1.2 coarse tagset (17 tags; v1.2 uses CONJ, not CCONJ)
UPOS_TAGS = frozenset(
    "ADJ ADP ADV AUX CONJ DET INTJ NOUN NUM PART PRON PROPN PUNCT SCONJ SYM VERB X".split()
)


class DataError(Exception):
    """Malformed or unreadable input data; message carries file:line."""


def check_tokens(tokens):
    """ValueError naming the position and repr of the first token that is
    not a non-empty string.  The usual case, where every token is one, is
    tested in C; only a failing list is searched for the culprit."""
    try:
        "".join(tokens)
        if "" not in tokens:
            return
    except TypeError:
        pass
    for k, form in enumerate(tokens):
        if not isinstance(form, str) or not form:
            raise ValueError(f"token {k} is {form!r}, not a non-empty string")


@dataclass(slots=True)
class Sentence:
    """Equal-length forms and tags, each a non-empty string; DataError
    naming the position otherwise.  Where it was read from is its
    corpus's to say (Corpus.source)."""

    forms: list
    tags: list

    def __post_init__(self):
        if len(self.forms) != len(self.tags) or not self.forms:
            raise DataError(f"sentence: {len(self.forms)} forms vs {len(self.tags)} tags")
        for name, items in (("form", self.forms), ("tag", self.tags)):
            try:
                "".join(items)  # in C: quicker than a per-token isinstance
            except TypeError:
                k = next(k for k, x in enumerate(items) if not isinstance(x, str))
                raise DataError(f"sentence: {name} {k} is {items[k]!r}, not a string") from None
            if "" in items:
                raise DataError(f"sentence: {name} {items.index('')} is empty")

    def __len__(self):
        return len(self.forms)


@dataclass
class Corpus:
    """Sentences, and for a read corpus where they were read: the file's
    path, and lines, an array('q') holding sentence i's first and last line
    numbers at 2i and 2i + 1 (None for a corpus built in code).  Only the
    sentences take part in equality."""

    sentences: list
    split: str = field(default="train", compare=False)
    language: str = field(default="", compare=False)
    path: str = field(default="", compare=False)
    lines: array = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.lines is not None and len(self.lines) != 2 * len(self.sentences):
            raise ValueError(f"{len(self.lines)} line numbers for {len(self.sentences)} sentences")

    def source(self, i):
        """Where sentence i came from: "path:first-last" for a read corpus,
        "sentence i" for one built in code."""
        if not 0 <= i < len(self.sentences):
            raise IndexError(f"sentence {i} of {len(self.sentences)}")
        if self.lines is None:
            return f"sentence {i}"
        return f"{self.path}:{self.lines[2 * i]}-{self.lines[2 * i + 1]}"

    def _kept(self, sentences, keep):
        """A corpus of sentences, which stand for this corpus's sentences at
        the indices keep, with their line numbers."""
        lines = None if self.lines is None else array("q", (self.lines[2 * i + j] for i in keep for j in (0, 1)))
        return Corpus(sentences, self.split, self.language, self.path, lines)

    def __len__(self):
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)

    def n_tokens(self):
        return sum(len(s) for s in self.sentences)

    def tagset(self):
        return sorted({t for s in self.sentences for t in s.tags})


def open_text(path):
    """A UTF-8 text file opened for reading; DataError when it cannot be."""
    try:
        return open(path, encoding="utf-8")
    except OSError as e:
        raise DataError(f"{path}: {e}") from e


def not_utf8(path):
    """DataError naming the first line of path that is not valid UTF-8.

    A newline byte never occurs inside a UTF-8 sequence, so decoding line by
    line finds the same fault as decoding the whole file.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as e:
                return DataError(f"{path}:{lineno}: not UTF-8: {e}")
    return DataError(f"{path}: not UTF-8")


def read_conllu(path, split="train", language=""):
    """Parse a CoNLL-U file into a Corpus; errors carry line numbers.

    One token per line in 10 tab-separated columns, a blank line after each
    sentence.  Comment lines, multiword-token ranges and empty nodes are
    skipped.  Equal forms and equal tags are one shared string object.  The
    corpus keeps path and each sentence's first and last token line, which
    Corpus.source names."""
    sentences, forms, tags, lines = [], [], [], array("q")
    shared = {}.setdefault  # one string object per distinct form or tag of this file
    with open_text(path) as fh:
        try:
            # the extra blank line ends a last sentence that has none
            for lineno, raw in enumerate(chain(fh, [""]), 1):
                line = raw.rstrip("\n").rstrip("\r")
                if not line:
                    if forms:  # exact-size copies: a list grown by append has spare slots
                        sentences.append(Sentence(forms[:], tags[:]))
                        lines.append(start_line)
                        lines.append(lineno - 1)
                        forms.clear()
                        tags.clear()
                    continue
                if line[0] == "#":
                    continue
                cols = line.split("\t")
                if len(cols) != 10:
                    raise DataError(f"{path}:{lineno}: expected 10 columns, got {len(cols)}")
                if "-" in cols[0] or "." in cols[0]:
                    continue  # multiword range / empty node
                form, tag = cols[1], cols[3]
                if not form:
                    raise DataError(f"{path}:{lineno}: empty FORM")
                if not tag:
                    raise DataError(f"{path}:{lineno}: empty tag")
                if not forms:
                    start_line = lineno
                forms.append(shared(form, form))
                tags.append(shared(tag, tag))
        except UnicodeDecodeError:
            raise not_utf8(path) from None
    return Corpus(sentences, split, language, path, lines)


def _fault(text):
    """Why text cannot be written as a form or tag, or None."""
    if "\t" in text or "\n" in text or "\r" in text:
        return "holds a tab or line break"  # it would split its line or column
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return "holds a lone surrogate, not encodable in UTF-8"
    return None


def _check_writable(corpus):
    """ValueError naming the first form or tag that would not read back: an
    empty tag (a Sentence rejects one, but its tags may change after), or
    text that _fault rejects."""
    for i, sent in enumerate(corpus):
        if "" in sent.tags:
            raise ValueError(f"sentence {i}: tag {sent.tags.index('')} is empty")
        for name, items in (("form", sent.forms), ("tag", sent.tags)):
            if _fault("".join(items)):
                k = next(k for k, x in enumerate(items) if _fault(x))
                raise ValueError(f"sentence {i}: {name} {k} is {items[k]!r}, which {_fault(items[k])}")


def write_conllu(corpus, path):
    """Emit forms and UPOS tags; every other column is '_'.  ValueError,
    before the file is opened, for a form or tag that would not read back
    (see _check_writable)."""
    _check_writable(corpus)
    with open(path, "w", encoding="utf-8") as fh:
        for sent in corpus:
            for i, (form, tag) in enumerate(zip(sent.forms, sent.tags), 1):
                fh.write(f"{i}\t{form}\t_\t{tag}\t_\t_\t_\t_\t_\t_\n")
            fh.write("\n")


def corrupt_labels(corpus, rate, rng):
    """Replace each gold tag, independently with probability `rate`, by a
    uniformly drawn *different* tag from the corpus tagset.

    Forms, sentence count, lengths and line numbers are untouched.  Returns
    the corrupted corpus and the realized corruption count.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"corruption rate {rate} outside [0, 1]")
    tagset = corpus.tagset()
    if rate > 0.0 and len(tagset) < 2:
        raise ValueError("cannot corrupt labels: corpus has fewer than 2 tags")
    corrupted = 0
    sentences = []
    for sent in corpus:
        tags = list(sent.tags)
        for i, tag in enumerate(tags):
            if rate > 0.0 and rng.uniform() < rate:
                others = [t for t in tagset if t != tag]
                tags[i] = others[rng.below(len(others))]
                corrupted += 1
        sentences.append(Sentence(list(sent.forms), tags))
    return corpus._kept(sentences, range(len(sentences))), corrupted


def subsample(corpus, n_sentences, rng):
    """Uniform sample of n sentences without replacement, original order
    and line numbers kept."""
    n = len(corpus.sentences)
    if not 1 <= n_sentences <= n:
        raise ValueError(f"subsample size {n_sentences} outside [1, {n}]")
    idx = list(range(n))
    rng.shuffle(idx)
    keep = sorted(idx[:n_sentences])
    return corpus._kept([corpus.sentences[i] for i in keep], keep)


def stats(corpus):
    """Token/type counts, observed tagset, mean natural-log type frequency."""
    if not corpus.sentences:
        raise ValueError("stats of empty corpus")
    freq = Counter()
    for sent in corpus:
        freq.update(sent.forms)
    tagset = corpus.tagset()
    unknown = set(tagset) - UPOS_TAGS
    if unknown:
        log.warning("tags outside the 17 UPOS tags: %s", sorted(unknown))
    return {
        "tokens": sum(freq.values()),
        "types": len(freq),
        "tagset": tagset,
        "mean_log_freq": sum(math.log(c) for c in freq.values()) / len(freq),
    }
