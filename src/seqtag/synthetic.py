"""Synthetic suffix language for controlled tagging experiments.

Every word's final two characters determine its tag, so a character-level
model can in principle tag unseen words perfectly while a pure word-level
model cannot.  Tags follow a first-order Markov grammar (so sequence models
and HMM transitions both have signal), and a small closed class of
particles carries its own distinct endings.

Open-class words are stem+suffix, drawn with Zipfian type frequencies: the
type at rank r of its tag's lexicon pool (1-based, in generation order) has
weight 1/r.  The long tail leaves rare types, as in natural text, so a
frequency-thresholded population such as TnT's rare-word suffix statistics
sees every open-class tag, but only while the lexicon is large against the
corpus: at the default types_per_tag=150 and seed 8, no NOUN type is rare
enough for TnT's suffix population (frequency <= 10) once the corpus
reaches 10000 sentences, and unknown nouns become untaggable.  Larger
corpora need a larger types_per_tag.  Particles are drawn uniformly.
"""

import bisect
from itertools import accumulate

from .autodiff import Rng
from .corpus import Corpus, Sentence

SUFFIXES = {"NOUN": "na", "VERB": "ve", "ADJ": "ad", "ADV": "ro"}
PARTICLES = ["qo", "zu", "ke", "pi", "lo"]
_TAGS = ["NOUN", "VERB", "ADJ", "ADV", "PART"]

_START = {"NOUN": 0.35, "VERB": 0.2, "ADJ": 0.2, "ADV": 0.1, "PART": 0.15}
_TRANS = {
    "NOUN": {"VERB": 0.5, "NOUN": 0.1, "ADJ": 0.1, "ADV": 0.1, "PART": 0.2},
    "VERB": {"NOUN": 0.3, "ADJ": 0.25, "ADV": 0.2, "VERB": 0.1, "PART": 0.15},
    "ADJ": {"NOUN": 0.6, "ADJ": 0.15, "VERB": 0.1, "ADV": 0.05, "PART": 0.1},
    "ADV": {"VERB": 0.5, "ADJ": 0.2, "ADV": 0.1, "NOUN": 0.1, "PART": 0.1},
    "PART": {"NOUN": 0.4, "VERB": 0.4, "ADJ": 0.1, "ADV": 0.1},
}
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _pick(dist, rng):
    u = rng.uniform()
    acc = 0.0
    for k, p in dist.items():
        acc += p
        if u < acc:
            return k
    return k  # guard against rounding at the upper edge


def _stem(rng):
    n = 2 + rng.below(4)  # 2..5 letters
    return "".join(_LETTERS[rng.below(26)] for _ in range(n))


def _draw(pool, cum, rng):
    """One entry of pool, chosen by its cumulative weights cum."""
    i = bisect.bisect_right(cum, rng.uniform() * cum[-1])
    return pool[min(i, len(pool) - 1)]  # guard against rounding at the top


def _make_lexicon(rng, types_per_tag):
    lex = {}
    for tag, suffix in SUFFIXES.items():
        pool = []
        seen = set()
        while len(pool) < types_per_tag:
            w = _stem(rng) + suffix
            if w not in seen:
                seen.add(w)
                pool.append(w)
        lex[tag] = pool
    lex["PART"] = list(PARTICLES)
    return lex


def _zipf_samplers(lexicon, keep=None):
    """{tag: (pool, cumulative weights)}: weight 1/r by lexicon rank r for
    open-class types, equal weights for particles.

    With keep, each pool is restricted to the types in keep, in lexicon
    order and with their lexicon weights.
    """
    out = {}
    for tag, pool in lexicon.items():
        ranked = [
            (w, 1.0 if tag == "PART" else 1.0 / r)
            for r, w in enumerate(pool, 1)
            if keep is None or w in keep
        ]
        out[tag] = ([w for w, _ in ranked], list(accumulate(wt for _, wt in ranked)))
    return out


def _sentences(rng, samplers, n, min_len, max_len):
    out = []
    for _ in range(n):
        length = min_len + rng.below(max_len - min_len + 1)
        tags, forms = [], []
        tag = _pick(_START, rng)
        for _ in range(length):
            forms.append(_draw(*samplers[tag], rng))
            tags.append(tag)
            tag = _pick(_TRANS[tag], rng)
        out.append(Sentence(forms, tags))
    return out


def make_suffix_corpus(
    n_train,
    n_test,
    seed=1,
    types_per_tag=150,
    min_len=3,
    max_len=7,
    oov_rate=0.3,
):
    """Build (train, test) corpora of the suffix language.

    Exactly round(oov_rate * test tokens) test positions (drawn among
    open-class tokens) are replaced by fresh types absent from the training
    split, each keeping its tag's suffix.  The remaining test words are drawn
    from the types realized in the training sentences, with the same 1/r
    lexicon-rank weights as training (renormalized over those types);
    particles stay uniform.  A tag with no realized type falls back to its
    whole lexicon pool.
    """
    rng = Rng(seed)
    lexicon = _make_lexicon(rng.child(0), types_per_tag)
    full = _zipf_samplers(lexicon)
    train_sents = _sentences(rng.child(1), full, n_train, min_len, max_len)

    train_vocab = {f for s in train_sents for f in s.forms}
    seen = _zipf_samplers(lexicon, train_vocab)
    test_samplers = {t: seen[t] if seen[t][0] else full[t] for t in _TAGS}

    test_rng = rng.child(2)
    test_sents = _sentences(test_rng, test_samplers, n_test, min_len, max_len)

    open_positions = [
        (i, j)
        for i, s in enumerate(test_sents)
        for j, t in enumerate(s.tags)
        if t != "PART"
    ]
    n_tokens = sum(len(s) for s in test_sents)
    n_oov = min(len(open_positions), round(oov_rate * n_tokens))
    test_rng.shuffle(open_positions)
    for i, j in open_positions[:n_oov]:
        tag = test_sents[i].tags[j]
        while True:
            w = _stem(test_rng) + SUFFIXES[tag]
            if w not in train_vocab:
                break
        test_sents[i].forms[j] = w

    return (
        Corpus(train_sents, "train", "synth"),
        Corpus(test_sents, "test", "synth"),
    )
