"""Write the golden TnT outputs that tests/test_golden.py checks exactly.

    PYTHONPATH=src python tests/make_golden.py [--force]

Trains TnT on two corpora of the suffix language: one as generated, and the
same corpus with the first form of every sentence capitalised, so that both
suffix tries hold words.  For each it records in tests/golden/tnt.json the
SHA-256 of the saved model file, the interpolation weights and theta as
float.hex, the row count of each suffix trie, and the tags of every test
sentence with beam 0 (exact) and with the model's default beam.  A tag
sequence is one string with one letter per token, letter i standing for
tagset[i].

TnT makes no BLAS call, so every value is checked exactly.  The committed
fixture was written once, by the code of commit 3730499; regenerating it
changes the check, so the script refuses to overwrite it without --force.
"""

import argparse
import hashlib
import json
import string
import sys
import tempfile
from pathlib import Path

from seqtag import tnt
from seqtag.corpus import Corpus, Sentence
from seqtag.synthetic import make_suffix_corpus

RECORD = Path(__file__).resolve().parent / "golden" / "tnt.json"
CORPUS = dict(n_train=2000, n_test=200, seed=1, types_per_tag=4000, min_len=3, max_len=29)
LETTERS = string.ascii_letters


def _capitalise_starts(corpus):
    sents = [Sentence([s.forms[0].capitalize()] + s.forms[1:], s.tags) for s in corpus]
    return Corpus(sents, corpus.split, corpus.language)


def corpora():
    """{name: (train, test)}"""
    train, test = make_suffix_corpus(**CORPUS)
    return {"plain": (train, test), "capitalised": (_capitalise_starts(train), _capitalise_starts(test))}


def encode(model, tags):
    """One letter per tag: LETTERS[i] for tagset[i]."""
    return "".join(LETTERS[model.tag_index[t]] for t in tags)


def outputs(train, test):
    """What the fixture records of one corpus."""
    model = tnt.train_hmm(train)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tnt.bin"
        tnt.save_hmm(model, str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return {
        "sha256": digest,
        "tagset": model.tagset,
        "lambdas": [x.hex() for x in model.lambdas],
        "theta": model.theta.hex(),
        "trie_rows": [len(model.trie_upper.dist), len(model.trie_lower.dist)],
        "tags_exact": [encode(model, tnt.viterbi(model, s.forms, 0)) for s in test],
        "tags_beam": [encode(model, model.predict(s.forms)) for s in test],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--force", action="store_true", help="overwrite the committed fixture")
    args = ap.parse_args(argv)
    if RECORD.exists() and not args.force:
        print(f"make_golden: {RECORD} exists; pass --force to overwrite", file=sys.stderr)
        return 1
    record = {"corpus": CORPUS, **{name: outputs(*split) for name, split in corpora().items()}}
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
