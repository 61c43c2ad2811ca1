"""Write the golden outputs that tests/test_golden.py checks.

    PYTHONPATH=src python tests/make_golden.py [--force]

TnT.  Trains TnT on two corpora of the suffix language: one as generated, and the
same corpus with the first form of every sentence capitalised, so that both
suffix tries hold words.  For each it records in tests/golden/tnt.json the
SHA-256 of the saved model file, the interpolation weights and theta as
float.hex, the row count of each suffix trie, and the tags of every test
sentence with beam 0 (exact) and with the model's default beam.  A tag
sequence is one string with one letter per token, letter i standing for
tagset[i].

TnT makes no BLAS call, so every value is checked exactly.  The committed
tnt.json was written once, by the code of commit 3730499.

Bi-LSTM.  Trains the tagger with tiny dims for two epochs on about twenty
sentences, once for each representation mode with the frequency head off
and on.  For each it records in tests/golden/bilstm.json the per-epoch mean
losses, the tags of every test sentence (letters as for TnT) and the
SHA-256 of the saved model file, and in tests/golden/bilstm.npz every
parameter array, under "<config>/<parameter name>".  The tags are checked
exactly and the losses and arrays to 1e-12 relative, since a BLAS library
may round differently; the digest is kept for reference only.  The
committed files were written once, by the code of commit e03cb4c.

Regenerating a fixture changes its check, so the script writes only the
fixtures that are missing unless --force is given.
"""

import argparse
import hashlib
import json
import string
import sys
import tempfile
from pathlib import Path

import numpy as np

from seqtag import tagger, tnt
from seqtag.corpus import Corpus, Sentence
from seqtag.representations import REPR_MODES
from seqtag.synthetic import make_suffix_corpus

HERE = Path(__file__).resolve().parent / "golden"
RECORD = HERE / "tnt.json"
CORPUS = dict(n_train=2000, n_test=200, seed=1, types_per_tag=4000, min_len=3, max_len=29)
LETTERS = string.ascii_letters

BILSTM_RECORD, BILSTM_ARRAYS = HERE / "bilstm.json", HERE / "bilstm.npz"
BILSTM_CORPUS = dict(n_train=20, n_test=6, seed=3)
BILSTM_HP = dict(epochs=2, word_dim=4, subtoken_dim=3, hidden_dim=3, seed=3)
# "<mode>" and "<mode> freqbin" for every representation mode
BILSTM_CONFIGS = {f"{mode}{' freqbin' * freqbin}": (mode, freqbin) for mode in REPR_MODES for freqbin in (False, True)}


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


def bilstm_models():
    """{config: trained model}, and the test split they tag."""
    train, test = make_suffix_corpus(**BILSTM_CORPUS)
    models = {
        name: tagger.train(train, tagger.Hyperparams(repr_mode=mode, freqbin=freqbin, **BILSTM_HP))
        for name, (mode, freqbin) in BILSTM_CONFIGS.items()
    }
    return models, test


def bilstm_outputs(model, test):
    """What the fixture records of one trained bi-LSTM, beside its arrays."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bilstm.bin"
        tagger.save(model, str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return {
        "sha256": digest,
        "losses": [entry["mean_loss"] for entry in model.train_history],
        "tags": [encode(model, model.predict(s.forms)) for s in test],
    }


def write_tnt():
    record = {"corpus": CORPUS, **{name: outputs(*split) for name, split in corpora().items()}}
    RECORD.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def write_bilstm():
    models, test = bilstm_models()
    record = {"corpus": BILSTM_CORPUS, "hp": BILSTM_HP}
    record.update((name, bilstm_outputs(model, test)) for name, model in models.items())
    BILSTM_RECORD.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    arrays = {f"{name}/{p.name}": p.v for name, model in models.items() for p in model.parameters()}
    with open(BILSTM_ARRAYS, "wb") as fh:
        np.savez(fh, **arrays)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--force", action="store_true", help="overwrite the committed fixtures")
    args = ap.parse_args(argv)
    fixtures = {RECORD: write_tnt, BILSTM_RECORD: write_bilstm}
    missing = [path for path in fixtures if args.force or not path.exists()]
    if not missing:
        print(f"make_golden: {HERE} holds every fixture; pass --force to overwrite", file=sys.stderr)
        return 1
    HERE.mkdir(exist_ok=True)
    for path in missing:
        fixtures[path]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
