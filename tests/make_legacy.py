"""Write the committed legacy models and what they must keep doing.

    PYTHONPATH=src python tests/make_legacy.py [--force]

Trains a tiny-dims `w+c` FREQBIN bi-LSTM and a TnT model on small synthetic
corpora, saves both under tests/legacy/, and records in
tests/legacy/legacy.json each file's SHA-256 and size and the tags each
model gives a fixed sentence list (space-separated: no form holds a space).
`tests/test_legacy.py` checks that the current reader still loads both
files, tags as recorded, and writes the same bytes when it saves them
again.  The committed files were written once, by the code of commit
ec16fd9; regenerating them changes the check, so the script refuses to
overwrite them without --force.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from seqtag import tagger, tnt
from seqtag.corpus import Corpus, Sentence
from seqtag.synthetic import make_suffix_corpus

HERE = Path(__file__).resolve().parent / "legacy"
RECORD = HERE / "legacy.json"
BILSTM = "bilstm-wc-freqbin.bin"
TNT = "tnt.bin"

# Known and unknown words, a capitalised start, non-ASCII forms and a
# one-token sentence, beside the test split of each model's corpus.
EXTRA = [
    ["qo"],
    ["Zuna", "velave", "qo", "bimad"],
    ["péna", "ŝove", "ßad", "zu", "Ärro"],
]


def _capitalise_starts(corpus, every=3):
    """Every `every`-th sentence with its first form capitalised, so that
    both TnT suffix tries have words."""
    sents = [
        Sentence([s.forms[0].capitalize()] + s.forms[1:], s.tags) if i % every == 0 else s
        for i, s in enumerate(corpus)
    ]
    return Corpus(sents, corpus.split, corpus.language)


def build():
    """{file name: (model, save, sentences)}"""
    train, test = make_suffix_corpus(60, 8, seed=5)
    hp = tagger.Hyperparams(
        epochs=8, word_dim=8, subtoken_dim=6, hidden_dim=8, seed=5, repr_mode="w+c", freqbin=True
    )
    bilstm = tagger.train(train, hp)
    train, test = make_suffix_corpus(300, 8, seed=6)
    hmm = tnt.train_hmm(_capitalise_starts(train))
    return {
        BILSTM: (bilstm, tagger.save, [s.forms for s in test] + EXTRA),
        TNT: (hmm, tnt.save_hmm, [s.forms for s in _capitalise_starts(test, 2)] + EXTRA),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--force", action="store_true", help="overwrite the committed files")
    args = ap.parse_args(argv)
    targets = [RECORD] + [HERE / name for name in (BILSTM, TNT)]
    if not args.force and any(p.exists() for p in targets):
        print(f"make_legacy: {HERE} already holds the legacy models; pass --force to overwrite", file=sys.stderr)
        return 1
    HERE.mkdir(exist_ok=True)
    record = {}
    for name, (model, save, sentences) in build().items():
        save(model, str(HERE / name))
        data = (HERE / name).read_bytes()
        record[name] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
            "sentences": [" ".join(forms) for forms in sentences],
            "tags": [" ".join(model.predict(forms)) for forms in sentences],
        }
    RECORD.write_text(json.dumps(record, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
