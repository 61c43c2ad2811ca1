"""Write a workload's corpora as CoNLL-U files and check that they read back.

Usage: python3 gen.py OUT_DIR N_TRAIN N_TEST SEED TYPES_PER_TAG MIN_LEN MAX_LEN

Prints one JSON object: the SHA-256 digest, token count and mean sentence
length of each file, and whether read_conllu(write_conllu(c)) == c held for
both splits.  It runs in its own process so that generation does not count towards the
workload's peak memory.
"""

import hashlib
import json
import os
import sys

from seqtag.corpus import read_conllu, write_conllu
from seqtag.synthetic import make_suffix_corpus


def main(out_dir, n_train, n_test, seed, types_per_tag, min_len, max_len):
    train, test = make_suffix_corpus(
        n_train, n_test, seed=seed, types_per_tag=types_per_tag, min_len=min_len, max_len=max_len
    )
    report = {"roundtrip_ok": True}
    for split, corpus in (("train", train), ("test", test)):
        path = os.path.join(out_dir, f"{split}.conllu")
        write_conllu(corpus, path)
        report["roundtrip_ok"] &= read_conllu(path, split) == corpus
        with open(path, "rb") as fh:
            report[f"{split}_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        report[f"{split}_tokens"] = corpus.n_tokens()
        report[f"{split}_mean_len"] = corpus.n_tokens() / len(corpus)
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1], *map(int, sys.argv[2:8]))
