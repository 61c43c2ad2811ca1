"""Time a fresh process's set-up: import seqtag and read the corpora.

Usage: python3 setup_probe.py MODULE CONLLU_FILE...

MODULE is the seqtag module the workload uses (seqtag.tagger or
seqtag.tnt).  Prints the elapsed seconds.
"""

import time

t0 = time.perf_counter()

import importlib  # noqa: E402
import sys  # noqa: E402

importlib.import_module(sys.argv[1])
from seqtag.corpus import read_conllu  # noqa: E402

for path in sys.argv[2:]:
    read_conllu(path)
print(repr(time.perf_counter() - t0))
