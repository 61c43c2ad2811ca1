"""Reference computations made apart from the program under test."""

import itertools
from collections import Counter

from seqtag.tnt import BOUNDARY


def majority_tag(train_sentences):
    """The most frequent training tag (ties to the alphabetically first)."""
    counts = Counter(t for s in train_sentences for t in s.tags)
    if not counts:
        raise ValueError("majority_tag: no training tokens")
    return min(counts, key=lambda t: (-counts[t], t))


def accuracy(sentences, predictions, known):
    """(overall, known-word, OOV) accuracy; a share is None when it has no tokens."""
    hits = Counter()
    totals = Counter()
    for sent, pred in zip(sentences, predictions, strict=True):
        for form, gold, got in zip(sent.forms, sent.tags, pred, strict=True):
            kind = "known" if form in known else "oov"
            for key in ("all", kind):
                totals[key] += 1
                hits[key] += got == gold
    return tuple(hits[k] / totals[k] if totals[k] else None for k in ("all", "known", "oov"))


def path_logp(model, tokens, tags):
    """Trigram score of one tag sequence through the model's scalar API."""
    score = 0.0
    t1, t2 = BOUNDARY, BOUNDARY
    for form, tag in zip(tokens, tags, strict=True):
        score = (score + model.transition_logp(t1, t2, tag)) + model.emission_logp(form, tag)
        t1, t2 = t2, tag
    return score


def brute_force_best(model, tokens):
    """(best score, best tag sequence) over every sequence of the tagset.

    The scalar log-probabilities are tabulated once per sentence, then every
    sequence is scored in the same order as path_logp.  Ties keep the first
    sequence in lexicographic tag-index order.
    """
    tags = model.tagset
    hist = [BOUNDARY] + tags
    trans = {(a, b, c): model.transition_logp(a, b, c) for a in hist for b in hist for c in tags}
    emis = [{t: model.emission_logp(w, t) for t in tags} for w in tokens]
    best, best_seq = None, None
    for seq in itertools.product(tags, repeat=len(tokens)):
        score = 0.0
        t1, t2 = BOUNDARY, BOUNDARY
        for i, tag in enumerate(seq):
            score = (score + trans[(t1, t2, tag)]) + emis[i][tag]
            t1, t2 = t2, tag
        if best_seq is None or score > best:
            best, best_seq = score, list(seq)
    return best, best_seq
