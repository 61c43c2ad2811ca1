"""Second-order HMM tagger in the TnT style.

A model is two integer count arrays over tag ids, with id k = len(tagset)
for the sentence boundary: tag trigrams `tri` (k+1, k+1, k), each sentence
padded by two boundary tags, and (form, tag) pairs `emit` (V, k), row i for
forms[i].  One constructor, which `train_hmm` and `load_hmm` both call,
derives everything else from them: lower-order counts, interpolation
weights, theta, the log-probability tables and the suffix tries.  A saved
model holds nothing else, so a loaded one cannot disagree with itself.

Emissions are stored sparse, in the form the decoder reads: for each known
form, an emission row (tag ids, logs) of two flat tuples, the tags it was
seen with in ascending order and their log P(form | tag), built from the
distinct rows of `emit` so that forms with equal counts share one row.  A
suffix trie keeps each queried row in the same form, its rows of one tag
set sharing one tuple of tag ids, and a model with no suffix data falls
back to every tag with log 1/k.  A row is at most three objects that the
garbage collector tracks, whatever its number of tags.

Everything is counted on integer codes, streamed from the sentences with no
whole-corpus list of strings.  `train_hmm` reads each column of the token
stream once, the tags and then the forms, in a pass that runs in C and
numbers each string on first sight (the readers hand it one string object
per type, so each hash is computed once).  The forms come out in
first-occurrence order; the tags' ids are mapped to their ranks in the
sorted tagset, as the narrowest integer type that holds the boundary id,
and the form ids, an intp array, are turned into (form, tag) codes in
place.  The trigram codes come from one tag sequence in which each sentence
follows two boundary slots, so every token's history is the two ids before
it.  Each count array is one bincount of intp codes, which it reads without
a copy.  A suffix trie is built from the code points of its words, depth by
depth: one np.unique per suffix length numbers that depth's rows, and one
bincount per tag counts them, so no per-word array outlives its depth.  It
keeps its child map as one string of the characters that label the rows and
an array of offsets into it, and a query walks it by str.find within a
row's children.

Transitions are trigram relative frequencies smoothed by deleted
interpolation; emissions are maximum-likelihood word-given-tag
probabilities for known words, and a Bayes inversion of case-split suffix
statistics (successive abstraction smoothing) for unknown words.  A suffix
trie row's log emissions are computed on its first query, so loading a
model pays only for counting the suffixes.

Decoding is beam Viterbi in log space over (previous, current) tag pairs,
as in TnT (Brants 2000, arXiv:cs/0003055): only the pairs that survive the
beam at one position are extended to the next, by the tags the next token
can emit, on Python floats.  A position costs one dict lookup for a known
word (a trie walk of at most max_suffix_len steps for an unknown one) and
survivors x (the token's tags) additions.  A lone survivor is held as
scalars, so a token of one tag after it costs one addition and builds no
dict; on a language whose words nearly fix their tags one or two pairs
survive and most tokens have one tag, where a dense step would score all
k^3 transitions.  beam = 0 keeps every pair of nonzero probability, up to
k^2 of them, and is then slower than dense numpy for large k.  Ties go to
the lowest tag indices, and a sentence with no path of nonzero
probability (through the beam) gets the first tag everywhere; `viterbi`
says how.

Reconstructed Brants-style constants, all overridable: suffix length <= 10,
suffixes trained on words with frequency <= 10, abstraction weight theta =
the standard deviation of the unconditional tag probabilities, beam factor
1000.

The rare-word suffix population (training words with frequency <=
suffix_max_freq) decides which tags an unknown word can take: a tag seen
only on words more frequent than that gets emission 0 for every unknown
word.  This is Brants's treatment of closed classes, and
tests/test_tnt.py::TestEmission::test_oov_with_no_suffix_match_is_uniform_over_lowfreq_tags
pins it.  Training data whose open classes lack rare types therefore makes
their unknown words untaggable.
"""

import itertools
import math
from array import array
from collections import defaultdict
from operator import attrgetter, itemgetter

import numpy as np

from .container import ModelError, distinct_strings, header_field, load_container, save_container
from .corpus import check_tokens

BOUNDARY = "<s>"
NEG_INF = float("-inf")
CONFIG = ("max_suffix_len", "suffix_max_freq", "beam_default")


def _log(p):
    """Elementwise math.log with log 0 = -inf (np.log can differ from
    math.log in the last bit, and the scalar API has always used math.log)."""
    out = np.full(p.shape, NEG_INF)
    positive = p > 0
    out[positive] = list(map(math.log, p[positive].tolist()))
    return out


_CODE_POINTS = 0x110000  # np.unique orders a depth by parent row * _CODE_POINTS + code point


class SuffixTrie:
    """Tag distributions conditioned on word suffixes, recursively smoothed.

    A trie over the training words read backwards, at most max_len
    characters deep, built on integer codes: one array holds the code
    points of every word (UTF-32, lone surrogates kept by surrogatepass),
    and the nodes at depth n are the distinct (parent row, n-th code point
    from the end) pairs of the words at least n characters long, found by
    np.unique.  Each depth counts its own rows as it goes, one bincount per
    tag of the inverse np.unique returns, weighted by the counts of the
    words still long enough; the root counts every word.  Only a depth's
    keys and its (rows, k) block of counts outlive it, and the counts are
    normalised into `dist` in place.  Row i of `dist` is one suffix.  Rows
    are numbered shortest suffix first, so the root '' is row 0 and every
    row comes after its parent (the suffix minus its first character); a
    depth's rows are in (parent row, code point) order.  So the rows after
    the root, in order, have parent rows that never decrease, and the
    children of a row are one run of them.  The child map is two flat
    objects built from the keys: `labels`, a str whose character j is the
    one that row j + 1 adds to its parent's suffix, and `first`, an
    array('q') of rows + 1 offsets, row p's children being the rows j + 1
    for j in range(first[p], first[p + 1]).  A row costs one character and
    one 8-byte offset, and no Python object of its own.  A query walks
    down from the root to the longest suffix of the word in the trie,
    finding each character among the labels of the current row's children.

    Row distributions are blended with their parent: P(t|s_1..i) =
    (ML(t|s_1..i) + theta * P(t|s_2..i)) / (1 + theta), rooted at the ML
    distribution of the whole training population for this trie.  The
    counts are integers, so a row's distribution does not depend on the
    order in which words or rows are counted.  A row's emissions are the
    Bayes inversion log(P(t|suffix) / P(t)) of its tags of nonzero
    probability, P(t) being the root row (kept as a list of floats), as
    (tag ids, logs) in ascending tag order, the form `viterbi` reads; they
    are computed on the row's first query and kept, and rows of equal tag
    ids share one tuple of them.
    """

    def __init__(self, forms, counts, theta, max_len):
        """forms: the trie's training words; counts: their (n, k) tag counts."""
        root = [counts.sum(axis=0, keepdims=True).astype(float)] if len(forms) else []
        depths = list(_suffix_depths(forms, counts, max_len, len(root)))  # (keys, counts) per depth
        depth_ends = list(itertools.accumulate((len(depth_keys) for depth_keys, _ in depths), initial=len(root)))
        dist = np.concatenate([np.zeros((0, counts.shape[1])), *root, *(block for _, block in depths)])
        dist /= dist.sum(axis=1, keepdims=True)  # ML; the root stays so
        keys = np.concatenate([np.zeros(0, np.int64), *(depth_keys for depth_keys, _ in depths)])  # row i + 1's
        del depths
        parent, code = np.divmod(keys, _CODE_POINTS)
        del keys
        for a, b in itertools.pairwise(depth_ends):  # parents first
            dist[a:b] = (dist[a:b] + theta * dist[parent[a - 1 : b - 1]]) / (1.0 + theta)
        self.dist = dist
        self._prior = dist[0].tolist() if len(dist) else []  # the root's P(t), as emission_row reads it
        self.labels = code.astype(np.uint32).tobytes().decode("utf-32-le", "surrogatepass")
        del code
        first = np.searchsorted(parent, np.arange(max(len(dist), 1) + 1))  # an empty trie walks as a bare root
        self.first = array("q", first.astype(np.int64, copy=False).tobytes())
        self._rows = {}  # row -> (tag ids, logs), filled by emission_row
        self._tag_ids = {}  # one tuple object per distinct tag ids of the rows

    def __bool__(self):
        return len(self.dist) > 0

    def row(self, word):
        """Row of the longest suffix of word in the trie, the root when none
        matches.  Each character of word, last first, is looked for by
        str.find in labels[first[row]:first[row + 1]], the current row's
        children, and a hit at j moves to row j + 1; the walk stops at the
        first miss (the trie is max_len deep, so it stops by then)."""
        row, labels, first = 0, self.labels, self.first
        for ch in reversed(word):
            j = labels.find(ch, first[row], first[row + 1])
            if j < 0:
                break
            row = j + 1
        return row

    def emission_row(self, word):
        """(tag ids, logs): the tags of nonzero ratio of the longest matching
        suffix (root fallback) and their log P(t|suffix) / P(t)."""
        row = self.row(word)
        emissions = self._rows.get(row)
        if emissions is None:  # on Python floats: quicker for k values
            ratios = [d / p if p > 0 else 0.0 for d, p in zip(self.dist[row].tolist(), self._prior)]
            tags = tuple(t for t, q in enumerate(ratios) if q > 0)
            tags = self._tag_ids.setdefault(tags, tags)
            emissions = self._rows[row] = tags, tuple(math.log(ratios[t]) for t in tags)
        return emissions


def _suffix_depths(forms, counts, max_len, first_row):
    """For each depth n = 1, 2, ... of the trie over forms read backwards, up
    to max_len or the longest form: the keys of its rows, parent row *
    _CODE_POINTS + code point in ascending order, and their (rows, k) tag
    counts, the sums of the counts of the forms at least n characters long
    that end in each row's suffix.  Rows are numbered on from first_row."""
    lens = np.fromiter(map(len, forms), np.intp, len(forms))
    ends = np.cumsum(lens)  # form i's code points end at ends[i]
    codes = np.frombuffer("".join(forms).encode("utf-32-le", "surrogatepass"), np.uint32)  # keys upcast them
    words = np.arange(len(forms))  # the forms at least n characters long
    node = np.zeros(len(forms), np.int64)  # their rows at depth n - 1
    for n in range(1, max_len + 1):
        live = lens[words] >= n
        words, node = words[live], node[live]
        if not len(words):
            return
        keys, inverse = np.unique(node * _CODE_POINTS + codes[ends[words] - n], return_inverse=True)
        block = np.empty((len(keys), counts.shape[1]))
        for t, column in enumerate(counts.T):
            block[:, t] = np.bincount(inverse, weights=column[words], minlength=len(keys))
        yield keys, block
        node = first_row + inverse
        first_row += len(keys)


def _counts(name, a, shape):
    """a as an int64 array of counts of the given shape; ValueError naming it otherwise."""
    if a is None:
        raise ValueError(f"no {name!r} array block")
    a = np.asarray(a)
    if a.shape != shape:
        raise ValueError(f"{name!r} has shape {list(a.shape)}, expected {list(shape)}")
    if not np.all((a >= 0) & (a < 2**53) & (a == np.floor(a))):
        raise ValueError(f"{name!r} holds a negative, non-integer or huge count")
    return a.astype(np.int64)


def _number(x, kinds):
    return isinstance(x, kinds) and not isinstance(x, bool)


def _is_beam(beam):
    """Whether beam is a beam factor: 0 (exact), or a finite int or float >=
    1 that is not a bool.  NaN fails both comparisons."""
    return _number(beam, (int, float)) and (beam == 0 or 1 <= beam < math.inf)


def _check_config(max_suffix_len, suffix_max_freq, beam_default):
    """ValueError naming the first config field of the wrong type or range."""
    if not (_number(max_suffix_len, int) and max_suffix_len >= 1):
        raise ValueError(f"'max_suffix_len' must be an integer >= 1, got {max_suffix_len!r}")
    if not (_number(suffix_max_freq, int) and suffix_max_freq >= 0):
        raise ValueError(f"'suffix_max_freq' must be an integer >= 0, got {suffix_max_freq!r}")
    if not _is_beam(beam_default):
        raise ValueError(f"'beam_default' must be 0 or a finite number >= 1, got {beam_default!r}")


class TrigramModel:
    """A tagger derived from its tag-trigram and (form, tag) counts."""

    def __init__(self, tagset, tri, forms, emit, max_suffix_len=10, suffix_max_freq=10, beam_default=1000.0):
        _check_config(max_suffix_len, suffix_max_freq, beam_default)
        self.tagset = distinct_strings(tagset, "tagset")
        k = len(self.tagset)
        if not k or BOUNDARY in self.tagset:
            raise ValueError(f"'tagset' must be distinct tags other than {BOUNDARY!r}, got {self.tagset}")
        self.forms = distinct_strings(forms, "forms")
        self.tri = _counts("tri", tri, (k + 1, k + 1, k))
        self.emit = _counts("emit", emit, (len(self.forms), k))
        self.tag_index = {t: i for i, t in enumerate(self.tagset)}
        self.history_index = {**self.tag_index, BOUNDARY: k}
        self.form_index = dict(zip(self.forms, itertools.count()))
        self.max_suffix_len = max_suffix_len
        self.suffix_max_freq = suffix_max_freq
        self.beam_default = beam_default

        bi = self.tri.sum(axis=0)            # (t2, t3)
        hist1 = bi.sum(axis=1)               # t2 as a bigram history (may be BOUNDARY)
        hist2 = self.tri.sum(axis=2)         # (t1, t2) as a trigram history
        uni = bi.sum(axis=0)                 # outcome tag counts
        if uni.min() == 0:
            raise ValueError(f"'tri' has no token of tag {self.tagset[int(uni.argmin())]!r}")
        if not np.array_equal(self.emit.sum(axis=0), uni):
            raise ValueError("'emit' column sums disagree with the tag totals of 'tri'")
        self.freq = self.emit.sum(axis=1)
        if self.freq.min() == 0:
            raise ValueError(f"'emit' has no token of form {self.forms[int(self.freq.argmin())]!r}")
        self.n_tokens = n = int(uni.sum())

        self.lambdas = _deleted_interpolation(self.tri, bi, hist1, hist2, uni, n)
        probs = (uni / n).tolist()
        mean = sum(probs) / k
        self.theta = math.sqrt(sum((p - mean) ** 2 for p in probs) / (k - 1)) if k > 1 else 0.0

        # Interpolated P(t3 | t1, t2), proper over the tagset for any history:
        # unseen histories back off to the lower-order estimate.
        l1, l2, l3 = self.lambdas
        p1 = uni / n
        with np.errstate(divide="ignore", invalid="ignore"):
            p2 = np.where(hist1[:, None] > 0, bi / hist1[:, None], p1)
            p3 = np.where(hist2[:, :, None] > 0, self.tri / hist2[:, :, None], p2)
        self.trans = l1 * p1 + l2 * p2 + l3 * p3
        self.log_trans = _log(self.trans)
        self.log_trans_rows = self.log_trans.tolist()  # what viterbi reads, as Python floats
        self.form_emissions = _emissions(self.emit, uni)
        self.uniform = tuple(range(k)), (math.log(1.0 / k),) * k  # no suffix data at all: uninformative

        rare = np.flatnonzero(self.freq <= suffix_max_freq)
        words = np.array(self.forms, dtype=object)[rare]
        upper = np.fromiter(map(str.isupper, map(itemgetter(0), words)), bool, len(words))
        self.trie_upper, self.trie_lower = (
            SuffixTrie(words[case].tolist(), self.emit[rare[case]], self.theta, max_suffix_len)
            for case in (upper, ~upper)
        )

    def _ids(self, t1, t2, t3):
        return self.history_index[t1], self.history_index[t2], self.tag_index[t3]

    def transition_logp(self, t1, t2, t3):
        return float(self.log_trans[self._ids(t1, t2, t3)])

    def emission_row(self, word):
        """(tag ids, logs): word's tags of nonzero emission, in tag order, and
        their log emissions: log ML P(word | t) for known words, suffix Bayes
        inversion otherwise."""
        row = self.form_index.get(word)
        if row is not None:
            return self.form_emissions[row]
        if not isinstance(word, str) or not word:
            raise ValueError(f"token {word!r} is not a non-empty string")
        tries = (self.trie_upper, self.trie_lower) if word[0].isupper() else (self.trie_lower, self.trie_upper)
        trie = next(filter(None, tries), None)  # the other case's trie if this one is empty
        return self.uniform if trie is None else trie.emission_row(word)

    def emission_logp(self, word, tag):
        return dict(zip(*self.emission_row(word))).get(self.tag_index[tag], NEG_INF)

    def training_frequency(self, form):
        row = self.form_index.get(form)
        return 0 if row is None else int(self.freq[row])

    def predict(self, tokens):
        return viterbi(self, tokens, self.beam_default)


def _emissions(emit, uni):
    """Each form's (tag ids, logs): its tags of nonzero count, in tag order,
    and the floats of math.log(emit / uni) for them.

    Forms with equal count rows share one row, built once: on a Zipfian
    corpus most forms have one tag and a small count, so a few hundred rows
    serve every form.  A row's counts, as bytes, are its key."""
    k = emit.shape[1]
    rows = np.ascontiguousarray(emit).view(np.dtype((np.void, 8 * k))).ravel().tolist()
    distinct = dict.fromkeys(rows)
    counts = np.frombuffer(b"".join(distinct), np.int64).reshape(-1, k)
    row_of, tag_of = np.nonzero(counts)
    tags = tuple(tag_of.tolist())
    logs = tuple(map(math.log, (counts[row_of, tag_of] / uni[tag_of]).tolist()))
    ends = np.cumsum(np.count_nonzero(counts, axis=1)).tolist()
    spans = list(map(slice, [0, *ends], ends))
    distinct.update(zip(distinct, zip(map(tags.__getitem__, spans), map(logs.__getitem__, spans))))
    return list(map(distinct.__getitem__, rows))


def _deleted_interpolation(tri, bi, hist1, hist2, uni, n):
    """Brants-style weights: each trigram votes, with its own count
    removed, for the order whose relative-frequency estimate is largest;
    0/0 counts as 0 and ties fall to the lower order (more smoothing)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r3 = np.where(hist2[:, :, None] > 1, (tri - 1) / (hist2[:, :, None] - 1), 0.0)
        r2 = np.where(hist1[:, None] > 1, (bi - 1) / (hist1[:, None] - 1), 0.0)
    r1 = (uni - 1) / (n - 1) if n > 1 else np.zeros(len(uni))
    vote1 = (r1 >= r2) & (r1 >= r3)
    vote2 = ~vote1 & (r2 >= r3)
    votes = [int(tri[v].sum()) for v in (vote1, vote2, ~vote1 & ~vote2)]
    return tuple(v / n for v in votes)


def train_hmm(corpus, max_suffix_len=10, suffix_max_freq=10, beam_default=1000.0):
    """Count tag trigrams and (form, tag) pairs, then derive the model."""
    if not corpus.sentences:
        raise ValueError("train_hmm: empty corpus")
    return TrigramModel(*_count(corpus), max_suffix_len, suffix_max_freq, beam_default)


def _count(corpus):
    """(tagset, tri, forms, emit) of a corpus.  Each column of the token
    stream, the tags and then the forms of every sentence in turn, is read
    once, by one pass that runs in C and writes each token's id straight
    into an intp array, with no whole-corpus list of strings.  The ids come
    from a dict that numbers each string on first sight, so the forms come
    out in first-occurrence order.  The tags' ids are mapped through a
    k-entry array to their ranks in the sorted tagset, as the narrowest
    integer type that holds the boundary id k, before the forms are read.
    The sentence lengths are the lengths of the form lists.  Each count
    array is one bincount."""
    sentences = corpus.sentences
    lengths = np.fromiter(map(len, map(attrgetter("forms"), sentences)), np.intp, len(sentences))
    n = int(lengths.sum())

    def first_seen_ids(name):
        """Each token's id in one column, and the dict that numbered them."""
        ids = defaultdict(itertools.count().__next__)
        tokens = itertools.chain.from_iterable(map(attrgetter(name), sentences))
        return np.fromiter(map(ids.__getitem__, tokens), np.intp, n), ids

    seen, tag_id = first_seen_ids("tags")
    tagset = sorted(tag_id)
    k = len(tagset)
    rank = np.empty(k, np.min_scalar_type(k))  # holds k, the boundary
    rank[[tag_id[t] for t in tagset]] = np.arange(k)
    tags = rank[seen]
    del seen
    tri = _trigrams(tags, lengths, k)
    codes, form_id = first_seen_ids("forms")
    forms = list(form_id)
    del form_id  # and its int values, before emit is allocated
    codes *= k
    codes += tags
    emit = np.bincount(codes, minlength=len(forms) * k).reshape(-1, k)
    return tagset, tri, forms, emit


def _trigrams(tags, lengths, k):
    """(k+1, k+1, k) trigram counts of the tag ids of sentences of the given
    lengths, k being the boundary id.  The sentences are laid out in one
    sequence, each after two boundary slots, so the two ids before a token
    are its history; a trigram that ends in a boundary slot is counted in
    outcome column k, which is dropped."""
    padded = np.insert(tags, np.repeat(np.cumsum(lengths) - lengths, 2), k)
    codes = padded[:-2].astype(np.intp)  # bincount counts intp codes without a copy
    codes *= k + 1
    codes += padded[1:-1]
    codes *= k + 1
    codes += padded[2:]
    tri = np.bincount(codes, minlength=(k + 1) ** 3).reshape(k + 1, k + 1, k + 1)
    return np.ascontiguousarray(tri[:, :, :k])


def viterbi(model, tokens, beam=1000.0):
    """Highest-probability tag sequence (trigram transitions x emissions).

    Log-space DP over (previous, current) tag states that expands only the
    states that survive: each surviving state at position i-1 is extended
    by every tag whose emission of token i is nonzero, scoring
    (score + log_trans) + emission in that order.  The tags and their log
    emissions come straight from the model's emission row (a known word's
    row is looked up here, in `form_index` and `form_emissions`).  A lone
    survivor is held as three scalars, (previous, current, score): a token
    of one tag then costs one addition and one append, and its back pointer
    is the int t_{i-2}, which every state extended from the lone survivor
    shares.  Only when two or more states survive does a position build
    dicts of scores and back pointers ((t_{i-1}, t_i) -> t_{i-2}), at the
    cost of a sort of the survivors and survivors x (the token's tags)
    additions, at most survivors x k.  With a beam factor B, a finite int
    or float >= 1, states scoring below best - ln(B) are dropped at each
    position, the first included; beam = 0 keeps every state of nonzero
    probability, which is up to k^2 states a position and slower than a
    dense numpy step for large k.  Any other beam raises ValueError, as the
    config's beam_default does.

    Ties resolve to the lowest tag indices: survivors are extended in
    ascending (previous, current) order, a state keeps its first best
    predecessor, and the final state is the lowest (previous, current) pair
    of the best score.  That is the rule of the dense decoder in
    tests/reference.py, not "the lexicographically first best sequence":
    float rounding can make a path whose prefix lost at some state tie
    exactly with the best path at the end, and a dropped prefix is never
    revisited.  The path found always has the highest score.  When no
    state of nonzero probability survives a position (every path has
    probability 0, or every path through the beam), all scores tie at -inf
    and the result is the lexicographically first sequence, the first tag
    at every position.
    """
    if not tokens:
        raise ValueError("viterbi: empty sentence")
    if not _is_beam(beam):
        raise ValueError(f"beam factor must be 0 (exact) or a finite number >= 1, got {beam!r}")
    check_tokens(tokens)
    tags = model.tagset
    k = len(tags)
    lt = model.log_trans_rows
    form_index, form_emissions, emission_row = model.form_index.get, model.form_emissions, model.emission_row
    cut = math.log(beam) if beam > 0 else None

    # The lone surviving state (t_{i-1}, t_i) = (a, b) and its score s while
    # states is None, else states maps each survivor to its score.  Before
    # position 0 both tags are the boundary k, and 0.0 + log_trans is
    # log_trans exactly.
    a, b, s, states = k, k, 0.0, None
    backs = []  # per position: t_{i-2}, an int or a dict (t_{i-1}, t_i) -> t_{i-2}
    for word in tokens:
        known = form_index(word)
        emis_tags, emis_logs = emission_row(word) if known is None else form_emissions[known]
        if states is None:
            row = lt[a][b]
            if len(emis_tags) == 1:  # the state stays lone
                s = (s + row[emis_tags[0]]) + emis_logs[0]
                if s == NEG_INF:
                    return [tags[0]] * len(tokens)
                backs.append(a)
                a, b = b, emis_tags[0]
                continue
            scores = {(b, c): score for c, x in zip(emis_tags, emis_logs) if (score := (s + row[c]) + x) > NEG_INF}
            back = a
        else:
            scores, back = {}, {}
            for (a, b), s in sorted(states.items()):
                row = lt[a][b]
                for c, x in zip(emis_tags, emis_logs):
                    score = (s + row[c]) + x
                    key = b, c
                    if score > scores.get(key, NEG_INF):
                        scores[key] = score
                        back[key] = a
        if not scores:
            return [tags[0]] * len(tokens)
        if cut is not None and len(scores) > 1:
            floor = max(scores.values()) - cut
            scores = {state: s for state, s in scores.items() if s >= floor}
        backs.append(back)
        if len(scores) > 1:
            states = scores
        else:
            [((a, b), s)], states = scores.items(), None

    if states is not None:
        a, b = max(sorted(states), key=states.__getitem__)  # max keeps the first of equals
    rev = [b]
    for back in reversed(backs[1:]):
        a, b = back if isinstance(back, int) else back[a, b], a
        rev.append(b)
    return [tags[i] for i in reversed(rev)]


def save_hmm(model, path):
    """The tagset, the config, the forms and the two count arrays."""
    config = {name: getattr(model, name) for name in CONFIG}
    header = {"kind": "tnt", "tagset": model.tagset, "config": config, "forms": model.forms}
    save_container(path, header, [("tri", model.tri), ("emit", model.emit)])


def load_hmm(path):
    """Rebuild a saved model through the constructor `train_hmm` uses."""
    header, arrays = load_container(path)
    if header.get("kind") != "tnt":
        raise ModelError(f"{path}: container holds a {header.get('kind')!r} model, not tnt")
    config = header_field(path, header, "config", lambda c: [c[name] for name in CONFIG])
    tri, emit = arrays.pop("tri", None), arrays.pop("emit", None)
    if arrays:
        raise ModelError(f"{path}: unexpected array block {next(iter(arrays))!r}")
    try:
        return TrigramModel(header.get("tagset"), tri, header.get("forms"), emit, *config)
    except ValueError as e:
        raise ModelError(f"{path}: {e}") from e
