"""String and value similarity measures (pipeline step 3, §1.2).

Similarity-based attribute value matching: every measure returns a
similarity in ``[0, 1]`` where 1 means identical.  ``None`` values are
handled by the caller (see :mod:`repro.matching.attribute_matching`).

Implemented from scratch: Levenshtein (with banded early exit), Jaro,
Jaro–Winkler, token and character n-gram Jaccard, overlap coefficient,
Monge–Elkan, TF-IDF cosine (corpus-fitted), Soundex equality, numeric
proximity, and exact equality.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache

__all__ = [
    "exact",
    "levenshtein_distance",
    "levenshtein",
    "jaro",
    "jaro_winkler",
    "tokenize",
    "token_jaccard",
    "overlap_coefficient",
    "ngrams",
    "ngram_jaccard",
    "monge_elkan",
    "soundex",
    "SOUNDEX_SENTINEL",
    "soundex_similarity",
    "numeric_similarity",
    "TfIdfCosine",
    "SIMILARITY_FUNCTIONS",
    "ordered_sum",
]

Similarity = Callable[[str, str], float]

_TOKEN_PATTERN = re.compile(r"\w+")


def ordered_sum(values: Iterable[float]) -> float:
    """Sum ``values`` by plain left-to-right float addition.

    Every float sum on the scoring path goes through here, because
    ``sum()`` does not pin the rounding: CPython 3.12 made it
    compensated (Neumaier) over floats, which changes the last bits of
    some means and so which pairs clear a threshold.  A plain
    accumulation rounds after every addition on every version, which is
    also the order the columnar lane arithmetic reproduces.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def exact(first: str, second: str) -> float:
    """1.0 iff the strings are identical (case-sensitive)."""
    return 1.0 if first == second else 0.0


def levenshtein_distance(first: str, second: str, bound: int | None = None) -> int:
    """Edit distance with substitutions, insertions, and deletions.

    Banded two-row dynamic program (Ukkonen's cutoff): only cells with
    ``|i - j| <= bound`` are computed, and the scan exits early once
    every entry of a row exceeds ``bound`` — row minima are
    non-decreasing, so later rows cannot come back under it.  The
    returned value is the exact distance whenever it is ``<= bound``;
    otherwise ``bound + 1`` is returned, meaning "greater than bound".

    With the default ``bound=None`` the band spans ``max(len)`` — an
    upper bound on any edit distance — so the result is always exact,
    in ``O(len(first) · len(second))`` time and ``O(min(len))`` space.
    """
    if first == second:
        return 0
    if len(first) < len(second):
        first, second = second, first
    len_a, len_b = len(first), len(second)
    if bound is None:
        bound = len_a  # distance never exceeds the longer length
    elif bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    if len_a - len_b > bound:  # length gap alone exceeds the band
        return bound + 1
    if not second:
        return len_a
    if bound >= len_a:
        # Full band: the classic tight two-row scan (no cell can fall
        # outside it, and no row minimum can exceed max(len)).
        previous = list(range(len_b + 1))
        for i, char_a in enumerate(first, start=1):
            current = [i]
            for j, char_b in enumerate(second, start=1):
                cost = 0 if char_a == char_b else 1
                current.append(
                    min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
                )
            previous = current
        return previous[-1]
    overshoot = bound + 1
    previous = list(range(len_b + 1))
    lo, hi = 0, len_b  # the previous row's in-band column span
    for i, char_a in enumerate(first, start=1):
        row_lo = max(0, i - bound)
        row_hi = min(len_b, i + bound)
        current = []
        if row_lo == 0:
            current.append(i)  # first column: i deletions
        for j in range(max(row_lo, 1), row_hi + 1):
            cost = 0 if char_a == second[j - 1] else 1
            above = previous[j - lo] + 1 if lo <= j <= hi else overshoot
            left = current[j - row_lo - 1] + 1 if j > row_lo else overshoot
            diagonal = (
                previous[j - 1 - lo] + cost if lo <= j - 1 <= hi else overshoot
            )
            current.append(min(above, left, diagonal))
        if min(current) > bound:
            return overshoot  # row minima never decrease: no way back
        previous = current
        lo, hi = row_lo, row_hi
    distance = previous[-1]
    return distance if distance <= bound else overshoot


def levenshtein(first: str, second: str) -> float:
    """Normalized Levenshtein similarity: ``1 - distance / max(len)``."""
    if not first and not second:
        return 1.0
    return 1.0 - levenshtein_distance(first, second) / max(len(first), len(second))


def jaro(first: str, second: str) -> float:
    """Jaro similarity: transposition-aware common-character overlap."""
    if first == second:
        return 1.0
    len_a, len_b = len(first), len(second)
    if len_a == 0 or len_b == 0:
        return 0.0
    window = max(len_a, len_b) // 2 - 1
    window = max(window, 0)
    matched_a = [False] * len_a
    matched_b = [False] * len_b
    matches = 0
    for i, char in enumerate(first):
        start = max(0, i - window)
        stop = min(i + window + 1, len_b)
        for j in range(start, stop):
            if not matched_b[j] and second[j] == char:
                matched_a[i] = True
                matched_b[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(len_a):
        if matched_a[i]:
            while not matched_b[j]:
                j += 1
            if first[i] != second[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    return (
        matches / len_a + matches / len_b + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler(first: str, second: str, prefix_weight: float = 0.1) -> float:
    """Jaro–Winkler: Jaro boosted for common prefixes up to length 4.

    Per Winkler's published definition the prefix boost applies only
    when the Jaro similarity *exceeds* the boost threshold of 0.7 — a
    pair sitting exactly on the threshold is returned unboosted.
    """
    base = jaro(first, second)
    if base <= 0.7:
        return base
    prefix = 0
    for char_a, char_b in zip(first[:4], second[:4]):
        if char_a != char_b:
            break
        prefix += 1
    return base + prefix * prefix_weight * (1.0 - base)


def tokenize(value: str) -> list[str]:
    """Lowercased word tokens (alphanumeric runs)."""
    return _TOKEN_PATTERN.findall(value.lower())


# Token/n-gram derivations dominate the comparison hot path, and the
# same attribute value is compared against every other member of its
# blocks — memoizing the derived (immutable) sets means each distinct
# value is tokenized once per process instead of once per pair.

@lru_cache(maxsize=131072)
def _token_tuple(value: str) -> tuple[str, ...]:
    """Memoized :func:`tokenize` result as an immutable tuple."""
    return tuple(tokenize(value))


@lru_cache(maxsize=131072)
def _token_set(value: str) -> frozenset[str]:
    """Memoized word-token set of ``value``."""
    return frozenset(_token_tuple(value))


@lru_cache(maxsize=131072)
def _ngram_set(value: str, n: int) -> frozenset[str]:
    """Memoized character n-gram set of ``value``."""
    return frozenset(ngrams(value, n))


def token_jaccard(first: str, second: str) -> float:
    """Jaccard similarity of the word-token sets."""
    tokens_a = _token_set(first)
    tokens_b = _token_set(second)
    if not tokens_a and not tokens_b:
        return 1.0
    union = tokens_a | tokens_b
    if not union:
        return 1.0
    return len(tokens_a & tokens_b) / len(union)


def overlap_coefficient(first: str, second: str) -> float:
    """Szymkiewicz–Simpson overlap of the word-token sets."""
    tokens_a = _token_set(first)
    tokens_b = _token_set(second)
    if not tokens_a or not tokens_b:
        return 1.0 if tokens_a == tokens_b else 0.0
    return len(tokens_a & tokens_b) / min(len(tokens_a), len(tokens_b))


def ngrams(value: str, n: int = 2) -> set[str]:
    """Character n-grams of the lowercased, padded string."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    padded = f"{'#' * (n - 1)}{value.lower()}{'#' * (n - 1)}"
    if len(padded) < n:
        return set()
    return {padded[i : i + n] for i in range(len(padded) - n + 1)}


def ngram_jaccard(first: str, second: str, n: int = 2) -> float:
    """Jaccard similarity of character n-gram sets (bigram default)."""
    grams_a = _ngram_set(first, n)
    grams_b = _ngram_set(second, n)
    if not grams_a and not grams_b:
        return 1.0
    union = grams_a | grams_b
    return len(grams_a & grams_b) / len(union)


def monge_elkan(
    first: str, second: str, inner: Similarity = jaro_winkler
) -> float:
    """Monge–Elkan: mean best inner-similarity of tokens, symmetrized.

    Robust against token reordering and partially matching long fields
    (e.g. the cluttered ``name`` attribute of the SIGMOD datasets).
    """

    def one_way(tokens_a: Sequence[str], tokens_b: Sequence[str]) -> float:
        if not tokens_a:
            return 1.0 if not tokens_b else 0.0
        if not tokens_b:
            return 0.0
        return ordered_sum(
            max(inner(token_a, token_b) for token_b in tokens_b)
            for token_a in tokens_a
        ) / len(tokens_a)

    tokens_a = _token_tuple(first)
    tokens_b = _token_tuple(second)
    return (one_way(tokens_a, tokens_b) + one_way(tokens_b, tokens_a)) / 2.0


_SOUNDEX_CODES = {
    **dict.fromkeys("bfpv", "1"),
    **dict.fromkeys("cgjkqsxz", "2"),
    **dict.fromkeys("dt", "3"),
    "l": "4",
    **dict.fromkeys("mn", "5"),
    "r": "6",
}


SOUNDEX_SENTINEL = "0000"


def soundex(value: str) -> str:
    """American Soundex code (letter + three digits) of the first word.

    Follows the published NARA rules for alphabetic names: the first
    letter is retained; ``h``/``w`` are transparent (same-coded letters
    separated by them collapse, as in ``Ashcraft -> A261``); vowels and
    ``y`` separate (``Tymczak -> T522``); and a second letter coded like
    the first is skipped (``Pfister -> P236``).  Deliberate deviation:
    Soundex is undefined for words that do not start with a letter, so
    those (and empty values) map to the :data:`SOUNDEX_SENTINEL` code —
    :func:`soundex_similarity` treats the sentinel as "not encodable"
    rather than as a real phonetic class.
    """
    word = next(iter(_token_tuple(value)), "")
    if not word or not word[0].isalpha():
        return SOUNDEX_SENTINEL
    head = word[0].upper()
    digits = []
    previous = _SOUNDEX_CODES.get(word[0], "")
    for char in word[1:]:
        code = _SOUNDEX_CODES.get(char, "")
        if code and code != previous:
            digits.append(code)
        if char not in "hw":
            previous = code
        if len(digits) == 3:
            break
    return head + "".join(digits).ljust(3, "0")


def soundex_similarity(first: str, second: str) -> float:
    """1.0 iff the Soundex codes agree — a cheap phonetic similarity.

    Values Soundex cannot encode (empty, or not starting with a
    letter) fall back to exact string equality: two *different*
    non-encodable values (``"42"`` vs ``"99"``) must not count as
    phonetically identical just because both map to the sentinel code.
    """
    code_a = soundex(first)
    code_b = soundex(second)
    if code_a == SOUNDEX_SENTINEL or code_b == SOUNDEX_SENTINEL:
        return exact(first, second)
    return 1.0 if code_a == code_b else 0.0


def numeric_similarity(first: str, second: str, tolerance: float = 0.2) -> float:
    """Proximity of two numeric strings, linear within a relative tolerance.

    Non-numeric input falls back to exact string equality — and so do
    non-finite parses (``"nan"``, ``"inf"``, ``"-infinity"``): the
    relative-distance formula is meaningless there, and evaluating it
    would produce NaN scores that survive the tolerance guard and
    poison thresholding, fusion weights, and graph edge scores
    downstream.  The result is therefore always finite and in
    ``[0, 1]``.
    """
    try:
        value_a = float(first)
        value_b = float(second)
    except ValueError:
        return exact(first, second)
    if not (math.isfinite(value_a) and math.isfinite(value_b)):
        return exact(first, second)
    if value_a == value_b:
        return 1.0
    scale = max(abs(value_a), abs(value_b))
    if scale == 0.0:
        return 1.0
    relative = abs(value_a - value_b) / scale
    if relative >= tolerance:
        return 0.0
    return 1.0 - relative / tolerance


class TfIdfCosine:
    """Corpus-fitted TF-IDF cosine similarity over word tokens.

    Fit on all values of an attribute (or the whole dataset) first, then
    call the instance like any other similarity function.  Rare tokens
    receive high weight, mirroring the column-entropy intuition of
    §4.3.2.
    """

    def __init__(self, corpus: Iterable[str] = ()) -> None:
        self._document_frequency: Counter[str] = Counter()
        self._documents = 0
        # value -> (vector, norm); every add() shifts the idf weights,
        # so the cache is only valid between corpus mutations
        self._vector_cache: dict[str, tuple[dict[str, float], float]] = {}
        for value in corpus:
            self.add(value)

    def add(self, value: str) -> None:
        """Add one document to the corpus statistics."""
        self._documents += 1
        self._document_frequency.update(_token_set(value))
        self._vector_cache.clear()

    def _weight(self, token: str) -> float:
        df = self._document_frequency.get(token, 0)
        return math.log((1 + self._documents) / (1 + df)) + 1.0

    def vector(self, value: str) -> dict[str, float]:
        """The TF-IDF vector of ``value`` under the current corpus."""
        return dict(self._cached_vector(value)[0])

    def _cached_vector(self, value: str) -> tuple[dict[str, float], float]:
        cached = self._vector_cache.get(value)
        if cached is None:
            counts = Counter(_token_tuple(value))
            vector = {
                token: count * self._weight(token)
                for token, count in counts.items()
            }
            norm = math.sqrt(ordered_sum(w * w for w in vector.values()))
            cached = (vector, norm)
            if len(self._vector_cache) < 131072:
                self._vector_cache[value] = cached
        return cached

    def config_fingerprint(self) -> dict[str, object]:
        """Content token for the engine's cache keys.

        Covers the corpus statistics (which determine every similarity
        this instance can return) but not the vector cache, so a
        fitted measure hashes identically before and after it has been
        used.
        """
        return {
            "tfidf_cosine": {
                "documents": self._documents,
                "document_frequency": sorted(
                    self._document_frequency.items()
                ),
            }
        }

    def __call__(self, first: str, second: str) -> float:
        vector_a, norm_a = self._cached_vector(first)
        vector_b, norm_b = self._cached_vector(second)
        if not vector_a and not vector_b:
            return 1.0
        if norm_a == 0.0 or norm_b == 0.0:
            return 0.0
        dot = ordered_sum(
            weight * vector_b.get(token, 0.0) for token, weight in vector_a.items()
        )
        # Clamp the last-ulp overshoot of fl(sqrt(s))² < s: for some
        # norms the rounded product of the two square roots lands just
        # below the exact dot product of identical vectors, and the
        # ratio exceeds 1.0 by one ulp — a score outside [0, 1].
        return min(1.0, dot / (norm_a * norm_b))


SIMILARITY_FUNCTIONS: dict[str, Similarity] = {
    "exact": exact,
    "levenshtein": levenshtein,
    "jaro": jaro,
    "jaro_winkler": jaro_winkler,
    "token_jaccard": token_jaccard,
    "overlap": overlap_coefficient,
    "ngram_jaccard": ngram_jaccard,
    "monge_elkan": monge_elkan,
    "soundex": soundex_similarity,
    "numeric": numeric_similarity,
}
