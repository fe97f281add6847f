"""Porter stemmer, original 1980 algorithm.

Table-driven implementation of the five-step suffix-stripping algorithm as
published (not the Porter2/Snowball revision and without the later reference-
code departures: words of length 1-2 are stemmed too, step 2 maps ABLI -> ABLE,
and there is no LOGI rule). Two primitives do the work. ``_form`` spells a
word as its consonant/vowel pattern, from which the measure, "has a vowel",
*o and *d are read. ``_replace_suffix`` applies one step's table: the longest
matching suffix wins, and if its stem's measure is too small the step does
nothing.
"""

from __future__ import annotations

__all__ = ["stem"]

_VOWELS = frozenset("aeiou")

_STEP1A = {
    "sses": "ss",
    "ies": "i",
    "ss": "ss",
    "s": "",
}

_STEP2 = {
    "ational": "ate",
    "tional": "tion",
    "enci": "ence",
    "anci": "ance",
    "izer": "ize",
    "abli": "able",
    "alli": "al",
    "entli": "ent",
    "eli": "e",
    "ousli": "ous",
    "ization": "ize",
    "ation": "ate",
    "ator": "ate",
    "alism": "al",
    "iveness": "ive",
    "fulness": "ful",
    "ousness": "ous",
    "aliti": "al",
    "iviti": "ive",
    "biliti": "ble",
}

_STEP3 = {
    "icate": "ic",
    "ative": "",
    "alize": "al",
    "iciti": "ic",
    "ical": "ic",
    "ful": "",
    "ness": "",
}

_STEP4 = {
    "al": "",
    "ance": "",
    "ence": "",
    "er": "",
    "ic": "",
    "able": "",
    "ible": "",
    "ant": "",
    "ement": "",
    "ment": "",
    "ent": "",
    "ion": "",  # condition: stem ends s or t (checked in stem)
    "ou": "",
    "ism": "",
    "ate": "",
    "iti": "",
    "ous": "",
    "ive": "",
    "ize": "",
}


def _form(word: str) -> str:
    """One 'c' or 'v' per character. A, e, i, o and u are vowels, y is a
    vowel after a consonant, and anything else (digits too) is a consonant.
    The measure m of [C](VC)^m[V] is ``_form(stem).count("vc")``."""
    form, prev = [], "v"  # a leading y is a consonant
    for ch in word:
        prev = "v" if ch in _VOWELS or (ch == "y" and prev == "c") else "c"
        form.append(prev)
    return "".join(form)


def _ends_cvc(word: str) -> bool:
    """*o: consonant-vowel-consonant ending where the last letter is not w, x or y."""
    return _form(word).endswith("cvc") and word[-1] not in "wxy"


def _replace_suffix(word: str, rules: dict[str, str], min_measure: int) -> str:
    """Replace the longest suffix of ``word`` found in ``rules`` when the stem
    before it has a measure above ``min_measure``; otherwise keep ``word``."""
    if not word.endswith(tuple(rules)):
        return word
    suffix = max((s for s in rules if word.endswith(s)), key=len)
    stem = word[: len(word) - len(suffix)]
    return stem + rules[suffix] if _form(stem).count("vc") > min_measure else word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        return _replace_suffix(word, {"eed": "ee"}, 0)
    for suffix in ("ed", "ing"):
        if word.endswith(suffix) and "v" in _form(word[: -len(suffix)]):
            word = word[: -len(suffix)]
            break
    else:
        return word
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    form = _form(word)
    if word[-1] == word[-2:-1] and form[-1] == "c" and word[-1] not in "lsz":  # *d, but not L, S or Z
        return word[:-1]
    if form.count("vc") == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and "v" in _form(word[:-1]):
        return word[:-1] + "i"
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        m = _form(word[:-1]).count("vc")
        if m > 1 or (m == 1 and not _ends_cvc(word[:-1])):
            return word[:-1]
    return word


def _step5b(word: str) -> str:
    # an l doubled is always a consonant doubled, so *d holds
    if word.endswith("ll") and _form(word).count("vc") > 1:
        return word[:-1]
    return word


def stem(word: str) -> str:
    """Stem one lowercase token.

    Non-alphabetic characters are treated as consonants, so tokens with
    digits pass through essentially unchanged.
    """
    word = _replace_suffix(word, _STEP1A, -1)
    word = _step1c(_step1b(word))
    word = _replace_suffix(word, _STEP2, 0)
    word = _replace_suffix(word, _STEP3, 0)
    if not word.endswith("ion") or word.endswith(("sion", "tion")):  # step 4's ION rule needs S or T before it
        word = _replace_suffix(word, _STEP4, 1)
    return _step5b(_step5a(word))
