"""Regenerate ``perfbench/data/lexicon.tsv``, the corpus lexicon with its
reference stems.

The lexicon is fixed (it does not depend on the benchmark seed): synthetic
roots, each with a few English suffixes chosen so that Porter rules fire.
Every stem comes from the independent Porter reference in
``tests/porter_oracle.py`` and is cross-checked against ``simthresh.porter``;
the script refuses to write a table on any disagreement. The benchmark's
retrieval checks read this table instead of calling the stemmer under test.

Run from the repository root:  PYTHONPATH=src python3 perfbench/make_lexicon.py
"""

from __future__ import annotations

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "tests"))

from gen import STOPWORDS  # noqa: E402
from porter_oracle import reference_stem  # noqa: E402

from simthresh import porter  # noqa: E402
from simthresh.textproc import default_stopwords  # noqa: E402

ROOTS = 1000
FORMS_PER_ROOT = 5
SUFFIXES = (
    "s", "es", "ed", "ing", "ings", "er", "ers", "ly", "ness", "ful", "fully",
    "ment", "ments", "ation", "ations", "ational", "ization", "iveness",
    "fulness", "ousness", "alism", "ity", "ive", "ize", "izes", "al", "ance",
    "ence", "able", "ible", "ism", "ist", "ists", "ous",
)
ONSETS = ("b", "br", "c", "cl", "d", "dr", "f", "fl", "g", "gr", "k", "l", "m",
          "n", "p", "pl", "qu", "r", "s", "st", "t", "tr", "v", "w", "z")
VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ou")
CODAS = ("b", "d", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "nd", "rt", "st", "lm")


def make_rows() -> list[tuple[int, str, str]]:
    rng = np.random.default_rng(1980)
    stopwords = default_stopwords()
    missing = [w for w in STOPWORDS if w not in stopwords]
    if missing:
        raise SystemExit(f"generator stopwords missing from the bundled list: {missing}")
    seen: set[str] = set(stopwords)
    rows: list[tuple[int, str, str]] = []
    root_id = 0
    while root_id < ROOTS:
        syllables = int(rng.integers(2, 4))
        root = "".join(
            str(rng.choice(ONSETS)) + str(rng.choice(VOWELS)) for _ in range(syllables)
        ) + str(rng.choice(CODAS))
        picks = rng.choice(len(SUFFIXES), size=FORMS_PER_ROOT - 1, replace=False)
        forms = [root] + [root + SUFFIXES[i] for i in sorted(picks)]
        if any(f in seen for f in forms):
            continue
        seen.update(forms)
        for form in forms:
            stem = reference_stem(form)
            if porter.stem(form) != stem:
                raise SystemExit(f"stemmer disagrees with the reference on {form!r}")
            rows.append((root_id, form, stem))
        root_id += 1
    return rows


def main() -> None:
    path = os.path.join(HERE, "data", "lexicon.tsv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# root_id<TAB>surface<TAB>stem; stems from tests/porter_oracle.py\n")
        for root_id, form, stem in make_rows():
            fh.write(f"{root_id}\t{form}\t{stem}\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
