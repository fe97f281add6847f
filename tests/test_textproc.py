from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from simthresh import porter, textproc
from simthresh.textproc import Pipeline, default_stopwords, load_stopwords, tokenize

from porter_oracle import reference_stem

DATA = Path(__file__).parent / "data"


class TestTokenize:
    def test_punctuation_split(self):
        assert tokenize("The U.S. economy") == ["the", "u", "s", "economy"]

    def test_empty(self):
        assert tokenize("") == []

    def test_alphanumeric_kept_whole(self):
        assert tokenize("word2vec") == ["word2vec"]

    def test_long_pure_numbers_dropped(self):
        assert tokenize("12345678901234567") == []
        assert tokenize("1234567890123456") == ["1234567890123456"]

    def test_underscore_splits(self):
        assert tokenize("big_cat") == ["big", "cat"]

    def test_total_on_arbitrary_text(self):
        for text in ("", " \t\n", "développe 123 ...!", "a-b-c", "\x00\x01"):
            out = tokenize(text)
            assert all(out)


class TestStopwords:
    def test_default_list_has_127_entries(self):
        words = default_stopwords()
        assert len(words) == 127
        assert "the" in words and "of" in words
        assert all(w == w.lower() for w in words)

    def test_load_with_comments(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nThe\nan\n\n")
        assert load_stopwords(str(path)) == {"the", "an"}


class TestPipeline:
    def test_stopword_then_stem(self):
        pipeline = Pipeline(stopwords=frozenset({"the"}))
        assert pipeline.process("the running books") == ["run", "book"]

    def test_porter_vectors(self):
        pipeline = Pipeline(stopwords=frozenset())
        assert pipeline.process("caresses ponies") == ["caress", "poni"]

    def test_all_stopwords(self):
        pipeline = Pipeline()
        assert pipeline.process("the of and") == []

    def test_no_stopword_survives(self):
        pipeline = Pipeline()
        text = "the cat and its dog are now very happy about themselves"
        processed_pre_stem = [t for t in tokenize(text) if t not in pipeline.stopwords]
        assert all(t not in pipeline.stopwords for t in processed_pre_stem)

    def test_order_and_duplicates_preserved(self):
        pipeline = Pipeline(stopwords=frozenset())
        assert pipeline.process("books books cats") == ["book", "book", "cat"]

    def test_stemming_disabled(self):
        pipeline = Pipeline(stopwords=frozenset(), stem_enabled=False)
        assert pipeline.process("running books") == ["running", "books"]

    def test_deterministic(self):
        pipeline = Pipeline()
        text = "Recurrent networks generalize surprisingly well, don't they?"
        assert pipeline.process(text) == pipeline.process(text)

    def test_from_stopword_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("books\n")
        pipeline = Pipeline(load_stopwords(str(path)))
        assert pipeline.process("books running") == ["run"]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(st.characters(whitelist_categories=("Ll", "Lu", "Nd")), min_size=1, max_size=12)
                    | st.sampled_from(["running", "ponies", "the", "caresses", "generalization", "sky"]),
                    max_size=30))
    def test_memoized_stems_equal_porter(self, words):
        pipeline = Pipeline()
        text = " ".join(words)
        want = [porter.stem(t) for t in tokenize(text) if t not in pipeline.stopwords]
        assert pipeline.process(text) == want
        assert pipeline.process(text) == want  # now served from the memo

    def test_stems_each_distinct_word_once_through_module_attribute(self, monkeypatch):
        # perfbench/traced_cli.py counts distinct words by replacing porter.stem.
        calls = []
        stem = porter.stem
        monkeypatch.setattr(porter, "stem", lambda word: calls.append(word) or stem(word))
        textproc._stem.cache_clear()
        try:
            stems = Pipeline(stopwords=frozenset()).process("cats ponies cats ponies cats")
        finally:
            textproc._stem.cache_clear()
        assert stems == ["cat", "poni", "cat", "poni", "cat"]
        assert sorted(calls) == ["cats", "ponies"]


class TestPorter:
    def test_canonical_step_examples(self):
        vectors = {
            "caresses": "caress", "ponies": "poni", "ties": "ti", "caress": "caress",
            "cats": "cat", "feed": "feed", "plastered": "plaster", "bled": "bled",
            "motoring": "motor", "sing": "sing", "hopping": "hop", "tanned": "tan",
            "falling": "fall", "hissing": "hiss", "fizzed": "fizz", "failing": "fail",
            "filing": "file", "happy": "happi", "sky": "sky", "rational": "ration",
            "roll": "roll", "controll": "control", "rate": "rate",
        }
        for word, want in vectors.items():
            assert porter.stem(word) == want, word

    def test_published_algorithm_specifics(self):
        # Short words are stemmed (no length guard) and step 2 uses ABLI->ABLE.
        assert porter.stem("as") == "a"
        assert porter.stem("conformabli") == "conform"
        assert porter.stem("possibli") == "possibli"
        assert porter.stem("geologi") == "geologi"

    def test_longest_match_blocks_shorter_rules(self):
        assert porter.stem("cement") == "cement"
        assert porter.stem("abilities") == "abil"

    def test_y_vowel_classification(self):
        # y after a consonant is a vowel; y after a vowel is a consonant, and
        # step 1c still rewrites a final y when the stem holds a vowel.
        assert porter.stem("syzygy") == "syzygi"
        assert porter.stem("toy") == "toi"
        assert porter.stem("play") == "plai"
        assert porter.stem("sky") == "sky"

    def test_idempotent_on_fixed_points(self):
        for word in ("run", "cat", "control", "gyroscop", "commun"):
            assert porter.stem(word) == word

    def test_matches_reference_on_fixture(self):
        vocab = (DATA / "porter_vocab.txt").read_text().split()
        expected = (DATA / "porter_expected.txt").read_text().split()
        assert len(vocab) == 1000
        got = [porter.stem(w) for w in vocab]
        mismatches = [(w, g, e) for w, g, e in zip(vocab, got, expected) if g != e]
        assert mismatches == []

    def test_matches_reference_on_random_strings(self, rng):
        # y-heavy stems with digits and a non-ASCII letter, then one or two suffixes
        # that sit on a step's boundary or decide a step's condition
        alphabet = "abcdefghijklmnopqrstuvwxyz" + "y" * 6 + "07é"
        suffixes = ["", "s", "sses", "ies", "ss", "eed", "ed", "ing", "ated", "bled", "izing", "ational",
                    "tional", "ization", "fulness", "biliti", "abli", "logi", "alize", "icate", "ement",
                    "ment", "ion", "sion", "tion", "ous", "e", "ll", "we", "xe", "ye", "yy", "y"]
        for _ in range(20000):
            n = int(rng.integers(0, 9))
            word = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=n))
            word += "".join(suffixes[i] for i in rng.integers(0, len(suffixes), size=int(rng.integers(1, 3))))
            assert porter.stem(word) == reference_stem(word), word

    def test_empty_and_nonalpha(self):
        assert porter.stem("") == ""
        assert porter.stem("word2vec") == "word2vec"
        assert porter.stem("x1s") == "x1"
