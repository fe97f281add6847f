import json
import logging
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simthresh import evaluation, retrieval
from simthresh.cli import main
from simthresh.embeddings import reduce_replica
from simthresh.retrieval import (
    ExpansionPolicy,
    LmConfig,
    TranslationTable,
    build_index,
    build_translation_table,
    lm_score,
    load_index,
    read_corpus,
    read_topics,
    read_run,
    save_index,
    tlm_score,
    write_run,
)
from simthresh.textproc import Pipeline

from conftest import hub_model
from retrieval_oracle import dense_rank

PLAIN = Pipeline(stopwords=frozenset(), stem_enabled=False)
TOY_DOCS = [("d1", "cat cat dog"), ("d2", "dog")]


def toy_index():
    return build_index(TOY_DOCS, PLAIN)


def postings_by_id(index, term):
    docs, tfs = index.postings(term)
    return {index.doc_ids[d]: int(n) for d, n in zip(docs, tfs)}


def lengths_by_id(index):
    return dict(zip(index.doc_ids, index.doc_lengths.tolist()))


def random_corpus(rng, n_docs, vocab_size, max_len=12):
    vocab = [f"w{i}" for i in range(vocab_size)]
    docs = {}
    for i in range(n_docs):
        length = int(rng.integers(1, max_len))
        docs[f"d{i:03d}"] = [vocab[j] for j in rng.integers(0, vocab_size, size=length)]
    return docs


class TestBuildIndex:
    def test_hand_counts(self):
        index = toy_index()
        assert postings_by_id(index, "cat") == {"d1": 2}
        assert postings_by_id(index, "dog") == {"d1": 1, "d2": 1}
        assert lengths_by_id(index) == {"d1": 3, "d2": 1}
        assert [int(index.postings(t)[1].sum()) for t in ("cat", "dog")] == [2, 2]
        assert index.collection_prob("cat") == 0.5
        assert index.total_tokens == 4
        assert index.doc_count == 2
        assert postings_by_id(index, "unseen") == {}

    def test_duplicate_doc_id(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_index([("d1", "a"), ("d1", "b")], PLAIN)

    def test_empty_corpus_scoring_error(self):
        index = build_index([], PLAIN)
        assert index.doc_count == 0
        with pytest.raises(ValueError, match="empty index"):
            lm_score(index, LmConfig(), ["cat"])

    def test_empty_document_allowed(self):
        index = build_index([("d1", "cat"), ("d2", "")], PLAIN)
        assert lengths_by_id(index) == {"d1": 1, "d2": 0}

    def test_postings_sorted_by_doc_id(self):
        index = build_index([("z", "cat"), ("a", "cat"), ("m", "cat")], PLAIN)
        assert [index.doc_ids[d] for d in index.postings("cat")[0]] == ["a", "m", "z"]

    def test_build_order_invariance(self, rng):
        docs = list(random_corpus(rng, 10, 8).items())
        a = build_index([(d, " ".join(t)) for d, t in docs], PLAIN)
        b = build_index([(d, " ".join(t)) for d, t in reversed(docs)], PLAIN)
        query = ["w0", "w3"]
        assert lm_score(a, LmConfig(), query) == lm_score(b, LmConfig(), query)

    def test_save_load_round_trip(self, tmp_path):
        index = toy_index()
        path = tmp_path / "idx.npz"
        save_index(index, str(path))
        loaded = load_index(str(path))
        for term in ("cat", "dog"):
            assert postings_by_id(loaded, term) == postings_by_id(index, term)
        assert lengths_by_id(loaded) == lengths_by_id(index)
        assert loaded.total_tokens == index.total_tokens

    def test_long_term_and_non_ascii_doc_id_round_trip(self, tmp_path):
        long_term = "x" * 5000
        index = build_index([("dóc-文", f"cat {long_term} ünï"), ("d2", "cat")], PLAIN)
        path = tmp_path / "idx.npz"
        save_index(index, str(path))
        loaded = load_index(str(path))
        assert loaded.doc_ids == ["d2", "dóc-文"]
        assert loaded.terms == index.terms == ["cat", long_term, "ünï"]
        assert postings_by_id(loaded, long_term) == {"dóc-文": 1}
        with np.load(path, allow_pickle=False) as archive:
            kinds = {name: archive[name].dtype.kind for name in archive.files}
        assert not {k for k in kinds.values() if k in "OSU"}, kinds


WORDS = st.sampled_from(["cat", "dog", "emu", "yak", "gnu"])


class TestIndexProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        corpus=st.dictionaries(
            st.text("abé文9", min_size=1, max_size=4), st.lists(WORDS, max_size=6), min_size=1, max_size=8
        ),
        query=st.lists(WORDS, min_size=1, max_size=3),
        extra=WORDS,
        data=st.data(),
    )
    def test_saved_index_and_corpus_order_leave_scores_unchanged(self, corpus, query, extra, data):
        # Empty documents are drawn too: st.lists may give an empty token list.
        assume(any(t in terms for t in query for terms in corpus.values()))
        docs = [(d, " ".join(terms)) for d, terms in corpus.items()]
        table = TranslationTable()
        for t in query:
            table.entries.setdefault(t, [(t, 0.6), (extra, 0.4)] if extra != t else [(t, 1.0)])
        index = build_index(docs, PLAIN)
        want = tlm_score(index, LmConfig(), table, query)
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "idx.npz")
            save_index(index, path)
            assert tlm_score(load_index(path), LmConfig(), table, query) == want
        shuffled = build_index(data.draw(st.permutations(docs)), PLAIN)
        assert tlm_score(shuffled, LmConfig(), table, query) == want


    @settings(max_examples=60, deadline=None)
    @given(
        corpus=st.dictionaries(st.text("abc", min_size=1, max_size=3), st.lists(WORDS, max_size=6),
                               min_size=1, max_size=8),
        query=st.lists(WORDS, min_size=1, max_size=3),
        expansion=st.lists(WORDS, max_size=3),
    )
    def test_candidates_are_the_union_of_the_postings(self, corpus, query, expansion):
        index = build_index([(d, " ".join(terms)) for d, terms in corpus.items()], PLAIN)
        query = [t for t in query if len(index.postings(t)[0])]
        assume(query)
        table = TranslationTable()
        for t in query:
            table.add(t, [(t, 1.0)] + [(e, 0.5) for e in expansion if e != t])
        ranked = tlm_score(index, LmConfig(), table, query)
        union = np.unique(np.concatenate([index.postings(e)[0] for t in query for e, _ in table.expansion(t)]))
        assert sorted(index.doc_ids.index(d) for d, _ in ranked) == union.tolist()


class TestLmScore:
    def test_hand_example(self):
        # Only d1 contains the query term, so only d1 is ranked; the smoothing
        # arithmetic for both documents is still pinned here.
        ranked = lm_score(toy_index(), LmConfig(mu=1000), ["cat"])
        assert [d for d, _ in ranked] == ["d1"]
        assert ranked[0][1] == pytest.approx(math.log(502 / 1003), abs=1e-12)
        index = toy_index()
        p_coll = index.collection_prob("cat")
        lengths = lengths_by_id(index)
        smoothed_d2 = (0 + 1000 * p_coll) / (lengths["d2"] + 1000)
        assert smoothed_d2 == pytest.approx(500 / 1001, abs=1e-15)
        smoothed_d1 = (2 + 1000 * p_coll) / (lengths["d1"] + 1000)
        assert smoothed_d1 > smoothed_d2

    def test_large_mu_limit(self):
        ranked = lm_score(toy_index(), LmConfig(mu=1e9), ["cat", "dog"])
        scores = [s for _, s in ranked]
        assert max(scores) - min(scores) < 1e-6

    def test_zero_frequency_term_dropped(self, caplog):
        with caplog.at_level(logging.WARNING):
            ranked = lm_score(toy_index(), LmConfig(), ["cat", "unseen"])
        assert "unseen" in caplog.text
        assert [d for d, _ in ranked] == ["d1"]
        assert ranked == lm_score(toy_index(), LmConfig(), ["cat"])

    def test_all_terms_dropped_is_error(self):
        with pytest.raises(ValueError, match="collection evidence"):
            lm_score(toy_index(), LmConfig(), ["unseen", "alsounseen"])

    def test_tie_break_by_doc_id(self):
        index = build_index([("b", "cat"), ("a", "cat")], PLAIN)
        ranked = lm_score(index, LmConfig(), ["cat"])
        assert [d for d, _ in ranked] == ["a", "b"]

    def test_repeated_query_terms_compound(self):
        index = toy_index()
        once = dict(lm_score(index, LmConfig(), ["cat"]))
        twice = dict(lm_score(index, LmConfig(), ["cat", "cat"]))
        for doc in once:
            assert twice[doc] == pytest.approx(2 * once[doc], abs=1e-12)


class TestTranslationTable:
    def test_self_only_when_no_neighbors(self):
        emb = hub_model({"b": 0.3})
        policy = ExpansionPolicy(mode="threshold", threshold=0.9)
        table = build_translation_table(["a"], policy, emb)
        assert table.expansion("a") == [("a", 1.0)]

    def test_normalization(self):
        emb = hub_model({"b": 0.8})
        policy = ExpansionPolicy(mode="threshold", threshold=0.5)
        table = build_translation_table(["a"], policy, emb)
        entries = dict(table.expansion("a"))
        assert entries["a"] == pytest.approx(1 / 1.8, abs=1e-9)
        assert entries["b"] == pytest.approx(0.8 / 1.8, abs=1e-9)
        assert sum(entries.values()) == pytest.approx(1.0, abs=1e-12)

    def test_threshold_above_one_equals_none(self):
        emb = hub_model({"b": 0.999})
        none = build_translation_table(["a"], ExpansionPolicy(mode="none"))
        thr = build_translation_table(
            ["a"], ExpansionPolicy(mode="threshold", threshold=1.0 + 1e-9), emb
        )
        assert none.entries == thr.entries

    def test_oov_degenerates(self):
        emb = hub_model({"b": 0.8})
        policy = ExpansionPolicy(mode="threshold", threshold=0.5)
        table = build_translation_table(["zzz"], policy, emb)
        assert table.expansion("zzz") == [("zzz", 1.0)]

    def test_knn_mode(self):
        emb = hub_model({"b": 0.9, "c": 0.7, "d": 0.2})
        table = build_translation_table(["a"], ExpansionPolicy(mode="knn", k=2), emb)
        assert [t for t, _ in table.expansion("a")] == ["a", "b", "c"]

    def test_nonpositive_similarities_excluded(self):
        emb = hub_model({"b": 0.5, "c": -0.4})
        table = build_translation_table(
            ["a"], ExpansionPolicy(mode="threshold", threshold=-1.0), emb
        )
        terms = [t for t, _ in table.expansion("a")]
        assert "c" not in terms
        probs = [p for _, p in table.expansion("a")]
        assert all(0 < p <= 1 for p in probs)
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("policy", [ExpansionPolicy(mode="none"), ExpansionPolicy(mode="threshold", threshold=0.5),
                                        ExpansionPolicy(mode="knn", k=2)], ids=["none", "threshold", "knn"])
    def test_one_expansion_rule_for_whole_and_reduced_replicas(self, policy):
        # neighbors and search both ask the policy; it ranks alike on either form of a replica
        emb = hub_model({"b": 0.9, "c": 0.7, "d": 0.2})
        expected = {"none": [], "threshold": [("b", 0.9), ("c", 0.7)], "knn": [("b", 0.9), ("c", 0.7)]}[policy.mode]
        assert policy.neighbors(emb, "a") == policy.neighbors(reduce_replica(emb, ["a"]), "a")
        assert [(t, round(s, 12)) for t, s in policy.neighbors(emb, "a")] == expected
        if policy.mode == "none":
            assert policy.neighbors(None, "a") == []
        else:
            with pytest.raises(ValueError, match=f"expansion mode '{policy.mode}' needs an embedding model"):
                build_translation_table(["a"], policy)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ExpansionPolicy(mode="threshold")
        with pytest.raises(ValueError):
            ExpansionPolicy(mode="knn", k=0)
        with pytest.raises(ValueError):
            ExpansionPolicy(mode="fuzzy")

    def test_missing_table_entry(self):
        table = build_translation_table(["cat"], ExpansionPolicy())
        with pytest.raises(KeyError, match="dog"):
            tlm_score(toy_index(), LmConfig(), table, ["cat", "dog"])


class TestTlmScore:
    def test_reduction_identity_bitwise(self, rng):
        for _ in range(10):
            docs = random_corpus(rng, 12, 10)
            index = build_index([(d, " ".join(t)) for d, t in docs.items()], PLAIN)
            vocab = sorted({t for terms in docs.values() for t in terms})
            query = [vocab[i] for i in rng.integers(0, len(vocab), size=3)]
            base = lm_score(index, LmConfig(), query)
            table = build_translation_table(query, ExpansionPolicy())
            assert table.entries == {t: [(t, 1.0)] for t in query}
            translated = tlm_score(index, LmConfig(), table, query)
            assert base == translated

    def test_expansion_scores_document_without_query_term(self):
        index = build_index([("d1", "cat"), ("d2", "feline")], PLAIN)
        table = TranslationTable()
        table.add("cat", [("cat", 1.0), ("feline", 0.8)])
        ranked = dict(tlm_score(index, LmConfig(), table, ["cat"]))
        assert "d2" in ranked
        base = dict(lm_score(index, LmConfig(), ["cat"]))
        assert "d2" not in base
        assert ranked["d2"] > float("-inf")

    def test_hand_example_two_docs(self):
        # expansion cat -> {cat: 0.5556, dog: 0.4444} over the toy index
        index = toy_index()
        table = TranslationTable()
        table.add("cat", [("cat", 1.0), ("dog", 0.8)])
        ranked = tlm_score(index, LmConfig(mu=1000), table, ["cat"])
        p_cat, p_dog = 1 / 1.8, 0.8 / 1.8
        want_d1 = math.log(p_cat * (502 / 1003) + p_dog * (501 / 1003))
        want_d2 = math.log(p_cat * (500 / 1001) + p_dog * (501 / 1001))
        scores = dict(ranked)
        assert scores["d1"] == pytest.approx(want_d1, abs=1e-12)
        assert scores["d2"] == pytest.approx(want_d2, abs=1e-12)
        assert [d for d, _ in ranked] == ["d1", "d2"]

    def test_dense_oracle_equivalence(self, rng):
        for trial in range(20):
            docs = random_corpus(rng, int(rng.integers(2, 20)), int(rng.integers(3, 30)))
            index = build_index([(d, " ".join(t)) for d, t in docs.items()], PLAIN)
            vocab = sorted({t for terms in docs.values() for t in terms})
            k = int(rng.integers(1, 4))
            query = [vocab[i] for i in rng.integers(0, len(vocab), size=k)]
            table = TranslationTable()
            for tq in query:
                extra = vocab[int(rng.integers(0, len(vocab)))]
                pairs = [(tq, 1.0)]
                if extra != tq:
                    pairs.append((extra, float(rng.uniform(0.1, 0.9))))
                table.add(tq, pairs)
            mu = float(rng.uniform(10, 2000))
            got = tlm_score(index, LmConfig(mu=mu), table, query)
            want = dense_rank(docs, mu, table.entries, query)
            assert [d for d, _ in got] == [d for d, _ in want]
            for (_, log_score), (_, linear) in zip(got, want):
                assert math.exp(log_score) == pytest.approx(linear, rel=1e-10)

    def test_added_unrelated_doc_keeps_relative_order(self, rng):
        # Equal-length candidates: collection-model dilution rescales every
        # smoothed probability the same way, so the ranking cannot move.
        # (With unequal lengths the ranking is NOT dilution-invariant.)
        length = 8
        docs = {}
        for i in range(10):
            terms = [f"w{j}" for j in rng.integers(0, 6, size=length)]
            docs[f"d{i:03d}"] = terms
        index_before = build_index([(d, " ".join(t)) for d, t in docs.items()], PLAIN)
        query = ["w0", "w1"]
        before = [d for d, _ in lm_score(index_before, LmConfig(), query)]
        docs["zzz"] = ["other"] * 40
        index_after = build_index([(d, " ".join(t)) for d, t in docs.items()], PLAIN)
        after = [d for d, _ in lm_score(index_after, LmConfig(), query) if d != "zzz"]
        assert before == after

    def test_equal_length_docs_order_immune_to_dilution(self, rng):
        # With equal document lengths the candidate ordering depends only on
        # term frequencies, so collection-model dilution cannot flip it.
        docs = {f"d{i}": ["q"] * i + ["x"] * (6 - i) for i in range(1, 6)}
        table = build_translation_table(["q"], ExpansionPolicy())
        mu = 700.0
        base = [d for d, _ in dense_rank(docs, mu, table.entries, ["q"])]
        docs_more = dict(docs)
        docs_more["filler"] = ["pad"] * 50
        diluted = [d for d, _ in dense_rank(docs_more, mu, table.entries, ["q"]) if d != "filler"]
        assert base == diluted


class TestReaders:
    def test_jsonl(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "d1", "text": "hello world"}\n{"id": "d2", "text": "bye"}\n')
        assert list(read_corpus(str(path))) == [("d1", "hello world"), ("d2", "bye")]

    def test_jsonl_integer_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": 7, "text": "alpha"}\n')
        assert list(read_corpus(str(path))) == [("7", "alpha")]

    def test_jsonl_missing_field(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "d1"}\n')
        with pytest.raises(ValueError, match="text"):
            list(read_corpus(str(path)))

    def test_trec(self, tmp_path):
        path = tmp_path / "c.trec"
        path.write_text(
            "<DOC>\n<DOCNO> FT911-1 </DOCNO>\n<HEAD>ignored</HEAD>\n"
            "<TEXT>\nFirst body\nsecond line\n</TEXT>\n</DOC>\n"
            "<DOC>\n<DOCNO>FT911-2</DOCNO>\n<TEXT>inline</TEXT>\n</DOC>\n"
        )
        docs = list(read_corpus(str(path)))
        assert docs[0][0] == "FT911-1"
        assert "First body" in docs[0][1] and "second line" in docs[0][1]
        assert "ignored" not in docs[0][1]
        assert docs[1] == ("FT911-2", "inline")

    def test_trec_unterminated(self, tmp_path):
        path = tmp_path / "c.trec"
        path.write_text("<DOC>\n<DOCNO>x</DOCNO>\n<TEXT>y</TEXT>\n")
        with pytest.raises(ValueError, match="unterminated"):
            list(read_corpus(str(path)))

    def test_trec_text_closed_at_line_end(self, tmp_path):
        path = tmp_path / "c.trec"
        path.write_text("<DOC>\n<DOCNO>t1</DOCNO>\n<TEXT>alpha\nbeta</TEXT>\n<HEAD>zulu</HEAD>\n</DOC>\n")
        assert list(read_corpus(str(path))) == [("t1", "alpha\nbeta")]

    def test_trec_unclosed_text_runs_to_the_next_section_or_doc_end(self, tmp_path):
        path = tmp_path / "c.trec"
        path.write_text("<DOC>\n<DOCNO>t1</DOCNO>\n<TEXT>\nalpha\n<TEXT>beta\n</DOC>\n")
        assert list(read_corpus(str(path))) == [("t1", "\nalpha\n\nbeta")]


    def test_topics(self, tmp_path):
        path = tmp_path / "topics.tsv"
        path.write_text("301\tinternational organized crime\n302\tpoliosis\n")
        assert read_topics(str(path)) == [
            ("301", "international organized crime"),
            ("302", "poliosis"),
        ]

    def test_topics_comment_may_be_indented(self, tmp_path):
        # An indented '#' line is a comment too: read as a topic, its id held a space and broke the run file.
        path = tmp_path / "topics.tsv"
        path.write_text("  # comment\tthreshold\n\t# tab-indented\n301\tcrime\n1\t\n")
        assert read_topics(str(path)) == [("301", "crime"), ("1", "")]

    def test_topics_malformed(self, tmp_path):
        path = tmp_path / "topics.tsv"
        path.write_text("301 no tab here\n")
        with pytest.raises(ValueError, match="TAB"):
            read_topics(str(path))


CORPUS_WORDS = st.sampled_from(["Cats", "running", "the", "dog's", "émigré", "文字", "x9", "of", "ran"])
TEXT_LAYOUTS = [  # each holds one text section; zulu, yankee and 1991 are never text
    "<TEXT>{}</TEXT>",
    "<TEXT>\n{}\n</TEXT>",
    "  <TEXT>\n\n{}\n\n  </TEXT>",
    "<TEXT>\n{}</TEXT>",
    "<TEXT>{}</TEXT><HEAD>zulu</HEAD>",
    "<TEXT>{}\n</TEXT>\n<HEAD>yankee</HEAD>",
]
HEADERS = ["", "<HEAD>zulu yankee</HEAD>", "<DATE>\n1991\n</DATE>", "<HEAD>zulu</HEAD>\n\n<DATE>1991</DATE>"]


def trec_document(doc_id: str, words: list[str], data) -> str:
    """One TREC document holding ``words`` in text sections, in a layout drawn from ``data``."""
    docno = data.draw(st.sampled_from([f"<DOCNO>{doc_id}</DOCNO>", f"<DOCNO> {doc_id} </DOCNO>",
                                       f"<DOCNO>\n{doc_id}\n</DOCNO>"]))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(words)), max_size=2)))
    sections = [words[a:b] for a, b in zip([0, *cuts], [*cuts, len(words)])]
    join = data.draw(st.sampled_from([" ", "\n", " ,\n\n"]))
    texts = [data.draw(st.sampled_from(TEXT_LAYOUTS)).format(join.join(s)) for s in sections]
    header, trailer = data.draw(st.sampled_from(HEADERS)), data.draw(st.sampled_from(HEADERS))
    parts = [header, docno, *texts, trailer] if data.draw(st.booleans()) else [header, *texts, docno, trailer]
    return "\n".join(["<DOC>", *parts, "</DOC>"])


class TestCorpusRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(
        corpus=st.dictionaries(st.text("abZ9-é文", min_size=1, max_size=4), st.lists(CORPUS_WORDS, max_size=8),
                               min_size=1, max_size=6),
        data=st.data(),
    )
    def test_both_formats_read_and_index_alike(self, corpus, data):
        pipeline = Pipeline()
        want = [(d, pipeline.process(" ".join(words))) for d, words in corpus.items()]
        gap = data.draw(st.sampled_from(["\n", "\n\n", "\n  \n"]))
        trec = gap.join(trec_document(d, words, data) for d, words in corpus.items()) + "\n"
        jsonl = gap.join(json.dumps({"id": d, "text": " ".join(words)}, ensure_ascii=data.draw(st.booleans()))
                         for d, words in corpus.items()) + "\n"
        ending, lead = data.draw(st.sampled_from(["\n", "\r\n"])), data.draw(st.sampled_from(["", "\n", " \n\n"]))
        archives = []
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in [("c.jsonl", jsonl), ("c.trec", trec)]:
                path, out = Path(tmp) / name, Path(tmp) / f"{name}.npz"
                path.write_bytes((lead + text).replace("\n", ending).encode("utf-8"))
                assert [(d, pipeline.process(t)) for d, t in read_corpus(str(path))] == want, name
                assert main(["index", "--corpus", str(path), "--out", str(out)]) == 0
                with np.load(out) as archive:
                    archives.append({k: (v.dtype, v.tolist()) for k, v in archive.items()})
        assert archives[0] == archives[1]


class TestRunIo:
    def test_round_trip(self, tmp_path):
        run = {"301": [("d2", -1.5), ("d1", -2.5)], "9": [("d9", -0.25)]}
        path = tmp_path / "run.txt"
        write_run(run, str(path), run_tag="tag1")
        lines = path.read_text().splitlines()
        assert lines[0] == "9 Q0 d9 1 -0.25 tag1"
        assert lines[1] == "301 Q0 d2 1 -1.5 tag1"
        assert lines[2] == "301 Q0 d1 2 -2.5 tag1"
        assert read_run(str(path)) == run

    def test_one_module_owns_the_run_format(self):
        assert retrieval.write_run is evaluation.write_run and retrieval.read_run is evaluation.read_run

    @pytest.mark.parametrize("run, tag, bad", [
        ({"1": [("d1", -1.0)], "2": [("d1", -1.0), ("d 2", -2.0)]}, "t", "d 2"),
        ({"1": [("d1", -1.0)], "": [("d1", -1.0)]}, "t", ""),
        ({"1 2": [("d1", -1.0)]}, "t", "1 2"),
        ({"1": [("d1", -1.0)]}, "my tag", "my tag"),
        ({"1": [("d1", -1.0)]}, "tag\n", "tag\n"),
    ], ids=["doc-id", "empty-topic-id", "topic-id", "tag", "tag-newline"])
    def test_field_a_run_cannot_hold_rejected_before_writing(self, tmp_path, run, tag, bad):
        # read_run splits each line on whitespace: such a field would not read back
        path = tmp_path / "run.txt"
        with pytest.raises(ValueError) as excinfo:
            write_run(run, str(path), run_tag=tag)
        assert str(excinfo.value) == f"run field {bad!r} is empty or holds whitespace"
        assert not path.exists()

    def test_max_docs_cap(self, tmp_path):
        run = {"1": [(f"d{i:04d}", -float(i)) for i in range(1500)]}
        path = tmp_path / "run.txt"
        write_run(run, str(path))
        loaded = read_run(str(path))
        assert len(loaded["1"]) == 1000
