"""Data augmentation: lexicon files, token-wise translation backends,
corpus combination arithmetic, and plan execution."""

import json
import os

import numpy as np
import pytest

from seqtag import augment
from seqtag.augment import (
    AugmentError,
    AugmentPlan,
    CachedServiceBackend,
    Lexicon,
    OfflineLexiconBackend,
    PlanSource,
    UNKNOWN_TOKEN,
    combine,
    parse_lexicon,
    parse_plan,
    run_plan,
    token_translate,
    write_lexicon,
    write_plan,
)
from seqtag.corpus import ParseError, extract_chunks

from helpers import random_corpus, tiny_fixture_corpus


def fixture_lexicon():
    return Lexicon("demo", "src", "tgt",
                   {"mehta": "meheta", "dhaka": "dhk", "the": "ta"})


class TestLexicon:
    def test_parse_and_write_round_trip(self):
        text = "alice\thanna\n# comment\nparis\tlutetia\n"
        lex = parse_lexicon(text)
        assert lex.mapping == {"alice": "hanna", "paris": "lutetia"}
        again = parse_lexicon(write_lexicon(lex))
        assert again.mapping == lex.mapping

    def test_duplicate_source_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_lexicon("a\tb\na\tc\n")

    def test_whitespace_in_entries_rejected(self):
        with pytest.raises(AugmentError):
            Lexicon("bad", "s", "t", {"two words": "x"})
        with pytest.raises(AugmentError):
            Lexicon("bad", "s", "t", {"x": "two words"})

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_lexicon("a\tb\nnotabs\n")


class TestOfflineBackend:
    def test_lookup_and_miss(self):
        backend = OfflineLexiconBackend(fixture_lexicon())
        assert backend.translate_token("mehta", "src", "tgt") == "meheta"
        assert backend.translate_token("unknown", "src", "tgt") is None

    def test_language_pair_checked(self):
        backend = OfflineLexiconBackend(fixture_lexicon())
        with pytest.raises(AugmentError, match="covers"):
            backend.translate_token("mehta", "src", "other")


class TestCachedServiceBackend:
    def test_fetches_once_then_serves_from_cache(self, tmp_path):
        calls = []

        def fetch(token, src, tgt):
            calls.append(token)
            return token.upper()

        backend = CachedServiceBackend(fetch, str(tmp_path), "a", "b")
        assert backend.translate_token("x", "a", "b") == "X"
        assert backend.translate_token("x", "a", "b") == "X"
        assert calls == ["x"]

    def test_cache_survives_restart(self, tmp_path):
        def fetch(token, src, tgt):
            return token[::-1]

        first = CachedServiceBackend(fetch, str(tmp_path), "a", "b")
        assert first.translate_token("abc", "a", "b") == "cba"

        def dead(token, src, tgt):
            raise ConnectionError("offline")

        second = CachedServiceBackend(dead, str(tmp_path), "a", "b")
        assert second.translate_token("abc", "a", "b") == "cba"

    def test_unreachable_and_uncached_is_an_error(self, tmp_path):
        def dead(token, src, tgt):
            raise ConnectionError("offline")

        backend = CachedServiceBackend(dead, str(tmp_path), "a", "b")
        with pytest.raises(AugmentError, match="unreachable"):
            backend.translate_token("never-seen", "a", "b")

    def test_negative_results_are_cached(self, tmp_path):
        calls = []

        def fetch(token, src, tgt):
            calls.append(token)
            return None

        backend = CachedServiceBackend(fetch, str(tmp_path), "a", "b")
        assert backend.translate_token("gap", "a", "b") is None
        assert backend.translate_token("gap", "a", "b") is None
        assert calls == ["gap"]

    def test_cache_file_is_valid_json_with_no_temp_leftovers(self, tmp_path):
        backend = CachedServiceBackend(lambda t, s, g: t, str(tmp_path), "a", "b")
        backend.translate_token("x", "a", "b")
        cache_file = tmp_path / "a-b.json"
        assert json.loads(cache_file.read_text()) == {"x": "x"}
        assert [p.name for p in tmp_path.iterdir()] == ["a-b.json"]

    def test_language_pair_checked(self, tmp_path):
        backend = CachedServiceBackend(lambda t, s, g: t, str(tmp_path), "a", "b")
        with pytest.raises(AugmentError, match="configured"):
            backend.translate_token("x", "b", "a")


@pytest.fixture()
def cache_writes(monkeypatch):
    """Paths of every cache file write the augment module makes."""
    writes = []

    def counting(path, data):
        writes.append(path)
        real_write_atomic(path, data)

    real_write_atomic = augment.write_atomic
    monkeypatch.setattr(augment, "write_atomic", counting)
    return writes


class TestCachePersistence:
    def test_one_write_per_translation_call(self, tmp_path, cache_writes):
        corpus = tiny_fixture_corpus()  # 13 tokens, 12 distinct surfaces
        backend = CachedServiceBackend(lambda t, s, g: t.upper(), str(tmp_path),
                                       "src", "tgt")
        out = token_translate(corpus, backend)
        assert out.sentences[0].surfaces[0] == "MEHTA"
        assert len(cache_writes) == 1
        surfaces = {t.surface for s in corpus.sentences for t in s.tokens}
        cached = json.loads((tmp_path / "src-tgt.json").read_text(encoding="utf-8"))
        assert cached == {w: w.upper() for w in surfaces}

    def test_no_write_when_every_token_hits(self, tmp_path, cache_writes):
        corpus = tiny_fixture_corpus()
        backend = CachedServiceBackend(lambda t, s, g: t, str(tmp_path), "src", "tgt")
        token_translate(corpus, backend)
        token_translate(corpus, backend)
        restarted = CachedServiceBackend(lambda t, s, g: t, str(tmp_path), "src", "tgt")
        token_translate(corpus, restarted)
        assert len(cache_writes) == 1

    def test_entries_fetched_before_a_failure_are_kept(self, tmp_path, cache_writes):
        corpus = tiny_fixture_corpus()
        fetched = []

        def flaky(token, src, tgt):
            if len(fetched) == 3:
                raise ConnectionError("offline")
            fetched.append(token)
            return token[::-1]

        backend = CachedServiceBackend(flaky, str(tmp_path), "src", "tgt")
        with pytest.raises(AugmentError, match="unreachable"):
            token_translate(corpus, backend)
        assert len(cache_writes) == 1
        cached = json.loads((tmp_path / "src-tgt.json").read_text(encoding="utf-8"))
        assert cached == {w: w[::-1] for w in fetched}


class TestTokenTranslate:
    def test_mapped_tokens_replaced_rest_kept(self):
        corpus = tiny_fixture_corpus()
        out = token_translate(corpus, OfflineLexiconBackend(fixture_lexicon()))
        surfaces = out.sentences[0].surfaces
        assert surfaces[0] == "meheta"  # mapped
        assert surfaces[1] == "visited"  # fallback keep
        assert surfaces[2] == "dhk"

    def test_mark_unknown_fallback(self):
        corpus = tiny_fixture_corpus()
        out = token_translate(corpus, OfflineLexiconBackend(fixture_lexicon()),
                              fallback="mark-unknown")
        assert out.sentences[0].surfaces[1] == UNKNOWN_TOKEN

    def test_bad_fallback_rejected(self):
        with pytest.raises(AugmentError, match="fallback"):
            token_translate(tiny_fixture_corpus(),
                            OfflineLexiconBackend(fixture_lexicon()),
                            fallback="drop")

    def test_structure_tags_and_pos_preserved(self):
        corpus = tiny_fixture_corpus()
        out = token_translate(corpus, OfflineLexiconBackend(fixture_lexicon()),
                              fallback="mark-unknown")
        assert len(out) == len(corpus)
        for before, after in zip(corpus.sentences, out.sentences):
            assert after.id == before.id
            assert after.gold_tags == before.gold_tags
            assert tuple(t.pos for t in after.tokens) == tuple(
                t.pos for t in before.tokens
            )

    def test_chunks_preserved_on_random_corpora(self):
        rng = np.random.default_rng(606)
        mapping = {f"w{i}": f"t{i}" for i in range(0, 30, 2)}  # partial map
        backend = OfflineLexiconBackend(Lexicon("half", "src", "tgt", mapping))
        for trial in range(100):
            corpus = random_corpus(rng, int(rng.integers(1, 6)))
            fallback = "keep" if trial % 2 == 0 else "mark-unknown"
            out = token_translate(corpus, backend, fallback)
            for before, after in zip(corpus.sentences, out.sentences):
                assert extract_chunks(after.gold_tags) == extract_chunks(
                    before.gold_tags
                )


class TestCombine:
    def test_equal_size_combination_doubles_counts(self):
        rng = np.random.default_rng(10)
        a = random_corpus(rng, 17, prefix="a")
        b = random_corpus(rng, 17, prefix="b")
        both = combine([a, b], "doubled")
        assert len(both) == 34
        assert both.n_tokens == a.n_tokens + b.n_tokens

    def test_three_way_sizes_add(self):
        rng = np.random.default_rng(11)
        parts = [random_corpus(rng, n, prefix=f"p{n}") for n in (5, 8, 2)]
        assert len(combine(parts, "sum")) == 15

    def test_ids_are_namespaced(self):
        rng = np.random.default_rng(12)
        a = random_corpus(rng, 2)
        b = random_corpus(rng, 2)  # same ids s0, s1
        both = combine([a, b], "out", names=["left", "right"])
        assert [s.id for s in both.sentences] == [
            "left/s0", "left/s1", "right/s0", "right/s1"
        ]

    def test_duplicate_names_collide(self):
        rng = np.random.default_rng(13)
        a = random_corpus(rng, 1)
        with pytest.raises(AugmentError, match="duplicate"):
            combine([a, a], "out", names=["same", "same"])

    def test_tagset_is_union(self):
        rng = np.random.default_rng(14)
        a = random_corpus(rng, 2, classes=("PER",))
        b = random_corpus(rng, 2, classes=("LOC",))
        both = combine([a, b], "out")
        assert set(both.tagset.classes) == {"PER", "LOC"}

    def test_empty_input_rejected(self):
        with pytest.raises(AugmentError, match="at least one"):
            combine([], "out")


class TestPlans:
    def plan_text(self):
        return (
            "# demo plan\n"
            "output\tcombined\n"
            "source\tbase\tdata/base.conll\n"
            "source\ttrans\tdata/base.conll\tlexicon=lex.tsv\t"
            "fallback=mark-unknown\tcap=3\n"
        )

    def test_parse_and_write_round_trip(self):
        plan = parse_plan(self.plan_text())
        assert plan.output_name == "combined"
        assert [s.name for s in plan.sources] == ["base", "trans"]
        assert plan.sources[1].lexicon_path == "lex.tsv"
        assert plan.sources[1].fallback == "mark-unknown"
        assert plan.sources[1].cap == 3
        again = parse_plan(write_plan(plan))
        assert again == plan

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="output"):
            parse_plan("source\ta\tp\n")
        with pytest.raises(ParseError, match="duplicate output"):
            parse_plan("output\tx\noutput\ty\nsource\ta\tp\n")
        with pytest.raises(ParseError, match="directive"):
            parse_plan("output\tx\nmerge\ta\tp\n")
        with pytest.raises(ParseError, match="option"):
            parse_plan("output\tx\nsource\ta\tp\tshuffle=yes\n")
        with pytest.raises(ParseError, match="cap"):
            parse_plan("output\tx\nsource\ta\tp\tcap=lots\n")
        with pytest.raises(AugmentError, match="unique"):
            parse_plan("output\tx\nsource\ta\tp\nsource\ta\tq\n")

    def test_run_plan_caps_translates_and_combines(self):
        rng = np.random.default_rng(15)
        base = random_corpus(rng, 6)
        plan = AugmentPlan(
            [
                PlanSource("base", "unused"),
                PlanSource("trans", "unused", lexicon_path="lex",
                           fallback="mark-unknown", cap=4),
            ],
            "combined",
        )
        mapping = {f"w{i}": f"x{i}" for i in range(30)}
        backends = {"trans": OfflineLexiconBackend(Lexicon("l", "src", "tgt", mapping))}
        result, manifest = run_plan(plan, {"base": base, "trans": base}, backends)
        assert len(result) == 10  # 6 + min(6, 4)
        assert result.sentences[0].id == "base/s0"
        assert result.sentences[6].id == "trans/s0"
        # capped source kept its first sentences only
        assert [s.id for s in result.sentences[6:]] == [
            f"trans/s{i}" for i in range(4)
        ]
        assert "plan output combined" in manifest
        assert "capped to 4" in manifest
        assert "translated src->tgt" in manifest
        assert "combined 10 sentences" in manifest

    def test_run_plan_missing_resolution_errors(self):
        plan = AugmentPlan([PlanSource("a", "p")], "out")
        with pytest.raises(AugmentError, match="not resolved"):
            run_plan(plan, {})
        plan2 = AugmentPlan([PlanSource("a", "p", lexicon_path="l")], "out")
        rng = np.random.default_rng(16)
        with pytest.raises(AugmentError, match="backend"):
            run_plan(plan2, {"a": random_corpus(rng, 1)})

    def test_cap_larger_than_corpus_is_a_no_op(self):
        rng = np.random.default_rng(17)
        base = random_corpus(rng, 3)
        plan = AugmentPlan([PlanSource("a", "p", cap=100)], "out")
        result, manifest = run_plan(plan, {"a": base})
        assert len(result) == 3
        assert "capped" not in manifest
