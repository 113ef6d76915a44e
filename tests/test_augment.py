"""Data augmentation: lexicon files, token-wise lexicon translation,
corpus combination arithmetic, and plan execution."""

import numpy as np
import pytest

from seqtag.augment import (
    AugmentError,
    AugmentPlan,
    Lexicon,
    OfflineLexiconBackend,
    PlanSource,
    UNKNOWN_TOKEN,
    combine,
    parse_lexicon,
    parse_plan,
    run_plan,
    token_translate,
)
from seqtag.corpus import (
    CorpusError,
    ParseError,
    extract_chunks,
    parse_conll,
    write_conll,
)

from helpers import random_corpus, tiny_fixture_corpus


def fixture_lexicon():
    return Lexicon("demo", {"mehta": "meheta", "dhaka": "dhk", "the": "ta"})


class TestLexicon:
    def test_parse_and_write_round_trip(self):
        text = "alice\thanna\n# comment\n\nparis\t lutetia \n"
        assert parse_lexicon(text, name="demo") == Lexicon(
            "demo", {"alice": "hanna", "paris": "lutetia"})

    def test_entries_are_nfc_normalized_like_corpus_surfaces(self):
        # U+09DF is not NFC: normalization decomposes it into U+09AF U+09BC
        word, nfc = "\u09df", "\u09af\u09bc"
        lex = parse_lexicon(f"{word}\t{word}a\n")
        assert lex.mapping == {nfc: nfc + "a"}
        corpus = parse_conll(f"{word} B-LOC\n")
        out = token_translate(corpus, OfflineLexiconBackend(lex), fallback="mark-unknown")
        assert out.sentences[0].surfaces == (nfc + "a",)
        assert parse_conll(write_conll(out)).sentences == out.sentences

    def test_rejected_entry_reports_line_number(self):
        with pytest.raises(ParseError, match="^line 2: lexicon key 'a b' is empty"):
            parse_lexicon("x\ty\na b\tc\n")
        # a corpus file would read a token line starting with # as a comment
        with pytest.raises(ParseError, match="^line 1: lexicon value '#c' starts with '#'"):
            parse_lexicon("a\t#c\n")
        with pytest.raises(AugmentError, match="starts with '#'"):
            Lexicon("bad", {"a": "#c"})

    def test_duplicate_source_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_lexicon("a\tb\na\tc\n")

    def test_whitespace_in_entries_rejected(self):
        with pytest.raises(AugmentError):
            Lexicon("bad", {"two words": "x"})
        with pytest.raises(AugmentError):
            Lexicon("bad", {"x": "two words"})

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_lexicon("a\tb\nnotabs\n")


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
            assert after.pos == before.pos

    def test_chunks_preserved_on_random_corpora(self):
        rng = np.random.default_rng(606)
        mapping = {f"w{i}": f"t{i}" for i in range(0, 30, 2)}  # partial map
        backend = OfflineLexiconBackend(Lexicon("half", mapping))
        for trial in range(100):
            corpus = random_corpus(rng, int(rng.integers(1, 6)))
            fallback = "keep" if trial % 2 == 0 else "mark-unknown"
            out = token_translate(corpus, backend, fallback)
            for before, after in zip(corpus.sentences, out.sentences):
                assert extract_chunks(after.gold_tags) == extract_chunks(
                    before.gold_tags
                )

    @pytest.mark.parametrize("target, message", [
        ("b c", "token surface 'b c' is empty or contains whitespace"),
        ("#x", "token surface '#x' starts with '#', as an id line does"),
    ])
    def test_targets_changed_after_the_lexicon_check_are_refused(self, target, message):
        # the lexicon checked its entries when it was made, not since
        lexicon = Lexicon("demo", {"a": "y"})
        lexicon.mapping["b"] = target
        with pytest.raises(CorpusError) as info:
            token_translate(parse_conll("a O\nb O\n"), OfflineLexiconBackend(lexicon))
        assert str(info.value) == message


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

    @pytest.mark.parametrize("name, message", [
        ("a\nb", "sentence id 'a\\nb/s0' would not read back from '# <id>'"),
        (" a", "sentence id ' a/s0' would not read back from '# <id>'"),
        ("e\u0301", "sentence id 'e\u0301/s0' would not read back from '# <id>'"),
    ])
    def test_names_that_make_ids_that_would_not_read_back_are_refused(self, name, message):
        with pytest.raises(CorpusError) as info:
            combine([parse_conll("a O\n")], "out", names=[name])
        assert str(info.value) == message

    def test_name_count_must_match(self):
        corpus = random_corpus(np.random.default_rng(13), 1)
        with pytest.raises(AugmentError, match="^2 names for 1 corpora$"):
            combine([corpus], "x", names=["a", "b"])

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
        assert plan == AugmentPlan(
            [PlanSource("base", "data/base.conll"),
             PlanSource("trans", "data/base.conll", "lex.tsv", "mark-unknown", 3)],
            "combined",
        )

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
        with pytest.raises(ParseError, match="^line 2: source 'a': cap must be >= 1$"):
            parse_plan("output\tx\nsource\ta\tp\tcap=0\n")
        with pytest.raises(AugmentError, match="^plan has no sources$"):
            parse_plan("output\tx\n")
        with pytest.raises(ParseError, match="^line 2: source 'a': empty corpus path$"):
            parse_plan("output\tx\nsource\ta\t\tlexicon=l.tsv\n")
        with pytest.raises(ParseError, match="^line 2: source 'a': empty lexicon path$"):
            parse_plan("output\tx\nsource\ta\tc.conll\tlexicon=\n")
        with pytest.raises(ParseError, match="^line 2: source 'a': option 'cap' given twice$"):
            parse_plan("output\tx\nsource\ta\tp\tcap=2\tcap=3\n")
        with pytest.raises(ParseError, match="^line 2: source 'a': option 'lexicon' given twice$"):
            parse_plan("output\tx\nsource\ta\tp\tlexicon=l.tsv\tlexicon=m.tsv\n")

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
        backends = {"trans": OfflineLexiconBackend(Lexicon("l", mapping))}
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
        assert ("source trans: 6 sentences; capped to 4; translated src->tgt "
                "via offline-lexicon (fallback=mark-unknown)") in manifest.splitlines()
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
