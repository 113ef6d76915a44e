"""Corpus augmentation: token-wise translation through pluggable backends
and order-preserving corpus combination.

Translation is strictly token-by-token, which keeps tag alignment intact
by construction: sentence count, token count, gold tags, POS, and chunk
structure never change. Combination concatenates corpora, re-namespacing
sentence ids per source and taking the union of tagsets.
"""

import json
import os
from dataclasses import dataclass, replace

from .corpus import LabeledCorpus, ParseError, Sentence
from .fileio import write_atomic

__all__ = [
    "AugmentError",
    "Lexicon",
    "parse_lexicon",
    "write_lexicon",
    "TranslatorBackend",
    "OfflineLexiconBackend",
    "CachedServiceBackend",
    "token_translate",
    "combine",
    "PlanSource",
    "AugmentPlan",
    "parse_plan",
    "write_plan",
    "run_plan",
]

FALLBACK_MODES = ("keep", "mark-unknown")
UNKNOWN_TOKEN = "<unk>"


class AugmentError(ValueError):
    pass


@dataclass
class Lexicon:
    name: str
    source_lang: str
    target_lang: str
    mapping: dict

    def __post_init__(self):
        for src, tgt in self.mapping.items():
            if not src or any(ch.isspace() for ch in src):
                raise AugmentError(f"lexicon key {src!r} is empty or has whitespace")
            if not tgt or any(ch.isspace() for ch in tgt):
                raise AugmentError(f"lexicon value {tgt!r} is empty or has whitespace")


def parse_lexicon(text, name="lexicon", source_lang="src", target_lang="tgt"):
    """Parse `source_token TAB target_token` lines."""
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError("expected exactly source TAB target", lineno)
        src, tgt = fields[0].strip(), fields[1].strip()
        if src in mapping:
            raise ParseError(f"duplicate lexicon entry for {src!r}", lineno)
        mapping[src] = tgt
    return Lexicon(name, source_lang, target_lang, mapping)


def write_lexicon(lexicon):
    lines = [f"{src}\t{lexicon.mapping[src]}" for src in sorted(lexicon.mapping)]
    return "\n".join(lines) + "\n"


class TranslatorBackend:
    """Interface: translate_token returns the translation or None when the
    backend has nothing for this token."""

    kind = "abstract"
    source_lang = "src"
    target_lang = "tgt"

    def translate_token(self, token, source_lang, target_lang):
        raise NotImplementedError

    def translate_tokens(self, tokens, source_lang, target_lang):
        """``translate_token`` for each of ``tokens``, in order."""
        return [self.translate_token(t, source_lang, target_lang) for t in tokens]


class OfflineLexiconBackend(TranslatorBackend):
    kind = "offline-lexicon"

    def __init__(self, lexicon):
        self.lexicon = lexicon
        self.source_lang = lexicon.source_lang
        self.target_lang = lexicon.target_lang

    def translate_token(self, token, source_lang, target_lang):
        if (source_lang, target_lang) != (self.lexicon.source_lang, self.lexicon.target_lang):
            raise AugmentError(
                f"lexicon {self.lexicon.name!r} covers "
                f"{self.lexicon.source_lang}->{self.lexicon.target_lang}, "
                f"not {source_lang}->{target_lang}"
            )
        return self.lexicon.mapping.get(token)


class CachedServiceBackend(TranslatorBackend):
    """External translation service behind a disk cache keyed by (token,
    language pair). The service is any callable (token, src, tgt) -> str or
    None; raising from it marks the service unreachable. A cache miss with
    an unreachable service is an error, never a silent skip. The cache file
    is rewritten once per ``translate_tokens`` call that fetched anything,
    so ``token_translate`` writes it at most once per corpus."""

    kind = "external-service"

    def __init__(self, fetch, cache_dir, source_lang, target_lang):
        self.fetch = fetch
        self.cache_dir = cache_dir
        self.source_lang = source_lang
        self.target_lang = target_lang
        os.makedirs(cache_dir, exist_ok=True)
        self._cache_path = os.path.join(cache_dir, f"{source_lang}-{target_lang}.json")
        self._cache = {}
        if os.path.exists(self._cache_path):
            with open(self._cache_path, encoding="utf-8") as fh:
                self._cache = json.load(fh)

    def _persist(self):
        # atomic replace so a crash never leaves a torn cache file
        write_atomic(self._cache_path,
                     json.dumps(self._cache, sort_keys=True, ensure_ascii=False).encode("utf-8"))

    def translate_token(self, token, source_lang, target_lang):
        return self.translate_tokens([token], source_lang, target_lang)[0]

    def translate_tokens(self, tokens, source_lang, target_lang):
        """Translations of ``tokens`` in order, fetching each miss once.
        Entries fetched before the service fails are written too."""
        if (source_lang, target_lang) != (self.source_lang, self.target_lang):
            raise AugmentError(
                f"backend configured for {self.source_lang}->{self.target_lang}, "
                f"not {source_lang}->{target_lang}"
            )
        fetched = False
        try:
            for token in tokens:
                if token in self._cache:
                    continue
                try:
                    self._cache[token] = self.fetch(token, source_lang, target_lang)
                except Exception as exc:
                    raise AugmentError(
                        f"translation service unreachable and {token!r} not cached: {exc}"
                    ) from exc
                fetched = True
        finally:
            if fetched:
                self._persist()
        return [self._cache[token] for token in tokens]


def token_translate(corpus, backend, fallback="keep"):
    """Translate every token surface through ``backend``; tags, POS, ids,
    and sentence structure are untouched. Untranslatable tokens follow
    ``fallback``: kept verbatim, or replaced by the unknown marker."""
    if fallback not in FALLBACK_MODES:
        raise AugmentError(f"fallback must be one of {FALLBACK_MODES}, got {fallback!r}")
    src, tgt = backend.source_lang, backend.target_lang
    translations = iter(backend.translate_tokens(
        [tok.surface for sent in corpus.sentences for tok in sent.tokens], src, tgt
    ))
    sentences = []
    for sent in corpus.sentences:
        tokens = []
        for tok in sent.tokens:
            translated = next(translations)
            if translated is None:
                translated = tok.surface if fallback == "keep" else UNKNOWN_TOKEN
            tokens.append(replace(tok, surface=translated))
        sentences.append(Sentence(sent.id, tuple(tokens)))
    return LabeledCorpus(sentences, corpus.tagset)


def combine(corpora, output_name, names=None):
    """Concatenate corpora in order. Sentence ids become `source/id` with
    per-source namespaces; the tagset is the union. ``output_name`` is
    unused; it stays for existing callers."""
    if not corpora:
        raise AugmentError("combine needs at least one corpus")
    if names is None:
        names = [f"c{i}" for i in range(len(corpora))]
    if len(names) != len(corpora):
        raise AugmentError(f"{len(names)} names for {len(corpora)} corpora")

    tagset = corpora[0].tagset
    for corpus in corpora[1:]:
        tagset = tagset.union(corpus.tagset)
    sentences = []
    seen = set()
    for name, corpus in zip(names, corpora):
        for sent in corpus.sentences:
            new_id = f"{name}/{sent.id}"
            if new_id in seen:
                raise AugmentError(f"duplicate sentence id {new_id!r} after namespacing")
            seen.add(new_id)
            sentences.append(Sentence(new_id, sent.tokens))
    return LabeledCorpus(sentences, tagset)


@dataclass
class PlanSource:
    name: str
    path: str
    lexicon_path: str | None = None
    fallback: str = "keep"
    cap: int | None = None

    def __post_init__(self):
        if self.fallback not in FALLBACK_MODES:
            raise AugmentError(f"source {self.name!r}: bad fallback {self.fallback!r}")
        if self.cap is not None and self.cap < 1:
            raise AugmentError(f"source {self.name!r}: cap must be >= 1")


@dataclass
class AugmentPlan:
    sources: list
    output_name: str

    def __post_init__(self):
        if not self.sources:
            raise AugmentError("plan has no sources")
        names = [s.name for s in self.sources]
        if len(set(names)) != len(names):
            raise AugmentError("plan source names must be unique")


def parse_plan(text):
    """Parse a tab-separated plan file.

    Directives, one per line:
      output TAB <name>
      source TAB <name> TAB <corpus path> [TAB key=value ...]
    with optional source keys lexicon=<path>, fallback=<keep|mark-unknown>,
    cap=<n>.
    """
    output_name = None
    sources = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        directive = fields[0]
        if directive == "output":
            if len(fields) != 2:
                raise ParseError("output takes exactly one name", lineno)
            if output_name is not None:
                raise ParseError("duplicate output directive", lineno)
            output_name = fields[1]
        elif directive == "source":
            if len(fields) < 3:
                raise ParseError("source needs a name and a path", lineno)
            name, path = fields[1], fields[2]
            options = {"lexicon_path": None, "fallback": "keep", "cap": None}
            for extra in fields[3:]:
                key, sep, value = extra.partition("=")
                if not sep:
                    raise ParseError(f"malformed source option {extra!r}", lineno)
                if key == "lexicon":
                    options["lexicon_path"] = value
                elif key == "fallback":
                    options["fallback"] = value
                elif key == "cap":
                    try:
                        options["cap"] = int(value)
                    except ValueError:
                        raise ParseError(f"cap {value!r} not an integer", lineno) from None
                else:
                    raise ParseError(f"unknown source option {key!r}", lineno)
            try:
                sources.append(PlanSource(name, path, **options))
            except AugmentError as exc:
                raise ParseError(str(exc), lineno) from None
        else:
            raise ParseError(f"unknown plan directive {directive!r}", lineno)
    if output_name is None:
        raise ParseError("plan is missing the output directive")
    return AugmentPlan(sources, output_name)


def write_plan(plan):
    lines = [f"output\t{plan.output_name}"]
    for s in plan.sources:
        fields = ["source", s.name, s.path]
        if s.lexicon_path is not None:
            fields.append(f"lexicon={s.lexicon_path}")
        if s.fallback != "keep":
            fields.append(f"fallback={s.fallback}")
        if s.cap is not None:
            fields.append(f"cap={s.cap}")
        lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"


def run_plan(plan, corpora, backends=None):
    """Execute a plan over resolved corpora: per-source cap, per-source
    translation, then combination. Returns (corpus, manifest text).

    ``corpora`` maps source name -> LabeledCorpus; ``backends`` maps source
    name -> TranslatorBackend for sources with a translation step.
    """
    backends = backends or {}
    prepared = []
    manifest = [f"plan output {plan.output_name}"]
    for source in plan.sources:
        if source.name not in corpora:
            raise AugmentError(f"plan source {source.name!r} was not resolved")
        corpus = corpora[source.name]
        steps = [f"{len(corpus)} sentences"]
        if source.cap is not None and source.cap < len(corpus):
            corpus = LabeledCorpus(corpus.sentences[:source.cap], corpus.tagset)
            steps.append(f"capped to {source.cap}")
        if source.lexicon_path is not None:
            backend = backends.get(source.name)
            if backend is None:
                raise AugmentError(f"source {source.name!r} needs a translation backend")
            corpus = token_translate(corpus, backend, source.fallback)
            steps.append(
                f"translated {backend.source_lang}->{backend.target_lang} "
                f"via {backend.kind} (fallback={source.fallback})"
            )
        prepared.append(corpus)
        manifest.append(f"source {source.name}: " + "; ".join(steps))
    result = combine(prepared, plan.output_name, names=[s.name for s in plan.sources])
    manifest.append(f"combined {len(result)} sentences, {result.n_tokens} tokens")
    return result, "\n".join(manifest) + "\n"
