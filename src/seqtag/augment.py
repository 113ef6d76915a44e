"""Corpus augmentation: token-wise translation through a lexicon and
order-preserving corpus combination.

Translation is strictly token-by-token, which keeps tag alignment intact
by construction: sentence count, token count, gold tags, POS, and chunk
structure never change. Combination concatenates corpora, re-namespacing
sentence ids per source and taking the union of tagsets.
"""

from dataclasses import dataclass

from .corpus import (
    LabeledCorpus,
    ParseError,
    _check_id,
    _check_surfaces,
    _checked_corpus,
    _checked_sentence,
    _normalize,
)

__all__ = [
    "AugmentError",
    "Lexicon",
    "parse_lexicon",
    "OfflineLexiconBackend",
    "token_translate",
    "combine",
    "PlanSource",
    "AugmentPlan",
    "parse_plan",
    "run_plan",
]

FALLBACK_MODES = ("keep", "mark-unknown")
UNKNOWN_TOKEN = "<unk>"


class AugmentError(ValueError):
    pass


def _entry_problem(src, tgt):
    """Why ``src -> tgt`` cannot be a lexicon entry, or None. A target may
    not start with ``#``: a corpus file would read its token line as a
    comment."""
    for what, token in (("key", src), ("value", tgt)):
        if token.split() != [token]:  # empty, or has whitespace
            return f"lexicon {what} {token!r} is empty or has whitespace"
    if tgt.startswith("#"):
        return f"lexicon value {tgt!r} starts with '#'"
    return None


@dataclass
class Lexicon:
    name: str
    mapping: dict

    def __post_init__(self):
        for src, tgt in self.mapping.items():
            problem = _entry_problem(src, tgt)
            if problem:
                raise AugmentError(problem)


def parse_lexicon(text, name="lexicon"):
    """Parse `source_token TAB target_token` lines; both sides are
    NFC-normalized, as corpus surfaces are."""
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        fields = raw.split("\t")
        if len(fields) != 2:
            raise ParseError("expected exactly source TAB target", lineno)
        src, tgt = (_normalize(f.strip()) for f in fields)
        problem = _entry_problem(src, tgt)
        if problem:
            raise ParseError(problem, lineno)
        if src in mapping:
            raise ParseError(f"duplicate lexicon entry for {src!r}", lineno)
        mapping[src] = tgt
    return Lexicon(name, mapping)


@dataclass(frozen=True)
class OfflineLexiconBackend:
    """The translator ``token_translate`` runs: a lookup in ``lexicon``."""

    lexicon: Lexicon


def token_translate(corpus, backend, fallback="keep"):
    """Translate every token surface through ``backend``'s lexicon; tags,
    POS, ids, and sentence structure are untouched. Tokens the lexicon
    lacks follow ``fallback``: kept verbatim, or replaced by the unknown
    marker. Only the new surfaces are checked: a lexicon's mapping can
    change after it was checked."""
    if fallback not in FALLBACK_MODES:
        raise AugmentError(f"fallback must be one of {FALLBACK_MODES}, got {fallback!r}")
    mapping = backend.lexicon.mapping
    keep = fallback == "keep"
    sentences = []
    for sent in corpus.sentences:
        surfaces = tuple([mapping.get(s, s if keep else UNKNOWN_TOKEN) for s in sent.surfaces])
        _check_surfaces(surfaces)
        sentences.append(
            _checked_sentence(sent.id, surfaces, sent.gold_tags, sent.pos, sent.extras))
    return _checked_corpus(sentences, corpus.tagset)


def combine(corpora, output_name, names=None):
    """Concatenate corpora in order. Sentence ids become `source/id` with
    per-source namespaces, checked to read back; the tagset is the union.
    ``output_name`` is unused; it stays for existing callers."""
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
            _check_id(new_id)
            sentences.append(
                _checked_sentence(new_id, sent.surfaces, sent.gold_tags, sent.pos, sent.extras))
    return _checked_corpus(sentences, tagset)


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
            if not path:
                raise ParseError(f"source {name!r}: empty corpus path", lineno)
            options = {"lexicon_path": None, "fallback": "keep", "cap": None}
            given = set()
            for extra in fields[3:]:
                key, sep, value = extra.partition("=")
                if not sep:
                    raise ParseError(f"malformed source option {extra!r}", lineno)
                if key in given:
                    raise ParseError(f"source {name!r}: option {key!r} given twice", lineno)
                given.add(key)
                if key == "lexicon":
                    if not value:
                        raise ParseError(f"source {name!r}: empty lexicon path", lineno)
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


def run_plan(plan, corpora, backends=None):
    """Execute a plan over resolved corpora: per-source cap, per-source
    translation, then combination. Returns (corpus, manifest text).

    ``corpora`` maps source name -> LabeledCorpus; ``backends`` maps source
    name -> OfflineLexiconBackend for sources with a translation step.
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
            steps.append(f"translated src->tgt via offline-lexicon (fallback={source.fallback})")
        prepared.append(corpus)
        manifest.append(f"source {source.name}: " + "; ".join(steps))
    result = combine(prepared, plan.output_name, names=[s.name for s in plan.sources])
    manifest.append(f"combined {len(result)} sentences, {result.n_tokens} tokens")
    return result, "\n".join(manifest) + "\n"
