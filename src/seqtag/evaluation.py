"""Chunk-level precision/recall/F1 scoring with macro averages.

A predicted chunk counts as a true positive only when its (class, start,
end) triple exactly matches a gold chunk; there is no partial credit.
Empty denominators score 0 rather than raising, and macro averages run
over every class that appears in the gold or the predicted chunks.
"""

from dataclasses import dataclass

from .corpus import CorpusError, _bio_tags, _scan_chunks

__all__ = ["ClassMetrics", "EvalReport", "evaluate"]


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int  # gold chunks of this class


@dataclass(frozen=True)
class EvalReport:
    per_class: dict[str, ClassMetrics]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    token_accuracy: float
    n_tokens: int

    def render_table(self):
        names = sorted(self.per_class)
        width = max([len(n) for n in names] + [len("class"), len("macro")])
        head = f"{'class':<{width}}  {'prec':>7}  {'rec':>7}  {'f1':>7}  {'support':>7}"
        lines = [head, "-" * len(head)]
        for name in names:
            m = self.per_class[name]
            lines.append(
                f"{name:<{width}}  {m.precision:>7.4f}  {m.recall:>7.4f}  "
                f"{m.f1:>7.4f}  {m.support:>7d}"
            )
        lines.append("-" * len(head))
        lines.append(
            f"{'macro':<{width}}  {self.macro_precision:>7.4f}  "
            f"{self.macro_recall:>7.4f}  {self.macro_f1:>7.4f}  {'':>7}"
        )
        lines.append(f"token accuracy: {self.token_accuracy:.4f} over {self.n_tokens} tokens")
        return "\n".join(lines)

    def render_kv(self):
        lines = []
        for name in sorted(self.per_class):
            m = self.per_class[name]
            lines.append(f"precision.{name} = {m.precision:.6f}")
            lines.append(f"recall.{name} = {m.recall:.6f}")
            lines.append(f"f1.{name} = {m.f1:.6f}")
            lines.append(f"support.{name} = {m.support}")
        lines.append(f"macro_precision = {self.macro_precision:.6f}")
        lines.append(f"macro_recall = {self.macro_recall:.6f}")
        lines.append(f"macro_f1 = {self.macro_f1:.6f}")
        lines.append(f"token_accuracy = {self.token_accuracy:.6f}")
        lines.append(f"n_tokens = {self.n_tokens}")
        return "\n".join(lines)


def _safe_div(num, den):
    return num / den if den else 0.0


def evaluate(gold, predicted):
    """Score ``predicted`` tag sequences against a gold corpus.

    ``predicted`` is one label list per sentence, aligned to
    ``gold.sentences`` in order and in length.
    """
    if len(predicted) != len(gold.sentences):
        raise CorpusError(
            f"prediction count {len(predicted)} != sentence count {len(gold.sentences)}"
        )
    tp = {}
    n_gold = {}
    n_pred = {}
    correct_tokens = 0
    total_tokens = 0
    tags_seen = set()
    for sent, pred_tags in zip(gold.sentences, predicted):
        if len(pred_tags) != len(sent):
            raise CorpusError(
                f"sentence {sent.id!r}: {len(pred_tags)} predicted tags for "
                f"{len(sent)} tokens"
            )
        try:
            _bio_tags("invalid BIO tag {!r}", pred_tags, tags_seen)
        except CorpusError as fault:
            raise CorpusError(f"sentence {sent.id!r}: {fault}") from None
        gold_tags = sent.gold_tags
        total_tokens += len(sent)
        correct_tokens += sum(g == p for g, p in zip(gold_tags, pred_tags))
        # gold tags are a Sentence's and the predictions were checked above
        gold_chunks = set(_scan_chunks(gold_tags))
        pred_chunks = set(_scan_chunks(pred_tags))
        for c in gold_chunks:
            n_gold[c.cls] = n_gold.get(c.cls, 0) + 1
        for c in pred_chunks:
            n_pred[c.cls] = n_pred.get(c.cls, 0) + 1
        for c in gold_chunks & pred_chunks:
            tp[c.cls] = tp.get(c.cls, 0) + 1

    classes = sorted(set(n_gold) | set(n_pred))
    per_class = {}
    for cls in classes:
        t = tp.get(cls, 0)
        p = _safe_div(t, n_pred.get(cls, 0))
        r = _safe_div(t, n_gold.get(cls, 0))
        f = _safe_div(2 * p * r, p + r)
        per_class[cls] = ClassMetrics(p, r, f, n_gold.get(cls, 0))

    k = len(classes)
    return EvalReport(
        per_class=per_class,
        macro_precision=_safe_div(sum(m.precision for m in per_class.values()), k),
        macro_recall=_safe_div(sum(m.recall for m in per_class.values()), k),
        macro_f1=_safe_div(sum(m.f1 for m in per_class.values()), k),
        token_accuracy=_safe_div(correct_tokens, total_tokens),
        n_tokens=total_tokens,
    )
