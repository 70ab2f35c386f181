"""Hajek satisfiability, quantifier-equality clauses and approximation systems.

A sentence is H-satisfied when its truth value is exactly 1.  Equality
between two quantifier expressions is decided through level sets: for each
configured pair of thresholds, the right side's level set must be contained
in the left side's, and the summed measure of the differences must be
exactly zero (on finite rational models "smaller than every epsilon"
collapses to zero).  Crisp bodies are routed through the Dirac-case check,
where the level sets degenerate to truth sets.  The compiled evaluator decides
'=' on integers and states its rule once (`evaluate._levels_agree`): `hsat` and
`hsat_qeq` run it, with explicit levels when given, and `hsat_qeq_dirac` and
`default_level_config` read the same rule on fuzzy subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    ContainmentViolated,
    FormatError,
    IntlogicError,
    NotASentence,
    NotASubuniverse,
    NotCrisp,
    SentenceNotInSystem,
)
from .evaluate import _Compiler, _interior, _levels_agree
from .integrals import _require
from .model import FuzzySubset, WeakProbModel, expand_by_constants
from .parser import print_formula
from .rational import ONE, ZERO
from .reporting import Report
from .syntax import (
    Formula,
    Not,
    QuantEq,
    free_vars,
    is_well_formed,
)


# ---------------------------------------------------------------------------
# Level configurations for quantifier equality


@dataclass(frozen=True)
class LevelConfig:
    """Thresholds in (0,1) and the index pairs (i, j) compared across them."""

    levels: tuple[Fraction, ...]
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        levels = tuple(Fraction(a) for a in self.levels)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "pairs", tuple((int(i), int(j)) for i, j in self.pairs))
        for a in levels:
            if not ZERO < a < ONE:
                raise FormatError(f"levels must lie strictly inside (0,1), got {a}")
        if list(levels) != sorted(set(levels)):
            raise FormatError("levels must be strictly ascending")
        for i, j in self.pairs:
            if not (0 <= i < len(levels) and 0 <= j < len(levels)):
                raise FormatError(f"pair ({i},{j}) indexes outside the level list")

    @classmethod
    def diagonal(cls, levels: Iterable[Fraction]) -> "LevelConfig":
        levels = tuple(levels)
        return cls(levels, tuple((i, i) for i in range(len(levels))))


def default_level_config(f: FuzzySubset, g: FuzzySubset) -> LevelConfig:
    """Diagonal pairing over the interior values attained by either matrix."""
    return LevelConfig.diagonal(_interior(f.values.values(), g.values.values(), ONE))


# ---------------------------------------------------------------------------
# Hajek satisfiability


def hsat(formula: Formula, model: WeakProbModel, cfg: LevelConfig | None = None) -> bool:
    """True when the sentence has truth value exactly 1; `cfg` sets the levels of '='."""
    free = free_vars(formula)
    if free:
        raise NotASentence(free)
    numerator, scale = _Compiler((), cfg).compile(formula)(model)
    return numerator() == scale


def hsat_qeq_dirac(f: FuzzySubset, g: FuzzySubset, model: WeakProbModel) -> bool:
    """Dirac case: both truth sets crisp, g's contained in f's, difference null.

    `f` and `g` are unary subsets over the model's universe.  The rule is the
    evaluator's own (`evaluate._levels_agree` on crisp rows).
    """
    if not f.is_crisp() or not g.is_crisp():
        raise NotCrisp("the Dirac-case check requires {0,1}-valued matrices")
    for subset in (f, g):
        _require(subset, model.universe, 1)
    return _levels_agree(f.row, g.row, model.form.weight_row, 1, None)


def hsat_qeq(
    left: Formula,
    right: Formula,
    model: WeakProbModel,
    cfg: LevelConfig | None = None,
) -> bool:
    """Level-set condition for 'Q phi(x) = Q psi(y)'; both sides are quantifier formulas.

    With no explicit config: crisp matrices go through the Dirac check,
    otherwise the diagonal pairing over the attained interior values is
    used.  Containment failures raise rather than answer False; they break
    the condition's preconditions.
    """
    numerator, scale = _Compiler((), cfg).compile(QuantEq(left, right))(model)
    return numerator() == scale


# ---------------------------------------------------------------------------
# Approximation systems


@dataclass(frozen=True)
class ApproximationSystem:
    """A finite sentence pool with an approximation relation between indices."""

    sentences: tuple[Formula, ...]
    rel: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))
        object.__setattr__(self, "rel", frozenset((int(i), int(j)) for i, j in self.rel))
        n = len(self.sentences)
        for i, j in self.rel:
            if not (0 <= i < n and 0 <= j < n):
                raise FormatError(f"relation pair ({i},{j}) indexes outside the sentence pool")

    def index_of(self, sentence: Formula) -> int:
        for i, candidate in enumerate(self.sentences):
            if candidate == sentence:
                return i
        raise SentenceNotInSystem(f"sentence not in the pool: {_name(sentence)}")

    def approximations_of(self, index: int) -> list[int]:
        return sorted(j for i, j in self.rel if i == index)

    @classmethod
    def diagonal(cls, sentences: Sequence[Formula]) -> "ApproximationSystem":
        n = len(sentences)
        return cls(tuple(sentences), frozenset((i, i) for i in range(n)))


def validate_approximation_system(
    system: ApproximationSystem,
    models: Sequence[WeakProbModel],
) -> Report:
    """Check transitivity, vocabulary closure and satisfaction monotonicity.

    Vocabulary closure and monotonicity are model-relative and are checked
    against every supplied model; each violating pair or triple becomes a
    report entry.
    """
    report = Report()
    rel = system.rel

    for i, j in sorted(rel):
        for j2, k in sorted(rel):
            if j2 != j:
                continue
            report.tally()
            if (i, k) not in rel:
                report.add("not-transitive", chain=[i, j, k])

    for m_index, model in enumerate(models):
        voc = model.vocabulary()
        for i, j in sorted(rel):
            report.tally()
            if is_well_formed(system.sentences[i], voc) and not is_well_formed(system.sentences[j], voc):
                report.add("not-language-closed", model=m_index, pair=[i, j])

        for i, j in sorted(rel):
            report.tally()
            try:
                src = hsat(system.sentences[i], model)
                dst = hsat(system.sentences[j], model)
            except ContainmentViolated as exc:
                report.add("clause-error", model=m_index, pair=[i, j], error=str(exc))
                continue
            if src and not dst:
                report.add("not-monotone", model=m_index, pair=[i, j])
    return report


def hasat(formula: Formula, model: WeakProbModel, system: ApproximationSystem) -> bool:
    """Approximate satisfaction: every approximation of the sentence is H-satisfied."""
    index = system.index_of(formula)
    return all(hsat(system.sentences[j], model) for j in system.approximations_of(index))


# ---------------------------------------------------------------------------
# Weak negation


def check_weak_negation(
    pool: Sequence[Formula],
    system: ApproximationSystem,
    models: Sequence[WeakProbModel],
) -> Report:
    """Check totality ("phi or ~phi holds") and exclusion under approximation.

    The weak negation is the syntactic `~`.  Totality fails for it at any
    intermediate truth value; the report distinguishes the two clauses so
    that expected failure patterns stay visible.
    """
    report = Report()
    for m_index, model in enumerate(models):
        for sentence in pool:
            negated = Not(sentence)
            report.tally()
            if not (hsat(sentence, model) or hsat(negated, model)):
                report.add(
                    "totality-violation",
                    model=m_index,
                    sentence=_name(sentence),
                )

            index = system.index_of(sentence)
            for j in system.approximations_of(index):
                approx_sentence = system.sentences[j]
                neg_approx = Not(approx_sentence)
                report.tally()
                try:
                    system.index_of(neg_approx)
                except SentenceNotInSystem:
                    report.add(
                        "negation-missing-from-pool",
                        model=m_index,
                        sentence=_name(approx_sentence),
                    )
                    continue
                if hasat(neg_approx, model, system) and hasat(sentence, model, system):
                    report.add(
                        "exclusion-violation",
                        model=m_index,
                        sentence=_name(sentence),
                        approximation=_name(approx_sentence),
                    )
    return report


def _name(sentence: Formula) -> str:
    try:
        return print_formula(sentence)
    except IntlogicError:
        return repr(sentence)


# ---------------------------------------------------------------------------
# Theories and elementary substructures at finite-pool scale


def theory_of(
    model: WeakProbModel,
    pool: Sequence[Formula],
    system: ApproximationSystem,
) -> set[Formula]:
    """The pool sentences the model approximately H-satisfies."""
    return {sentence for sentence in pool if hasat(sentence, model, system)}


def check_elementary_substructure(
    small: WeakProbModel,
    large: WeakProbModel,
    pool: Sequence[Formula],
    system: ApproximationSystem,
) -> bool:
    """Does `large` approximately satisfy the theory of `small` over the pool?

    Both models are expanded with constants naming every element of `small`
    first, so pool sentences may address those elements by name.
    """
    if not set(small.universe) <= set(large.universe):
        raise NotASubuniverse(
            "the first model's universe must be contained in the second's")
    small_exp = expand_by_constants(small, small.universe)
    large_exp = expand_by_constants(large, small.universe)
    theory = theory_of(small_exp, pool, system)
    return all(hasat(sentence, large_exp, system) for sentence in theory)
