"""Finite weak probabilistic models with exact rational measures.

A model interprets every predicate as a total [0,1]-valued table over
tuples of universe elements, every function as a total element-valued
table, and carries a probability measure whose weights sum to exactly 1.
Models are treated as immutable after construction; all operations here
return fresh models.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    FormatError,
    MeasureNotNormalized,
    NotSubvocabulary,
    TableIncomplete,
    UniverseTooLarge,
)
from .rational import ONE, ZERO, format_rational, parse_rational, unit
from .syntax import APPROX_PRED, EQ_PRED, RESERVED_NAMES, Vocabulary

PredTable = Mapping[tuple[str, ...], Fraction]
FuncTable = Mapping[tuple[str, ...], str]


def _element(value) -> str:
    if not isinstance(value, str):
        raise FormatError(f"{value!r} is not an element name")
    return value


def _check_universe(universe: tuple[str, ...]) -> None:
    if not universe:
        raise FormatError("universe must be non-empty")
    if len(set(universe)) != len(universe):
        raise FormatError("universe elements must be distinct")
    for element in universe:
        # table keys join element names with ',' and strip around them
        if not isinstance(element, str) or "," in element or element != element.strip():
            raise FormatError(f"element name {element!r} must be a string without ','"
                              " and without leading or trailing whitespace")


def _checked_table(what: str, table: Mapping, universe: tuple[str, ...], convert) -> tuple[dict, int]:
    """`table` with tuple keys and `convert`ed values, and its arity.

    The keys (a bare string is a 1-tuple) must all have one arity >= 1, name
    only elements of `universe` and cover every tuple of that arity.  The
    per-key work stays in the one comprehension; the checks run over the
    result at C speed.
    """
    fixed = {(key,) if isinstance(key, str) else tuple(key): convert(value) for key, value in table.items()}
    arities = set(map(len, fixed))
    if len(arities) > 1:
        raise FormatError(f"{what} mixes key arities")
    arity = arities.pop() if arities else 0
    if arity < 1:
        raise FormatError(f"{what} must have arity >= 1")
    elements = set(universe)
    if not elements.issuperset(itertools.chain.from_iterable(fixed)):
        bad = next(key for key in fixed if not elements.issuperset(key))
        raise FormatError(f"{what} mentions unknown elements {bad}")
    if len(fixed) != len(universe) ** arity:
        raise TableIncomplete(f"{what} must cover all {len(universe)}^{arity} tuples")
    return fixed, arity


@dataclass(frozen=True)
class WeakProbModel:
    universe: tuple[str, ...]
    measure: Mapping[str, Fraction]
    predicates: Mapping[str, PredTable] = field(default_factory=dict)
    functions: Mapping[str, FuncTable] = field(default_factory=dict)
    constants: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "universe", tuple(self.universe))
        _check_universe(self.universe)
        elements = set(self.universe)

        measure = {m: unit(w) for m, w in self.measure.items()}
        if set(measure) != elements:
            raise TableIncomplete("measure must assign a weight to every element")
        total = sum(measure.values(), ZERO)
        if total != ONE:
            raise MeasureNotNormalized(f"measure weights sum to {total}, expected 1")
        object.__setattr__(self, "measure", measure)

        predicates = {}
        for name, table in self.predicates.items():
            predicates[name], arity = _checked_table(f"table for {name!r}", table, self.universe, unit)
            if name in (EQ_PRED, APPROX_PRED) and arity != 2:
                raise FormatError(f"the reserved predicate {name!r} must be binary")
        object.__setattr__(self, "predicates", predicates)

        functions = {}
        for name, table in self.functions.items():
            checked, _ = _checked_table(f"table for {name!r}", table, self.universe, _element)
            for key, value in checked.items():
                if value not in elements:
                    raise FormatError(f"function {name!r} maps {key} outside the universe")
            functions[name] = checked
        object.__setattr__(self, "functions", functions)

        constants = dict(self.constants)
        for cname, target in constants.items():
            if _element(target) not in elements:
                raise FormatError(f"constant {cname!r} points at unknown element {target!r}")
        object.__setattr__(self, "constants", constants)

    @classmethod
    def _trusted(cls, universe: tuple[str, ...], measure: dict, predicates: dict, functions: dict,
                 constants: dict, form: "IntegerForm | None" = None) -> "WeakProbModel":
        """A model from parts that are valid by construction: no checks and no copies.

        Only for callers that built every part themselves, over a checked
        grid or from a model that is already valid.  The model shares the
        dicts it is given, so they must not change afterwards.  `form`, when
        given, is the model's integer form.
        """
        model = object.__new__(cls)
        vars(model).update(universe=universe, measure=measure, predicates=predicates,
                           functions=functions, constants=constants)
        if form is not None:
            vars(model)["_integer_form"] = form
        return model

    # -- signature ---------------------------------------------------------

    def pred_arity(self, name: str) -> int:
        return len(next(iter(self.predicates[name])))

    def func_arity(self, name: str) -> int:
        return len(next(iter(self.functions[name])))

    def vocabulary(self) -> Vocabulary:
        """The signature this model interprets; reserved names become flags."""
        preds = tuple(sorted((n, self.pred_arity(n)) for n in self.predicates if n not in RESERVED_NAMES))
        funcs = tuple(sorted((n, self.func_arity(n)) for n in self.functions))
        return Vocabulary(
            preds,
            funcs,
            tuple(sorted(self.constants)),
            has_eq=True,
            has_approx=APPROX_PRED in self.predicates,
        )


# ---------------------------------------------------------------------------
# The integer form the evaluator computes on


class IntegerForm(NamedTuple):
    """A model's predicate tables and measure as integers over shared denominators."""

    den: int  #: D, a common denominator of every predicate table value
    tables: Mapping[str, Mapping[tuple[str, ...], int]]  #: predicate values times D
    m_den: int  #: M, the lcm of the measure's denominators
    weights: tuple[tuple[str, int], ...]  #: (m, mu(m) times M), in universe order


def integer_table(table: PredTable, den: int) -> dict[tuple[str, ...], int]:
    """`table`'s values times `den`, which every value's denominator must divide."""
    return {key: v.numerator * (den // v.denominator) for key, v in table.items()}


def integer_weights(universe: tuple[str, ...], measure: Mapping[str, Fraction]) -> tuple[int, tuple]:
    """`(M, weights)` of an `IntegerForm` for this measure."""
    m_den = lcm(*[w.denominator for w in measure.values()])
    return m_den, tuple((m, measure[m].numerator * (m_den // measure[m].denominator)) for m in universe)


def integer_form(model: WeakProbModel) -> IntegerForm:
    """The model's integer form, with `D` the lcm of its table denominators.

    It is computed at most once per model and kept on the model object;
    model generators may hand in a form whose `D` is their value grid's lcm.
    """
    form = vars(model).get("_integer_form")
    if form is None:
        tables = model.predicates
        den = lcm(*{v.denominator for table in tables.values() for v in table.values()})
        form = IntegerForm(den, {name: integer_table(table, den) for name, table in tables.items()},
                           *integer_weights(model.universe, model.measure))
        vars(model)["_integer_form"] = form
    return form


# ---------------------------------------------------------------------------
# Measures of sets and level sets


def mu_set(model: WeakProbModel, tuples: Iterable, k: int = 1) -> Fraction:
    """Product-measure mass of a set of k-tuples (bare elements allowed at k=1)."""
    total = ZERO
    seen = set()
    for item in tuples:
        item = (item,) if isinstance(item, str) else tuple(item)
        if len(item) != k:
            raise FormatError(f"expected {k}-tuples, found {item}")
        if item in seen:
            continue
        seen.add(item)
        weight = ONE
        for element in item:
            if element not in model.measure:
                raise FormatError(f"{element!r} is not an element of the universe")
            weight *= model.measure[element]
        total += weight
    return total


@dataclass(frozen=True)
class FuzzySubset:
    """A total map |M|^k -> [0,1], the semantic value of a k-ary property."""

    universe: tuple[str, ...]
    values: Mapping[tuple[str, ...], Fraction]

    def __post_init__(self):
        object.__setattr__(self, "universe", tuple(self.universe))
        values, arity = _checked_table("fuzzy subset", self.values, self.universe, unit)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "arity", arity)

    arity: int = field(init=False, repr=False, compare=False, default=0)

    def __call__(self, *key: str) -> Fraction:
        return self.values[key]

    def is_crisp(self) -> bool:
        return all(v == ZERO or v == ONE for v in self.values.values())

    @classmethod
    def constant(cls, universe: Iterable[str], value, arity: int = 1) -> "FuzzySubset":
        universe = tuple(universe)
        value = unit(value)
        return cls(universe, {key: value for key in itertools.product(universe, repeat=arity)})

    @classmethod
    def from_predicate(cls, model: WeakProbModel, name: str) -> "FuzzySubset":
        return cls(model.universe, dict(model.predicates[name]))


def level_set(subset: FuzzySubset, alpha: Fraction) -> frozenset[str]:
    """{x : f(x) > alpha}, with strict inequality."""
    if subset.arity != 1:
        raise FormatError("level sets are defined for unary fuzzy subsets")
    return frozenset(key[0] for key, value in subset.values.items() if value > alpha)


def truth_set(subset: FuzzySubset) -> frozenset[tuple[str, ...]]:
    """{x : f(x) = 1}, as tuples."""
    return frozenset(key for key, value in subset.values.items() if value == ONE)


# ---------------------------------------------------------------------------
# Structure-level operations: reduct, renaming, isomorphism, relabeling


def reduct(model: WeakProbModel, voc: Vocabulary) -> WeakProbModel:
    """Forget every interpretation outside `voc` (universe and measure kept)."""
    preds = {}
    for name, arity in voc.predicates:
        if name not in model.predicates or model.pred_arity(name) != arity:
            raise NotSubvocabulary(f"model does not interpret predicate {name!r}/{arity}")
        preds[name] = model.predicates[name]
    if voc.has_approx:
        if APPROX_PRED not in model.predicates:
            raise NotSubvocabulary("model does not interpret 'approx'")
        preds[APPROX_PRED] = model.predicates[APPROX_PRED]
    if EQ_PRED in model.predicates and voc.has_eq:
        preds[EQ_PRED] = model.predicates[EQ_PRED]
    funcs = {}
    for name, arity in voc.functions:
        if name not in model.functions or model.func_arity(name) != arity:
            raise NotSubvocabulary(f"model does not interpret function {name!r}/{arity}")
        funcs[name] = model.functions[name]
    consts = {}
    for name in voc.constants:
        if name not in model.constants:
            raise NotSubvocabulary(f"model does not interpret constant {name!r}")
        consts[name] = model.constants[name]
    return WeakProbModel._trusted(model.universe, model.measure, preds, funcs, consts)


def rename(model: WeakProbModel, mapping: Mapping[str, str]) -> WeakProbModel:
    """Relabel symbol names through a bijective renaming (universe untouched)."""
    targets = list(mapping.values())
    if len(set(targets)) != len(targets):
        raise FormatError("renaming must be injective")
    ren = lambda n: mapping.get(n, n)
    preds = {ren(n): t for n, t in model.predicates.items()}
    funcs = {ren(n): t for n, t in model.functions.items()}
    consts = {ren(n): e for n, e in model.constants.items()}
    if len(preds) != len(model.predicates) or len(funcs) != len(model.functions) or len(consts) != len(model.constants):
        raise FormatError("renaming collapses two symbols")
    return WeakProbModel(model.universe, model.measure, preds, funcs, consts)


def relabel_universe(model: WeakProbModel, mapping: Mapping[str, str]) -> WeakProbModel:
    """Transport the model along a bijection of element names (an isomorphism)."""
    if sorted(mapping) != sorted(model.universe) or len(set(mapping.values())) != len(model.universe):
        raise FormatError("relabeling must be a bijection on the universe")
    universe = tuple(mapping[m] for m in model.universe)
    _check_universe(universe)
    measure = {mapping[m]: w for m, w in model.measure.items()}
    preds = {
        name: {tuple(mapping[e] for e in key): v for key, v in table.items()}
        for name, table in model.predicates.items()
    }
    funcs = {
        name: {tuple(mapping[e] for e in key): mapping[v] for key, v in table.items()}
        for name, table in model.functions.items()
    }
    consts = {name: mapping[e] for name, e in model.constants.items()}
    return WeakProbModel._trusted(universe, measure, preds, funcs, consts)


def isomorphic(left: WeakProbModel, right: WeakProbModel, max_size: int = 8) -> bool:
    """Brute-force search for a measure-preserving isomorphism."""
    if len(left.universe) != len(right.universe):
        return False
    if len(left.universe) > max_size:
        raise UniverseTooLarge(f"isomorphism search capped at |M| <= {max_size}")
    if set(left.predicates) != set(right.predicates) or set(left.functions) != set(right.functions):
        return False
    if set(left.constants) != set(right.constants):
        return False
    for name in left.predicates:
        if left.pred_arity(name) != right.pred_arity(name):
            return False
    for name in left.functions:
        if left.func_arity(name) != right.func_arity(name):
            return False
    if sorted(left.measure.values()) != sorted(right.measure.values()):
        return False

    for image in itertools.permutations(right.universe):
        bij = dict(zip(left.universe, image))
        if any(left.measure[m] != right.measure[bij[m]] for m in left.universe):
            continue
        if any(right.constants[c] != bij[e] for c, e in left.constants.items()):
            continue
        ok = True
        for name, table in left.predicates.items():
            rtable = right.predicates[name]
            if any(rtable[tuple(bij[e] for e in key)] != v for key, v in table.items()):
                ok = False
                break
        if ok:
            for name, table in left.functions.items():
                rtable = right.functions[name]
                if any(rtable[tuple(bij[e] for e in key)] != bij[v] for key, v in table.items()):
                    ok = False
                    break
        if ok:
            return True
    return False


def expand_by_constants(model: WeakProbModel, elements: Iterable[str] | None = None) -> WeakProbModel:
    """Add, for each element, a constant carrying the element's own name."""
    elements = tuple(elements) if elements is not None else model.universe
    consts = dict(model.constants)
    for element in elements:
        if element not in model.universe:
            raise FormatError(f"{element!r} is not an element of the universe")
        current = consts.get(element)
        if current is not None and current != element:
            raise FormatError(f"constant name {element!r} is already taken")
        if element in model.predicates or element in model.functions:
            raise FormatError(f"name {element!r} is already a symbol of the model")
        consts[element] = element
    return WeakProbModel(model.universe, model.measure, model.predicates, model.functions, consts)


# ---------------------------------------------------------------------------
# JSON (de)serialization, shared by file loading and CLI output


def model_to_json(model: WeakProbModel) -> dict:
    return {
        "universe": list(model.universe),
        "measure": {m: format_rational(w) for m, w in model.measure.items()},
        "predicates": {
            name: {
                "arity": model.pred_arity(name),
                "table": {",".join(key): format_rational(v) for key, v in sorted(table.items())},
            }
            for name, table in sorted(model.predicates.items())
        },
        "functions": {
            name: {
                "arity": model.func_arity(name),
                "table": {",".join(key): v for key, v in sorted(table.items())},
            }
            for name, table in sorted(model.functions.items())
        },
        "constants": dict(sorted(model.constants.items())),
    }


def _split_key(raw: str, arity: int) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in raw.split(","))
    if len(parts) != arity:
        raise FormatError(f"table key {raw!r} does not have arity {arity}")
    return parts


def model_from_json(data: dict) -> WeakProbModel:
    if not isinstance(data, dict):
        raise FormatError("model file must contain a JSON object")
    try:
        universe = data["universe"]
        measure_raw = data["measure"]
    except KeyError as exc:
        raise FormatError(f"model file lacks required key {exc.args[0]!r}") from None
    if not isinstance(universe, list) or not all(isinstance(u, str) for u in universe):
        raise FormatError("'universe' must be a list of element names")
    if not isinstance(measure_raw, dict):
        raise FormatError("'measure' must map elements to 'p/q' strings")
    measure = {m: parse_rational(w) for m, w in measure_raw.items()}

    predicates = {}
    for name, entry in _section(data, "predicates").items():
        arity, table_raw = _table_entry(name, entry)
        predicates[name] = {_split_key(k, arity): parse_rational(v) for k, v in table_raw.items()}
    functions = {}
    for name, entry in _section(data, "functions").items():
        arity, table_raw = _table_entry(name, entry)
        functions[name] = {_split_key(k, arity): v for k, v in table_raw.items()}
    return WeakProbModel(tuple(universe), measure, predicates, functions, _section(data, "constants"))


def _section(data: dict, key: str) -> dict:
    section = data.get(key) or {}
    if not isinstance(section, dict):
        raise FormatError(f"{key!r} must be an object")
    return section


def _table_entry(name, entry):
    if not isinstance(entry, dict) or "arity" not in entry or "table" not in entry:
        raise FormatError(f"entry for {name!r} must be {{'arity': n, 'table': {{...}}}}")
    arity = entry["arity"]
    if not isinstance(arity, int) or arity < 1:
        raise FormatError(f"arity of {name!r} must be a positive integer")
    if not isinstance(entry["table"], dict):
        raise FormatError(f"table of {name!r} must be an object")
    return arity, entry["table"]
