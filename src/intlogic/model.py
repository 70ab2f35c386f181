"""Finite weak probabilistic models with exact rational measures.

A model interprets every predicate as a total [0,1]-valued table over
tuples of universe elements, every function as a total element-valued
table and every constant as an element, and carries a probability measure
whose weights sum to exactly 1.  It stores its universe and one form of
the rest, as integers by element position (`IntegerForm`): a constant is
the position of its element.  `Fraction` and element-name dicts are built
only when they are read.  Models are immutable; all operations here
return fresh models.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    FormatError,
    IntlogicError,
    MeasureNotNormalized,
    NotSubvocabulary,
    TableIncomplete,
    UniverseTooLarge,
)
from .rational import ONE, ZERO, Ratio, format_rational, parse_ratio, unit
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
    only elements of `universe` and cover every tuple of that arity.  Every
    value is converted first, in the table's order, so the first bad value
    is the one reported.
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


def _checked_rows(what: str, table: Mapping, universe: tuple[str, ...], convert) -> tuple[list, int]:
    """The `convert`ed values of `table` in product order over `universe`, and its arity.

    `table` must pass `_checked_table`.  A dict keyed by the tuples of one
    arity >= 1, as a file's tables are, is checked by one lookup per tuple
    in product order.  When a tuple is missing or `convert` rejects a value,
    `_checked_table` finds the error to report, and it normalises a table
    keyed otherwise.  A value that is no number at all raises as `unit`
    raises it, met in product order.
    """
    first = next(iter(table), ())
    arity = len(first) if type(first) is tuple else 0
    if arity and type(table) is dict and len(table) == len(universe) ** arity:
        try:
            return list(map(convert, map(table.__getitem__, itertools.product(universe, repeat=arity)))), arity
        except (KeyError, IntlogicError):
            pass
    table, arity = _checked_table(what, table, universe, convert)
    return list(map(table.__getitem__, itertools.product(universe, repeat=arity))), arity


def _check_name(name: str, arity: int = 0) -> None:
    """Reject a reserved symbol name: of a predicate of `arity`, or of a function or constant (`arity` 0).

    A predicate may be `eq` or `approx` only when binary; no symbol may take a keyword.
    """
    if arity and name in (EQ_PRED, APPROX_PRED):
        if arity != 2:
            raise FormatError(f"the reserved predicate {name!r} must be binary")
    elif name in RESERVED_NAMES:
        raise FormatError(f"symbol name {name!r} is reserved")


# ---------------------------------------------------------------------------
# The integer form: what a model stores


class IntegerForm(NamedTuple):
    """A model's measure, tables and constants as integers by element position: all a model stores but its universe.

    Position `i` stands for `universe[i]`; no element name occurs in the
    form.  A table of arity `k` is a nested tuple with one level per
    argument, in `itertools.product(universe, repeat=k)` order (`nested`),
    so its arity is its nesting depth (`arity_of`): the value at
    `(universe[i], universe[j])` times `D` is `tables[name][i][j]`, and a
    function's rows hold the positions of its values.  `D` is a common
    denominator of every predicate value: the least one in a model the
    checking constructor builds, the grid's lcm in a generated one.
    """

    den: int  #: D, a common denominator of every predicate table value
    tables: dict[str, tuple]  #: the rows of every predicate: values times D
    m_den: int  #: M, the lcm of the measure's denominators
    weight_row: tuple[int, ...]  #: mu(m) times M, by position
    functions: dict[str, tuple]  #: the rows of every function: positions of values
    constants: dict[str, int]  #: the position of each constant's element


def arity_of(rows: tuple) -> int:
    """The arity of a table's `nested` rows: their nesting depth."""
    arity = 1
    while type(rows[0]) is tuple:
        arity, rows = arity + 1, rows[0]
    return arity


def nested(flat: Sequence, size: int, arity: int) -> tuple:
    """`flat`, in product order over `size` elements, as a nested tuple with one level per argument."""
    for _ in range(arity - 1):
        flat = zip(*[iter(flat)] * size)
    return tuple(flat)


def flattened(rows: tuple, arity: int) -> tuple:
    """The values of `nested` rows, in product order."""
    for _ in range(arity - 1):
        rows = itertools.chain.from_iterable(rows)
    return tuple(rows)


def integer_row(values: Sequence[Ratio | Fraction]) -> tuple[int, tuple[int, ...]]:
    """`(den, row)`: `den` the lcm of the values' denominators, `row` each value times `den`."""
    den = lcm(*{v.denominator for v in values})
    return den, tuple([v.numerator * (den // v.denominator) for v in values])


def integer_measure(draw: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """`(M, weight_row)` of an `IntegerForm` for the measure `n / N`, by position.

    `draw` holds the numerators `n`, not all zero, and `N` is their sum.
    With `g` the gcd of `N` and every `n`, `M` is `N / g` and the weights
    are `n / g`.  This is the one place a measure's integer form is made.
    """
    total = sum(draw)
    common = gcd(total, *draw)
    return total // common, tuple([n // common for n in draw])


def _flat(tables: dict[str, tuple]) -> dict[str, tuple[int, tuple]]:
    """`(arity, values in product order)` of each table's `nested` rows."""
    return {name: (arity_of(rows), flattened(rows, arity_of(rows))) for name, rows in tables.items()}


def _reduced(form: IntegerForm) -> IntegerForm:
    """`form` with `D` and every table value divided by their gcd.

    `D` is then the lcm of the table values' denominators, whatever common
    denominator the form was made over, as `FuzzySubset._trusted` reduces
    `den`.
    """
    tables, size = _flat(form.tables), len(form.weight_row)
    common = gcd(form.den, *itertools.chain.from_iterable(values for _, values in tables.values()))
    return form._replace(den=form.den // common, tables={name: nested([n // common for n in values], size, arity)
                                                         for name, (arity, values) in tables.items()})


_EMPTY: Mapping = MappingProxyType({})


@dataclass(frozen=True, init=False, eq=False)
class WeakProbModel:
    """A finite weak probabilistic model: its universe and its integer form, nothing else.

    The integer form (`IntegerForm`) is the one stored form of the measure,
    the tables and the constants.  `measure`, `predicates`, `functions` and
    `constants` build fresh dicts from it on every read: `Fraction` weights
    in universe order, tables keyed in product order and constants mapped
    to element names.  Changing one leaves the model as it was.  Equality
    and the hash read the form with `D` reduced (`_reduced`), so a model is
    the same whatever common denominator it was made over.

    The checking constructor `WeakProbModel(universe, measure, predicates,
    functions, constants)` checks its arguments and converts them once
    (`__post_init__`); `_trusted` takes a form as it is.
    """

    universe: tuple[str, ...]
    form: IntegerForm

    def __init__(self, universe: Sequence[str], measure: Mapping[str, Fraction],
                 predicates: Mapping[str, PredTable] = _EMPTY, functions: Mapping[str, FuncTable] = _EMPTY,
                 constants: Mapping[str, str] = _EMPTY):
        self.__post_init__(universe, measure, predicates, functions, constants)

    def __post_init__(self, universe, measure, predicates, functions, constants):
        universe = tuple(universe)
        _check_universe(universe)
        positions = dict(zip(universe, range(len(universe))))

        measure = {m: unit(w) for m, w in measure.items()}
        if measure.keys() != positions.keys():
            raise TableIncomplete("measure must assign a weight to every element")
        m_den, weight_row = integer_row([measure[m] for m in universe])
        if sum(weight_row) != m_den:
            raise MeasureNotNormalized(f"measure weights sum to {Fraction(sum(weight_row), m_den)}, expected 1")

        size, checked = len(universe), {}
        for name, table in predicates.items():
            values, arity = checked[name] = _checked_rows(f"table for {name!r}", table, universe, unit)
            _check_name(name, arity)

        funcs = {}
        for name, table in functions.items():
            values, arity = _checked_rows(f"table for {name!r}", table, universe, _element)
            if not positions.keys() >= set(values):
                keyed, _ = _checked_table(f"table for {name!r}", table, universe, _element)
                key = next(key for key, value in keyed.items() if value not in positions)
                raise FormatError(f"function {name!r} maps {key} outside the universe")
            _check_name(name)
            funcs[name] = nested(list(map(positions.__getitem__, values)), size, arity)

        consts = {}
        for cname, target in constants.items():
            if _element(target) not in positions:
                raise FormatError(f"constant {cname!r} points at unknown element {target!r}")
            _check_name(cname)
            consts[cname] = positions[target]

        den = lcm(*{v.denominator for values, _ in checked.values() for v in values})
        tables = {name: nested([v.numerator * (den // v.denominator) for v in values], size, arity)
                  for name, (values, arity) in checked.items()}
        form = IntegerForm(den, tables, *integer_measure(weight_row), funcs, consts)
        vars(self).update(universe=universe, form=form)

    @classmethod
    def _trusted(cls, universe: tuple[str, ...], form: IntegerForm) -> "WeakProbModel":
        """A model from parts that are valid by construction: no checks and no copies.

        Only for callers that built every part themselves, over a checked
        grid or from a model that is already valid.  The model shares the
        form it is given, so it must not change afterwards.
        """
        model = object.__new__(cls)
        vars(model).update(universe=universe, form=form)
        return model

    # -- the tables, built on read -------------------------------------------

    @property
    def measure(self) -> dict[str, Fraction]:
        m_den = self.form.m_den
        return {m: Fraction(w, m_den) for m, w in zip(self.universe, self.form.weight_row)}

    @property
    def predicates(self) -> dict[str, dict[tuple[str, ...], Fraction]]:
        den = self.form.den
        return self._tables(self.form.tables, lambda n: Fraction(n, den))

    @property
    def functions(self) -> dict[str, dict[tuple[str, ...], str]]:
        return self._tables(self.form.functions, self.universe.__getitem__)

    @property
    def constants(self) -> dict[str, str]:
        return {name: self.universe[i] for name, i in self.form.constants.items()}

    def _tables(self, tables: dict[str, tuple], value) -> dict:
        """Every table of `tables` as a dict from its keys, in product order, to `value` of its entries."""
        return {name: dict(zip(itertools.product(self.universe, repeat=arity), map(value, values)))
                for name, (arity, values) in _flat(tables).items()}

    # -- equality ------------------------------------------------------------

    def _key(self) -> tuple:
        """What equality and the hash read: the universe and the form with `D` reduced."""
        form = _reduced(self.form)
        return (self.universe, form.den, frozenset(form.tables.items()), form.m_den, form.weight_row,
                frozenset(form.functions.items()), frozenset(form.constants.items()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    # -- signature ---------------------------------------------------------

    def pred_arity(self, name: str) -> int:
        return arity_of(self.form.tables[name])

    def func_arity(self, name: str) -> int:
        return arity_of(self.form.functions[name])

    def vocabulary(self) -> Vocabulary:
        """The signature this model interprets; reserved names become flags."""
        form = self.form
        preds = tuple(sorted((n, arity_of(rows)) for n, rows in form.tables.items() if n not in RESERVED_NAMES))
        funcs = tuple(sorted((n, arity_of(rows)) for n, rows in form.functions.items()))
        return Vocabulary(
            preds,
            funcs,
            tuple(sorted(form.constants)),
            has_approx=APPROX_PRED in form.tables,
        )


# ---------------------------------------------------------------------------
# Measures of sets and level sets


def mu_set(model: WeakProbModel, tuples: Iterable, k: int = 1) -> Fraction:
    """Product-measure mass of a set of k-tuples (bare elements allowed at k=1)."""
    measure = model.measure
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
            if element not in measure:
                raise FormatError(f"{element!r} is not an element of the universe")
            weight *= measure[element]
        total += weight
    return total


@dataclass(frozen=True, slots=True)
class FuzzySubset:
    """A total map |M|^k -> [0,1], the semantic value of a k-ary property.

    A subset holds one form, its integer form `den`, `row`: `den` is the
    lcm of the value denominators and `row` holds each value times `den`,
    in `itertools.product(universe, repeat=arity)` order.  Equality and
    the hash read it.  The checking constructor `FuzzySubset(universe,
    table)` converts a table of values once; `_trusted` takes the integer
    form as it is.  `values`, the table of `Fraction`s, is made afresh on
    every read, so changing it leaves the subset as it was.
    """

    universe: tuple[str, ...]
    table: InitVar[Mapping[tuple[str, ...], Fraction]]
    arity: int = field(init=False)
    den: int = field(init=False)
    row: tuple[int, ...] = field(init=False)

    def __post_init__(self, table):
        universe = tuple(self.universe)
        values, arity = _checked_rows("fuzzy subset", table, universe, unit)
        den, row = integer_row(values)
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "row", row)

    @property
    def values(self) -> dict[tuple[str, ...], Fraction]:
        den = self.den
        return {key: Fraction(n, den) for key, n in zip(itertools.product(self.universe, repeat=self.arity), self.row)}

    @classmethod
    def _trusted(cls, universe: tuple[str, ...], arity: int, den: int, row: Sequence[int]) -> "FuzzySubset":
        """The subset whose value i is `row[i] / den`, in integer-form order: no checks.

        Only for callers that computed every value themselves and know it
        lies in [0, 1], with one value per tuple of `universe` of this arity.
        Dividing `den` and the row by their gcd gives the integer form.
        """
        common = gcd(den, *row)
        subset = object.__new__(cls)
        object.__setattr__(subset, "universe", universe)
        object.__setattr__(subset, "arity", arity)
        object.__setattr__(subset, "den", den // common)
        object.__setattr__(subset, "row", tuple([n // common for n in row]))
        return subset

    def is_crisp(self) -> bool:
        return self.den == 1

    @classmethod
    def constant(cls, universe: Iterable[str], value) -> "FuzzySubset":
        universe = tuple(universe)
        value = unit(value)
        return cls(universe, {(m,): value for m in universe})

    @classmethod
    def from_predicate(cls, model: WeakProbModel, name: str) -> "FuzzySubset":
        rows = model.form.tables[name]
        return cls._trusted(model.universe, arity_of(rows), model.form.den, flattened(rows, arity_of(rows)))


def level_set(subset: FuzzySubset, alpha: Fraction) -> frozenset[str]:
    """{x : f(x) > alpha}, with strict inequality."""
    if subset.arity != 1:
        raise FormatError("level sets are defined for unary fuzzy subsets")
    return frozenset(key[0] for key, value in subset.values.items() if value > alpha)


# ---------------------------------------------------------------------------
# Structure-level operations: reduct, renaming, isomorphism, relabeling.
# Each builds its model from the form of a valid one, with no checks.


def reduct(model: WeakProbModel, voc: Vocabulary) -> WeakProbModel:
    """Forget every interpretation outside `voc` (universe and measure kept)."""
    form = model.form
    tables = {}
    for name, arity in voc.predicates:
        if name not in form.tables or arity_of(form.tables[name]) != arity:
            raise NotSubvocabulary(f"model does not interpret predicate {name!r}/{arity}")
        tables[name] = form.tables[name]
    if voc.has_approx:
        if APPROX_PRED not in form.tables:
            raise NotSubvocabulary("model does not interpret 'approx'")
        tables[APPROX_PRED] = form.tables[APPROX_PRED]
    if EQ_PRED in form.tables:
        tables[EQ_PRED] = form.tables[EQ_PRED]
    functions = {}
    for name, arity in voc.functions:
        if name not in form.functions or arity_of(form.functions[name]) != arity:
            raise NotSubvocabulary(f"model does not interpret function {name!r}/{arity}")
        functions[name] = form.functions[name]
    consts = {}
    for name in voc.constants:
        if name not in form.constants:
            raise NotSubvocabulary(f"model does not interpret constant {name!r}")
        consts[name] = form.constants[name]
    # D stays a common denominator of the tables kept
    return WeakProbModel._trusted(model.universe, form._replace(tables=tables, functions=functions, constants=consts))


def rename(model: WeakProbModel, mapping: Mapping[str, str]) -> WeakProbModel:
    """Relabel symbol names through a bijective renaming (universe untouched)."""
    targets = list(mapping.values())
    if len(set(targets)) != len(targets):
        raise FormatError("renaming must be injective")
    ren = lambda n: mapping.get(n, n)
    form = model.form
    tables = {ren(n): rows for n, rows in form.tables.items()}
    functions = {ren(n): rows for n, rows in form.functions.items()}
    consts = {ren(n): i for n, i in form.constants.items()}
    if len(tables) != len(form.tables) or len(functions) != len(form.functions) or \
            len(consts) != len(form.constants):
        raise FormatError("renaming collapses two symbols")
    for name, rows in tables.items():
        _check_name(name, arity_of(rows))
    for name in (*functions, *consts):
        _check_name(name)
    return WeakProbModel._trusted(model.universe, form._replace(tables=tables, functions=functions, constants=consts))


def relabel_universe(model: WeakProbModel, mapping: Mapping[str, str]) -> WeakProbModel:
    """Transport the model along a bijection of element names (an isomorphism)."""
    if sorted(mapping) != sorted(model.universe) or len(set(mapping.values())) != len(model.universe):
        raise FormatError("relabeling must be a bijection on the universe")
    universe = tuple(mapping[m] for m in model.universe)
    _check_universe(universe)
    # every element keeps its position, so the form stays as it is
    return WeakProbModel._trusted(universe, model.form)


def relabelled(form: IntegerForm, image: Sequence[int]) -> IntegerForm:
    """`form` carried along a permutation of positions: position `image[i]` carries what position `i` carries.

    The weights and every table move with their positions, and the
    positions a function's values and a constant hold are mapped too.
    """
    source = sorted(range(len(image)), key=image.__getitem__)  # image[source[j]] == j

    def carried(rows: tuple, values: Sequence[int] | None = None) -> tuple:
        if type(rows[0]) is tuple:
            return tuple([carried(rows[i], values) for i in source])
        row = [rows[i] for i in source]
        return tuple(row if values is None else [values[n] for n in row])

    return form._replace(tables={name: carried(rows) for name, rows in form.tables.items()},
                         weight_row=carried(form.weight_row),
                         functions={name: carried(rows, image) for name, rows in form.functions.items()},
                         constants={name: image[i] for name, i in form.constants.items()})


ISOMORPHISM_MAX_UNIVERSE = 8


def _isomorphism_invariants(model: WeakProbModel) -> tuple:
    """What every relabelling of `model` keeps: the measure's values, the signature
    and each predicate's values, all as multisets, and the least `D`."""
    form = _reduced(model.form)
    return (
        form.m_den,
        sorted(form.weight_row),
        form.den,
        {name: (arity, sorted(values)) for name, (arity, values) in _flat(form.tables).items()},
        {name: arity_of(rows) for name, rows in form.functions.items()},
        set(form.constants),
    )


def isomorphic(left: WeakProbModel, right: WeakProbModel) -> bool:
    """Brute-force search for a measure-preserving isomorphism: a relabelling of `left` that is `right`."""
    size = len(left.universe)
    if size != len(right.universe):
        return False
    if size > ISOMORPHISM_MAX_UNIVERSE:
        raise UniverseTooLarge(f"isomorphism search capped at |M| <= {ISOMORPHISM_MAX_UNIVERSE}")
    if _isomorphism_invariants(left) != _isomorphism_invariants(right):
        return False
    source, target = _reduced(left.form), _reduced(right.form)
    return any(relabelled(source, image) == target for image in itertools.permutations(range(size)))


def expand_by_constants(model: WeakProbModel, elements: Iterable[str] | None = None) -> WeakProbModel:
    """Add, for each element, a constant carrying the element's own name."""
    elements = tuple(elements) if elements is not None else model.universe
    form = model.form
    positions = dict(zip(model.universe, range(len(model.universe))))
    consts = dict(form.constants)
    for element in elements:
        if element not in positions:
            raise FormatError(f"{element!r} is not an element of the universe")
        if element in RESERVED_NAMES:
            raise FormatError(f"element {element!r} cannot name a constant: the name is reserved")
        if consts.setdefault(element, positions[element]) != positions[element]:
            raise FormatError(f"constant name {element!r} is already taken")
        if element in form.tables or element in form.functions:
            raise FormatError(f"name {element!r} is already a symbol of the model")
    return WeakProbModel._trusted(model.universe, form._replace(constants=consts))


# ---------------------------------------------------------------------------
# JSON (de)serialization, shared by file loading and CLI output


def model_to_json(model: WeakProbModel) -> dict:
    return {
        "universe": list(model.universe),
        "measure": {m: format_rational(w) for m, w in model.measure.items()},
        "predicates": {
            name: {
                "arity": len(next(iter(table))),
                "table": {",".join(key): format_rational(v) for key, v in sorted(table.items())},
            }
            for name, table in sorted(model.predicates.items())
        },
        "functions": {
            name: {
                "arity": len(next(iter(table))),
                "table": {",".join(key): v for key, v in sorted(table.items())},
            }
            for name, table in sorted(model.functions.items())
        },
        "constants": dict(sorted(model.constants.items())),
    }


def _split_key(raw: str, arity: int) -> tuple[str, ...]:
    parts = tuple(map(str.strip, raw.split(",")))
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
    measure = {m: parse_ratio(w) for m, w in measure_raw.items()}

    predicates = {}
    for name, entry in _section(data, "predicates").items():
        arity, table_raw = _table_entry(name, entry)
        predicates[name] = {_split_key(k, arity): parse_ratio(v) for k, v in table_raw.items()}
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
    if type(arity) is not int or arity < 1:  # a JSON boolean is an instance of int, but no arity
        raise FormatError(f"arity of {name!r} must be a positive integer")
    if not isinstance(entry["table"], dict):
        raise FormatError(f"table of {name!r} must be an object")
    return arity, entry["table"]
