"""Concrete ASCII syntax: lexer, recursive-descent parser and pretty printer.

Token set:  ~  /\\  \\/  &  |+|  ->  ALL x.  EX x.  INT ... dx  rat(p/q)  =

Precedence (tightest first): ~ ; & and |+| ; /\\ and \\/ ; -> (right
associative).  Quantifiers bind the longest formula to the right; '='
appears only at the top level, between two quantifier expressions.  One
table, `_OPERATORS`, gives each binary connective its symbol and tier:
precedence climbing reads it through the token kinds and the printer
reads it directly, so the two cannot disagree.

The lexer is one linear scan of the whole text in C (`_SCAN.findall`,
whose whitespace alternative `\\s+` lies outside its one group and whose
last alternative matches any single character).  It gives the parser two
parallel lists, the tokens' kinds and texts, so the first character no
token starts with is an error before parsing begins.  A `Token`, with its
offsets, line and column, is made only for an error report, by scanning
the text again up to the failing token.

Nesting is bounded by `MAX_NESTING` twice.  While parsing, every `~`,
quantifier, `INT`, parenthesis, `->` and function application opens one
level of recursion, and the level past the cap is an error at its token.
Each parse function also returns the depth of the tree it built, in which
binary connectives count and parentheses do not; a tree deeper than the
cap is an error over the whole text once the parse has reached the end.
So the recursive parser, printer and evaluator stay well inside Python's
recursion limit.

Identifier classification is driven by the vocabulary: a name declared as a
predicate/function/constant parses as such, anything else in term position
is a variable.  Without a vocabulary the parser runs in permissive mode and
infers symbol kinds from usage (applied name in formula position ->
predicate, applied name in term position -> function, bare name ->
variable), holding arities consistent across one `VocabBuilder`.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import ArityMismatch, NestedQuantEq, ParseError, UnknownSymbol, ValueOutOfRange
from .rational import unit
from .syntax import (
    APPROX_PRED,
    EQ_PRED,
    KEYWORDS,
    And,
    Atom,
    Constant,
    Exists,
    Forall,
    Formula,
    FuncApp,
    Implies,
    Integral,
    Not,
    Or,
    QuantEq,
    StrongAnd,
    StrongOr,
    Term,
    TruthConst,
    Variable,
    Vocabulary,
    free_vars,
    substitute,
)


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    column: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("span start exceeds end")

    def __str__(self):
        return f"line {self.line}, column {self.column}"


class Token(NamedTuple):
    """One lexeme, its offsets and the text it was read from.

    `line`, `column` and `span` are computed from `start` when read, which
    only error reports do.
    """

    kind: str
    text: str
    start: int
    end: int
    source: str

    @property
    def line(self) -> int:
        return self.source.count("\n", 0, self.start) + 1

    @property
    def column(self) -> int:
        return self.start - self.source.rfind("\n", 0, self.start)

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end, self.line, self.column)


# Whitespace matches outside the one group, so `findall` gives '' for it.
# The last alternative matches any other single character: a bad one.
_SCAN = re.compile(r"\s+|(/\\|\\/|\|\+\||->|[~&=(),./]|\d+|[A-Za-z_][A-Za-z0-9_]*|.)", re.DOTALL)

_KINDS = {"/\\": "WAND", "\\/": "WOR", "|+|": "SOR", "->": "ARROW", "~": "TILDE", "&": "AMP", "=": "EQUALS",
          "(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT", "/": "SLASH"}
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

# The binary connectives: symbol and tier (1 binds loosest).  Tier 1, `->`,
# associates to the right and nests; the others associate to the left.
_OPERATORS = {Implies: ("->", 1), And: ("/\\", 2), Or: ("\\/", 2), StrongAnd: ("&", 3), StrongOr: ("|+|", 3)}
_BINARY = {_KINDS[symbol]: (tier, node) for node, (symbol, tier) in _OPERATORS.items()}

MAX_NESTING = 100


def _kinds(words: Iterable[str]) -> list[str]:
    """The kind of each token `_SCAN` matched."""
    return [_KINDS.get(word) or ("IDENT" if word[0] in _IDENT_START else "NUMBER" if word.isdecimal() else "BAD")
            for word in words]


def _scan(text: str) -> tuple[list[str], list[str]]:
    """The kinds and the texts of the tokens of `text`: two parallel lists, ending with `EOF` and ''.

    The first character no token starts with raises `ParseError`, so a bad
    character anywhere wins over every error the parser could report.
    """
    texts = list(filter(None, _SCAN.findall(text)))
    kinds = _kinds(texts)
    if "BAD" in kinds:
        index = kinds.index("BAD")
        raise ParseError(f"unexpected character {texts[index]!r}", _token_at(text, index).span)
    kinds.append("EOF")
    texts.append("")
    return kinds, texts


def _tokens(text: str) -> Iterator[Token]:
    """Every token of `text` with its offsets, bad characters included, then `EOF`."""
    for match in _SCAN.finditer(text):
        word = match.group(1)
        if word is not None:
            yield Token(*_kinds([word]), word, match.start(), match.end(), text)
    yield Token("EOF", "", len(text), len(text), text)


def _token_at(text: str, index: int) -> Token:
    """The token of `text` at `index` in `_scan`'s lists, found by scanning again up to it."""
    return next(itertools.islice(_tokens(text), index, None))


def tokenize(text: str) -> list[Token]:
    """The tokens of `text` and a closing `EOF`; a bad character raises `ParseError` as in `_scan`."""
    _scan(text)
    return list(_tokens(text))


class VocabBuilder:
    """Grow a vocabulary from usage while parsing without declarations."""

    def __init__(self):
        self.predicates: dict[str, int] = {}
        self.functions: dict[str, int] = {}

    def predicate(self, name: str, arity: int, where: Callable[[], SourceSpan]) -> None:
        self._record(self.predicates, self.functions, "predicate", name, arity, where)

    def function(self, name: str, arity: int, where: Callable[[], SourceSpan]) -> None:
        self._record(self.functions, self.predicates, "function", name, arity, where)

    @staticmethod
    def _record(table, other, kind, name, arity, where):
        """Record one use of `name`; an inconsistent use is an error at the span `where()` gives."""
        if name in other:
            raise ParseError(f"{name!r} used both as predicate and function", where())
        seen = table.setdefault(name, arity)
        if seen != arity:
            raise ArityMismatch(f"{kind} {name!r} used with arities {seen} and {arity}", where())


class _Parser:
    """Recursive descent over `_scan`'s lists.

    `parse_binary`, `parse_unary`, `parse_atom`, `parse_args` and
    `parse_term` return what they built and its tree depth, counted as
    `MAX_NESTING` bounds it: every `~`, quantifier, `INT`, binary
    connective and function application is one level deeper than its
    operands, and parentheses add none.  `depth` counts the levels of the
    recursion itself, in which parentheses do count.
    """

    def __init__(self, text: str, voc: Vocabulary | None, builder: VocabBuilder | None):
        self.text = text
        self.kinds, self.texts = _scan(text)
        self.pos = 0
        self.voc = voc
        self.builder = builder
        self.depth = 0

    # -- token helpers ----------------------------------------------------

    def span(self, index: int) -> SourceSpan:
        return _token_at(self.text, index).span

    def expect(self, kind: str, what: str) -> int:
        """The index of the next token, which must be of `kind`."""
        index = self.pos
        if self.kinds[index] != kind:
            raise ParseError(f"expected {what}, found {self.texts[index] or 'end of input'!r}", self.span(index))
        self.pos = index + 1
        return index

    def nested(self, index: int, parse, *args):
        """`parse(*args)`, run one nesting level deeper than the token at `index`."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"formula nests deeper than {MAX_NESTING} levels", self.span(index))
        self.depth += 1
        result = parse(*args)
        self.depth -= 1
        return result

    # -- grammar ----------------------------------------------------------

    def parse_top(self) -> Formula:
        result, depth = self.parse_binary(1)
        if self.kinds[self.pos] == "EQUALS":
            index = self.pos
            self.pos += 1
            second, second_depth = self.parse_binary(1)
            try:
                result = QuantEq(result, second)
            except ValueError as exc:
                raise ParseError(str(exc), self.span(index)) from None
            depth = max(depth, second_depth)
        if self.kinds[self.pos] != "EOF":
            raise ParseError(f"unexpected trailing input {self.texts[self.pos]!r}", self.span(self.pos))
        if depth > MAX_NESTING:
            # chains of binary connectives nest in the tree without nesting in the parser
            raise ParseError(f"formula nests deeper than {MAX_NESTING} levels", SourceSpan(0, len(self.text), 1, 1))
        return result

    def parse_binary(self, tier: int) -> tuple[Formula, int]:
        """A formula whose binary connectives, outside parentheses, are of `tier` or tighter."""
        left, depth = self.parse_unary()
        while True:
            index = self.pos
            level, make = _BINARY.get(self.kinds[index], (0, None))
            if level < tier:
                return left, depth
            self.pos = index + 1
            if level == 1:
                right, right_depth = self.nested(index, self.parse_binary, 1)
            else:
                right, right_depth = self.parse_binary(level + 1)
            left, depth = make(left, right), max(depth, right_depth) + 1

    def parse_unary(self) -> tuple[Formula, int]:
        """`~`, a quantifier, `INT`, a parenthesised formula, a truth constant or an atom."""
        index = self.pos
        kind, text = self.kinds[index], self.texts[index]
        if kind == "IDENT":
            if text == "ALL" or text == "EX":
                self.pos = index + 1
                var = self.parse_bound_variable()
                self.expect("DOT", "'.' after the bound variable")
                body, depth = self.nested(index, self.parse_binary, 1)
                return (Forall if text == "ALL" else Exists)(var, body), depth + 1
            if text == "INT":
                self.pos = index + 1
                body, depth = self.nested(index, self.parse_binary, 1)
                close = self.expect("IDENT", "the closing 'd<var>' of the integral")
                name = self.texts[close]
                if len(name) < 2 or not name.startswith("d"):
                    raise ParseError(f"expected 'd<var>' to close the integral, found {name!r}", self.span(close))
                return Integral(name[1:], body), depth + 1
            if text == "rat":
                return self.parse_truth_const(), 0
            return self.parse_atom()
        if kind == "TILDE":
            self.pos = index + 1
            body, depth = self.nested(index, self.parse_unary)
            return Not(body), depth + 1
        if kind == "LPAREN":
            self.pos = index + 1
            inner = self.nested(index, self.parse_binary, 1)
            self.expect("RPAREN", "')'")
            return inner
        raise ParseError(f"expected a formula, found {text or 'end of input'!r}", self.span(index))

    def parse_bound_variable(self) -> str:
        index = self.expect("IDENT", "a variable name")
        name = self.texts[index]
        if name in KEYWORDS:
            raise ParseError(f"{name!r} is a keyword, not a variable", self.span(index))
        if self.voc is not None and name in self.voc.symbol_names():
            raise ParseError(f"{name!r} is a declared symbol, not a variable", self.span(index))
        return name

    def parse_integer(self, what: str) -> int:
        index = self.expect("NUMBER", f"a {what}")
        try:
            return int(self.texts[index])
        except ValueError:  # past the interpreter's limit on digits read
            raise ParseError(f"{what} has too many digits", self.span(index)) from None

    def parse_truth_const(self) -> Formula:
        start = self.pos
        self.pos += 1
        self.expect("LPAREN", "'(' after rat")
        num = self.parse_integer("numerator")
        if self.kinds[self.pos] == "SLASH":
            self.pos += 1
            den = self.parse_integer("denominator")
            if den == 0:
                raise ParseError("denominator must be nonzero", self.span(self.pos - 1))
            value = Fraction(num, den)
        else:
            value = Fraction(num)
        close = self.expect("RPAREN", "')'")
        try:
            value = unit(value)
        except ValueOutOfRange:
            first, last = self.span(start), self.span(close)
            raise ParseError(f"truth constant {value} is outside [0, 1]",
                             SourceSpan(first.start, last.end, first.line, first.column))
        return TruthConst(value)

    def parse_atom(self) -> tuple[Formula, int]:
        index = self.pos
        name = self.texts[index]
        self.pos = index + 1
        if self.kinds[self.pos] != "LPAREN":
            raise ParseError(f"expected a predicate application, found bare name {name!r}", self.span(index))
        args, depth = self.parse_args()
        if self.voc is not None:
            arity = self.voc.predicate_arity(name)
            if arity is None:
                if self.voc.function_arity(name) is not None or self.voc.is_constant(name):
                    raise ParseError(f"{name!r} is not a predicate", self.span(index))
                raise UnknownSymbol(name, span=self.span(index))
            if arity != len(args):
                raise ArityMismatch(
                    f"predicate {name!r} expects {arity} arguments, got {len(args)}", self.span(index))
        elif name in (EQ_PRED, APPROX_PRED):
            if len(args) != 2:
                raise ArityMismatch(f"predicate {name!r} expects 2 arguments, got {len(args)}", self.span(index))
        elif self.builder is not None:
            self.builder.predicate(name, len(args), lambda: self.span(index))
        return Atom(name, args), depth

    def parse_args(self) -> tuple[tuple[Term, ...], int]:
        self.expect("LPAREN", "'('")
        term, depth = self.parse_term()
        args = [term]
        while self.kinds[self.pos] == "COMMA":
            self.pos += 1
            term, term_depth = self.parse_term()
            args.append(term)
            depth = max(depth, term_depth)
        self.expect("RPAREN", "')'")
        return tuple(args), depth

    def parse_term(self) -> tuple[Term, int]:
        index = self.expect("IDENT", "a term")
        name = self.texts[index]
        if name in KEYWORDS:
            raise ParseError(f"{name!r} is a keyword, not a term", self.span(index))
        if self.kinds[self.pos] == "LPAREN":
            args, depth = self.nested(index, self.parse_args)
            if self.voc is not None:
                arity = self.voc.function_arity(name)
                if arity is None:
                    if self.voc.predicate_arity(name) is not None:
                        raise ParseError(f"predicate {name!r} cannot appear inside a term", self.span(index))
                    raise UnknownSymbol(name, span=self.span(index))
                if arity != len(args):
                    raise ArityMismatch(
                        f"function {name!r} expects {arity} arguments, got {len(args)}", self.span(index))
            elif self.builder is not None:
                self.builder.function(name, len(args), lambda: self.span(index))
            return FuncApp(name, args), depth + 1
        if self.voc is not None:
            if self.voc.is_constant(name):
                return Constant(name), 0
            if self.voc.predicate_arity(name) is not None or self.voc.function_arity(name) is not None:
                raise ParseError(f"symbol {name!r} needs arguments", self.span(index))
        return Variable(name), 0


def parse_formula(text: str, voc: Vocabulary | None = None, builder: VocabBuilder | None = None) -> Formula:
    """Parse `text` into a formula over `voc`.

    With `voc=None` the parser is permissive and classifies symbols from
    usage; pass a shared `builder` to hold arities consistent across several
    related formulas (a sentence pool, a proof script).
    """
    return _Parser(text, voc, builder).parse_top()


def close_free_names(formula: Formula) -> Formula:
    """Reinterpret the free variables of a permissively parsed formula as constants.

    Binding is explicit in the syntax, so a name that stays free across the
    whole formula can only have been meant as a constant.
    """
    out = formula
    for name in sorted(free_vars(formula)):
        out = substitute(out, name, Constant(name))
    return out


# ---------------------------------------------------------------------------
# Pretty printer

# `~` binds tighter than every binary tier
_NOT_TIER = 1 + max(tier for _, tier in _OPERATORS.values())


def _fmt_term(term: Term) -> str:
    if isinstance(term, (Variable, Constant)):
        return term.name
    args = ",".join(_fmt_term(a) for a in term.args)
    return f"{term.func}({args})"


def _fmt(phi: Formula, min_level: int = 1, open_ok: bool = True) -> str:
    if isinstance(phi, Atom):
        args = ",".join(_fmt_term(a) for a in phi.args)
        return f"{phi.pred}({args})"
    if isinstance(phi, TruthConst):
        return f"rat({phi.value})"
    if isinstance(phi, Not):
        return f"~{_fmt(phi.body, _NOT_TIER, open_ok)}"
    if type(phi) in _OPERATORS:
        symbol, tier = _OPERATORS[type(phi)]
        # `->` nests to the right and the other tiers to the left: only that side's operand may share the tier
        left_level, right_level = tier + (tier == 1), tier + (tier != 1)
        text = f"{_fmt(phi.left, left_level, False)} {symbol} {_fmt(phi.right, right_level, open_ok)}"
        return f"({text})" if tier < min_level else text
    if isinstance(phi, (Forall, Exists)):
        head = "ALL" if isinstance(phi, Forall) else "EX"
        text = f"{head} {phi.var}. {_fmt(phi.body)}"
        # an unparenthesized ALL/EX body runs to the end of its region
        return text if open_ok else f"({text})"
    if isinstance(phi, Integral):
        # the trailing d<var> closes the integral, so no parentheses needed
        return f"INT {_fmt(phi.body)} d{phi.var}"
    if isinstance(phi, QuantEq):
        raise NestedQuantEq("quantifier equality can only be printed at the top level")
    raise TypeError(f"not a formula: {phi!r}")


def print_formula(formula: Formula) -> str:
    """Canonical text for a formula; `parse_formula` inverts it exactly."""
    if isinstance(formula, QuantEq):
        return f"{_fmt(formula.left)} = {_fmt(formula.right)}"
    return _fmt(formula)
