import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import intlogic as il
from intlogic import errors
from intlogic.parser import (
    MAX_NESTING,
    SourceSpan,
    VocabBuilder,
    _scan,
    _tokens,
    close_free_names,
    parse_formula,
    print_formula,
    tokenize,
)
from intlogic.syntax import (
    And,
    Atom,
    Constant,
    Exists,
    Forall,
    FuncApp,
    Implies,
    Integral,
    Not,
    Or,
    QuantEq,
    StrongAnd,
    StrongOr,
    TruthConst,
    Variable,
    Vocabulary,
)

import gen
import oracle

VOC = Vocabulary(
    predicates=(("P", 1), ("Q", 1), ("Phi", 1), ("R", 2)),
    functions=(("f", 1),),
    constants=("c",),
    has_approx=True,
)

P_x = Atom("P", (Variable("x"),))


class TestParseExamples:
    def test_integral(self):
        assert parse_formula("INT P(x) dx", VOC) == Integral("x", P_x)

    def test_quantifier_equality(self):
        parsed = parse_formula("INT P(x) dx = INT Q(y) dy", VOC)
        assert parsed == QuantEq(
            Integral("x", P_x),
            Integral("y", Atom("Q", (Variable("y"),))),
        )

    def test_arithmetic_on_formulas_rejected(self):
        with pytest.raises(errors.ParseError):
            parse_formula("P(x) + Q(x)", VOC)

    def test_nested_integral_is_well_formed(self):
        parsed = parse_formula("INT (INT ~P(x) |+| Q(y) dx) dy", VOC)
        assert parsed == Integral("y", Integral("x", StrongOr(Not(P_x), Atom("Q", (Variable("y"),)))))

    def test_equality_between_plain_formulas_rejected(self):
        with pytest.raises(errors.ParseError):
            parse_formula("P(x) = Q(x)", VOC)

    def test_forall_equality(self):
        parsed = parse_formula("ALL x. P(x) = ALL y. Q(y)", VOC)
        assert isinstance(parsed, QuantEq)
        assert isinstance(parsed.left, Forall)


class TestPrintExamples:
    def test_negation(self):
        assert print_formula(Not(P_x)) == "~P(x)"

    def test_truth_constant_implication(self):
        formula = Implies(TruthConst(Fraction(1, 2)), Atom("P", (Constant("c"),)))
        assert print_formula(formula) == "rat(1/2) -> P(c)"

    def test_forall(self):
        assert print_formula(Forall("x", P_x)) == "ALL x. P(x)"

    def test_quantifier_equality(self):
        formula = QuantEq(
            Integral("x", P_x),
            Integral("y", Atom("Q", (Variable("y"),))),
        )
        assert print_formula(formula) == "INT P(x) dx = INT Q(y) dy"


class TestPrecedence:
    def test_implication_right_associative(self):
        parsed = parse_formula("P(x) -> Q(x) -> R(x,y)", VOC)
        assert parsed == Implies(P_x, Implies(Atom("Q", (Variable("x"),)),
                                              Atom("R", (Variable("x"), Variable("y")))))

    def test_negation_binds_tightest(self):
        parsed = parse_formula("~P(x) /\\ Q(x)", VOC)
        assert parsed == And(Not(P_x), Atom("Q", (Variable("x"),)))

    def test_strong_tighter_than_weak(self):
        parsed = parse_formula("P(x) & Q(x) \\/ R(x,y)", VOC)
        assert parsed == Or(StrongAnd(P_x, Atom("Q", (Variable("x"),))),
                            Atom("R", (Variable("x"), Variable("y"))))

    def test_weak_tighter_than_implication(self):
        parsed = parse_formula("P(x) /\\ Q(x) -> R(x,y)", VOC)
        assert parsed == Implies(And(P_x, Atom("Q", (Variable("x"),))),
                                 Atom("R", (Variable("x"), Variable("y"))))

    def test_quantifier_takes_longest_formula(self):
        parsed = parse_formula("ALL x. P(x) -> Q(x)", VOC)
        assert parsed == Forall("x", Implies(P_x, Atom("Q", (Variable("x"),))))

    def test_same_tier_left_associative(self):
        parsed = parse_formula("P(x) \\/ Q(x) /\\ P(x)", VOC)
        assert parsed == And(Or(P_x, Atom("Q", (Variable("x"),))), P_x)


class TestErrors:
    def test_unknown_symbol_with_span(self):
        with pytest.raises(errors.UnknownSymbol) as excinfo:
            parse_formula("Zap(x)", VOC)
        assert excinfo.value.span is not None
        assert excinfo.value.span.column == 1

    def test_arity_mismatch(self):
        with pytest.raises(errors.ArityMismatch):
            parse_formula("R(x)", VOC)

    def test_every_parse_error_has_a_span(self):
        for text in ["", "P(", "P(x", "ALL . P(x)", "INT P(x)", "INT P(x) d",
                     "P(x) ->", "rat(3/2)", "~", "P(x))", "rat(1/0)"]:
            with pytest.raises((errors.ParseError, errors.UnknownSymbol, errors.ArityMismatch)) as excinfo:
                parse_formula(text, VOC)
            assert getattr(excinfo.value, "span", None) is not None

    def test_span_line_and_column(self):
        with pytest.raises(errors.ParseError) as excinfo:
            parse_formula("P(x) /\\\n  +Q(x)", VOC)
        assert excinfo.value.span.line == 2

    def test_predicate_inside_term_rejected(self):
        with pytest.raises(errors.ParseError):
            parse_formula("P(Q(x))", VOC)

    def test_declared_symbol_cannot_be_bound(self):
        with pytest.raises(errors.ParseError):
            parse_formula("ALL c. P(c)", VOC)


# One row per error site of the parser: input, mode, and the exact error.
# "voc" parses over VOC, "permissive" with a fresh VocabBuilder.
ERROR_SPANS = [
    ("P(c) /\\ Q(c)\n\t\t+Q(c)", "voc",
     errors.ParseError, "unexpected character '+'", (15, 16, 2, 3)),
    ("P(f(x)) \\/ f(c)", "permissive",
     errors.ParseError, "'f' used both as predicate and function", (11, 12, 1, 12)),
    ("P(x) & P(x, y)", "permissive",
     errors.ArityMismatch, "predicate 'P' used with arities 1 and 2", (7, 8, 1, 8)),
    ("P(f(x)) &\n\tP(f(x, y))", "permissive",
     errors.ArityMismatch, "function 'f' used with arities 1 and 2", (13, 14, 2, 4)),
    ("P(c)\n\t& Q(c", "voc",
     errors.ParseError, "expected ')', found 'end of input'", (11, 11, 2, 7)),
    ("ALL x P(x)", "voc",
     errors.ParseError, "expected '.' after the bound variable, found 'P'", (6, 7, 1, 7)),
    ("", "voc",
     errors.ParseError, "expected a formula, found 'end of input'", (0, 0, 1, 1)),
    ("P(c) ->\n", "voc",
     errors.ParseError, "expected a formula, found 'end of input'", (8, 8, 2, 1)),
    ("P(c) &\n\t~", "voc",
     errors.ParseError, "expected a formula, found 'end of input'", (9, 9, 2, 3)),
    ("P(c) & )", "voc",
     errors.ParseError, "expected a formula, found ')'", (7, 8, 1, 8)),
    ("~" * (MAX_NESTING + 1) + "P(c)", "voc",
     errors.ParseError, f"formula nests deeper than {MAX_NESTING} levels",
     (MAX_NESTING, MAX_NESTING + 1, 1, MAX_NESTING + 1)),
    ("P(c) & " * (MAX_NESTING + 1) + "P(c)", "voc",
     errors.ParseError, f"formula nests deeper than {MAX_NESTING} levels",
     (0, 7 * (MAX_NESTING + 1) + 4, 1, 1)),
    ("P(c) = Q(c)", "voc",
     errors.ParseError, "'=' may only relate quantifier expressions", (5, 6, 1, 6)),
    ("P(c) P(c)", "voc",
     errors.ParseError, "unexpected trailing input 'P'", (5, 6, 1, 6)),
    ("INT P(x) x", "voc",
     errors.ParseError, "expected 'd<var>' to close the integral, found 'x'", (9, 10, 1, 10)),
    ("INT P(x) d", "voc",
     errors.ParseError, "expected 'd<var>' to close the integral, found 'd'", (9, 10, 1, 10)),
    ("ALL INT. P(c)", "voc",
     errors.ParseError, "'INT' is a keyword, not a variable", (4, 7, 1, 5)),
    ("EX c. P(c)", "voc",
     errors.ParseError, "'c' is a declared symbol, not a variable", (3, 4, 1, 4)),
    ("rat(1/0)", "voc",
     errors.ParseError, "denominator must be nonzero", (6, 7, 1, 7)),
    ("P(c) /\\\n  rat(7 / 3)", "voc",
     errors.ParseError, "truth constant 7/3 is outside [0, 1]", (10, 20, 2, 3)),
    ("rat(3)", "voc",
     errors.ParseError, "truth constant 3 is outside [0, 1]", (0, 6, 1, 1)),
    ("P(c) & Q", "voc",
     errors.ParseError, "expected a predicate application, found bare name 'Q'", (7, 8, 1, 8)),
    ("f(c)", "voc",
     errors.ParseError, "'f' is not a predicate", (0, 1, 1, 1)),
    ("Zap(x)", "voc",
     errors.UnknownSymbol, "unknown symbol 'Zap'", (0, 3, 1, 1)),
    ("R(c)", "voc",
     errors.ArityMismatch, "predicate 'R' expects 2 arguments, got 1", (0, 1, 1, 1)),
    ("eq(x)", "permissive",
     errors.ArityMismatch, "predicate 'eq' expects 2 arguments, got 1", (0, 2, 1, 1)),
    ("P(rat)", "voc",
     errors.ParseError, "'rat' is a keyword, not a term", (2, 5, 1, 3)),
    ("P(Q(c))", "voc",
     errors.ParseError, "predicate 'Q' cannot appear inside a term", (2, 3, 1, 3)),
    ("P(g(c))", "voc",
     errors.UnknownSymbol, "unknown symbol 'g'", (2, 3, 1, 3)),
    ("P(f(c, c))", "voc",
     errors.ArityMismatch, "function 'f' expects 1 arguments, got 2", (2, 3, 1, 3)),
    ("P(R)", "voc",
     errors.ParseError, "symbol 'R' needs arguments", (2, 3, 1, 3)),
    # a bad character anywhere wins over an earlier parse error or nesting-cap error
    ("P(x))) $", "voc",
     errors.ParseError, "unexpected character '$'", (7, 8, 1, 8)),
    ("~" * 200 + "P(c) $", "voc",
     errors.ParseError, "unexpected character '$'", (205, 206, 1, 206)),
    # past the interpreter's limit on the digits `int` reads
    ("rat(" + "0" * 5000 + "1)", "voc",
     errors.ParseError, "numerator has too many digits", (4, 5005, 1, 5)),
    ("rat(1/" + "9" * 5000 + ")", "voc",
     errors.ParseError, "denominator has too many digits", (6, 5006, 1, 7)),
]


@pytest.mark.parametrize("text, mode, kind, message, where", ERROR_SPANS)
def test_error_type_message_and_span(text, mode, kind, message, where):
    voc, builder = (VOC, None) if mode == "voc" else (None, VocabBuilder())
    with pytest.raises(Exception) as excinfo:
        parse_formula(text, voc, builder)
    assert type(excinfo.value) is kind
    assert str(excinfo.value) == message
    assert excinfo.value.span == SourceSpan(*where)


@pytest.mark.parametrize("text, message, where", [
    ("a" * 20000 + "$", "unexpected character '$'", (20000, 20001, 1, 20001)),
    ("12" * 10000 + "$", "unexpected character '$'", (20000, 20001, 1, 20001)),
    ("~" * 3000 + "P(c)", f"formula nests deeper than {MAX_NESTING} levels",
     (MAX_NESTING, MAX_NESTING + 1, 1, MAX_NESTING + 1)),
    (" " * 200000 + "$", "unexpected character '$'", (200000, 200001, 1, 200001)),
    # a valid formula: no message, and it parses
    ("P(c)" + " " * 200000, None, None),
])
def test_long_input_is_rejected_in_linear_time(text, message, where):
    # a whole-text match of `(?:token)*` backtracks exponentially on a run of letters
    # or digits before a bad character, and a scan for `\s*(token)` is quadratic in a
    # run of spaces; one scan of the text with `\s+` as its own match is neither
    started = time.perf_counter()
    if message is None:
        assert parse_formula(text, VOC) == Atom("P", (Constant("c"),))
    else:
        with pytest.raises(errors.ParseError) as excinfo:
            parse_formula(text, VOC)
        assert str(excinfo.value) == message and excinfo.value.span == SourceSpan(*where)
    assert time.perf_counter() - started < 5


_PIECES = ["ALL", "EX", "INT", "rat", "P", "dx", "x_1", "0", "12", "~", "/\\", "\\/", "&", "|+|",
           "->", "=", "(", ")", ",", ".", "/", " ", "\t", "\n", "\r\n", "\n\n\t "]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=30))
def test_tokens_locate_their_text(pieces):
    text = "".join(pieces)
    tokens = tokenize(text)
    assert tokens[-1].kind == "EOF" and tokens[-1].start == len(text)
    for tok in tokens:
        assert text[tok.start:tok.end] == tok.text
        line_start = text.rfind("\n", 0, tok.start) + 1
        assert (tok.line, tok.column) == (text.count("\n", 0, tok.start) + 1, tok.start - line_start + 1)
        assert tok.span == SourceSpan(tok.start, tok.end, tok.line, tok.column)


# `_PIECES` with bad characters, non-ASCII digits and letters, and runs of whitespace
_SCAN_PIECES = [*_PIECES, "|", "-", "\\", "$", "\u0663", "\u00e9", "\r\n", "  \t ", " \u00a0\u2003"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_SCAN_PIECES), max_size=30))
def test_scan_agrees_with_the_reference_lexer(pieces):
    text = "".join(pieces)
    expected = oracle.tokens(text)
    assert [tok[:4] for tok in _tokens(text)] == expected
    bad = [tok for tok in expected if tok[0] == "BAD"]
    if bad:
        with pytest.raises(errors.ParseError) as excinfo:
            _scan(text)
        _, word, start, end = bad[0]
        assert str(excinfo.value) == f"unexpected character {word!r}"
        assert (excinfo.value.span.start, excinfo.value.span.end) == (start, end)
    else:
        kinds, texts = _scan(text)
        assert list(zip(kinds, texts)) == [(kind, word) for kind, word, _, _ in expected]


def _spine(rng: random.Random, depth: int):
    """A formula over `gen.VOC` whose tree is `depth` deep along one path, from every binder and connective."""
    applications = rng.randint(0, min(depth, 3))
    term = Constant("c")
    for _ in range(applications):
        term = FuncApp("f", (term,))
    formula = Atom("P", (term,))
    for _ in range(depth - applications):
        kind = rng.choice((Not, Forall, Exists, Integral, And, Or, StrongAnd, StrongOr, Implies))
        if kind is Not:
            formula = Not(formula)
        elif kind in (Forall, Exists, Integral):
            formula = kind(rng.choice(gen.VAR_POOL), formula)
        else:
            leaf = rng.choice((Atom("Q", (Constant("d"),)), TruthConst(Fraction(1, 2))))
            formula = kind(formula, leaf) if rng.random() < 0.5 else kind(leaf, formula)
    if rng.random() < 0.2:
        formula = QuantEq(Integral("x", formula), Integral("y", Atom("Q", (Variable("y"),))))
    return formula


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=MAX_NESTING - 6, max_value=MAX_NESTING + 4))
def test_depth_error_fires_exactly_past_the_cap(seed, depth):
    formula = _spine(random.Random(seed), depth)
    text = print_formula(formula)
    if oracle.tree_depth(formula) > MAX_NESTING:
        with pytest.raises(errors.ParseError, match=f"^formula nests deeper than {MAX_NESTING} levels$"):
            parse_formula(text, gen.VOC)
    else:
        assert parse_formula(text, gen.VOC) == formula


class TestPermissiveMode:
    def test_infers_kinds_from_usage(self):
        builder = VocabBuilder()
        parsed = parse_formula("Big(f(x), y)", None, builder)
        assert parsed == Atom("Big", (il.FuncApp("f", (Variable("x"),)), Variable("y")))
        assert builder.predicates == {"Big": 2}
        assert builder.functions == {"f": 1}

    def test_arity_held_consistent_across_builder(self):
        builder = VocabBuilder()
        parse_formula("P(x)", None, builder)
        with pytest.raises(errors.ArityMismatch):
            parse_formula("P(x, y)", None, builder)

    def test_close_free_names(self):
        parsed = close_free_names(parse_formula("P(k) \\/ ~P(k)", None))
        assert il.free_vars(parsed) == frozenset()
        assert parsed == Or(Atom("P", (Constant("k"),)), Not(Atom("P", (Constant("k"),))))

    def test_close_free_names_keeps_bound_variables(self):
        parsed = close_free_names(parse_formula("ALL x. R(x, w)", None))
        assert parsed == Forall("x", Atom("R", (Variable("x"), Constant("w"))))


class TestRoundTrip:
    def test_seeded_round_trip(self):
        rng = random.Random(2024)
        for _ in range(1500):
            formula = gen.random_toplevel(rng, depth=5)
            assert parse_formula(print_formula(formula), gen.VOC) == formula

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=6))
    def test_hypothesis_round_trip(self, seed, depth):
        formula = gen.random_toplevel(random.Random(seed), depth)
        assert parse_formula(print_formula(formula), gen.VOC) == formula


def test_source_span_invariant():
    with pytest.raises(ValueError):
        SourceSpan(5, 3, 1, 1)
