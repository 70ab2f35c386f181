import dataclasses
import random
from fractions import Fraction

import pytest

from intlogic import errors
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
    QuantEq,
    TruthConst,
    Variable,
    Vocabulary,
    check_formula,
    congruence_axioms,
    free_vars,
    infer_vocabulary,
    rename_symbols,
    substitute,
    subformulas,
)

import gen

P_x = Atom("P", (Variable("x"),))
P_c = Atom("P", (Constant("c"),))


class TestVocabulary:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(predicates=(("P", 1),), constants=("P",))

    def test_zero_arity_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(predicates=(("P", 0),))

    def test_reserved_names_rejected(self):
        for name in ("ALL", "INT", "rat", "eq", "approx"):
            with pytest.raises(ValueError):
                Vocabulary(constants=(name,))

    def test_reserved_predicates_behind_flags(self):
        voc = Vocabulary(has_approx=False)
        assert voc.predicate_arity("eq") == 2
        assert voc.predicate_arity("approx") is None

    def test_merged_conflict(self):
        a = Vocabulary(predicates=(("P", 1),))
        b = Vocabulary(predicates=(("P", 2),))
        with pytest.raises(errors.ArityMismatch):
            a.merged(b)

    def test_merged_is_the_union(self):
        a = Vocabulary(predicates=(("Q", 2), ("P", 1)), functions=(("g", 1),), constants=("d", "c"))
        b = Vocabulary(predicates=(("R", 1), ("P", 1)), functions=(("f", 2), ("g", 1)), constants=("e", "c"),
                       has_approx=True)
        assert a.merged(b) == Vocabulary(predicates=(("P", 1), ("Q", 2), ("R", 1)),
                                         functions=(("f", 2), ("g", 1)), constants=("d", "c", "e"), has_approx=True)

    def test_symbol_names_are_built_once(self):
        voc = Vocabulary(predicates=(("P", 1), ("R", 2)), functions=(("f", 1),), constants=("c",), has_approx=True)
        assert voc.symbol_names() == {"P", "R", "f", "c"} and voc.symbol_names() is voc.symbol_names()
        same = Vocabulary(predicates=[["P", 1], ["R", 2]], functions=[("f", 1)], constants=["c"], has_approx=True)
        assert same == voc and hash(same) == hash(voc) and repr(same) == repr(voc)
        assert Vocabulary(constants=("c",)) != Vocabulary(constants=("d",))
        assert dataclasses.replace(voc, constants=("d", "e")).symbol_names() == {"P", "R", "f", "d", "e"}

    @pytest.mark.parametrize("kind, field", [("predicate", "predicates"), ("function", "functions")])
    def test_merged_conflict_names_the_symbol(self, kind, field):
        a = Vocabulary(**{field: (("S", 1), ("T", 3))})
        b = Vocabulary(**{field: (("T", 2),)})
        with pytest.raises(errors.ArityMismatch, match=f"^{kind} 'T' declared with arities 3 and 2$"):
            a.merged(b)


class TestFreeVars:
    def test_single_free_occurrence(self):
        assert free_vars(P_x) == {"x"}

    def test_integral_binds(self):
        assert free_vars(Integral("x", P_x)) == frozenset()

    def test_forall_leaves_other_free(self):
        formula = Forall("x", Atom("R", (Variable("x"), Variable("y"))))
        assert free_vars(formula) == {"y"}

    def test_quant_eq_binds_each_side(self):
        qe = QuantEq(
            Integral("x", Atom("R", (Variable("x"), Variable("y")))),
            Forall("y", Atom("P", (Variable("y"),))),
        )
        assert free_vars(qe) == {"y"}


class TestSubstitute:
    def test_direct_replacement(self):
        assert substitute(P_x, "x", Constant("c")) == P_c

    def test_bound_occurrence_untouched(self):
        formula = Forall("x", P_x)
        assert substitute(formula, "x", Constant("c")) == formula

    def test_capture_detected(self):
        formula = Forall("y", Atom("R", (Variable("x"), Variable("y"))))
        with pytest.raises(errors.CaptureError):
            substitute(formula, "x", FuncApp("f", (Variable("y"),)))

    def test_capture_in_quant_eq_side(self):
        qe = QuantEq(Integral("x", P_x), Forall("y", Atom("R", (Variable("y"), Variable("z")))))
        with pytest.raises(errors.CaptureError):
            substitute(qe, "z", FuncApp("f", (Variable("y"),)))

    def test_quant_eq_side_binding_the_variable_unchanged(self):
        left = Integral("x", Atom("R", (Variable("x"), Variable("x"))))
        right = Exists("y", Atom("R", (Variable("y"), Variable("x"))))
        qe = QuantEq(left, right)
        assert substitute(qe, "x", Constant("c")) == QuantEq(
            left, Exists("y", Atom("R", (Variable("y"), Constant("c")))))

    def test_substituted_var_no_longer_free(self):
        rng = random.Random(7)
        for _ in range(50):
            formula = gen.random_formula(rng, depth=4)
            for name in sorted(free_vars(formula)):
                closed = substitute(formula, name, Constant("c"))
                assert name not in free_vars(closed)


class TestCongruenceAxioms:
    def test_unary_function_approx(self):
        voc = Vocabulary(functions=(("f", 1),), has_approx=True)
        [axiom] = congruence_axioms(voc, "approx")
        assert axiom == Implies(
            Atom("approx", (Variable("x1"), Variable("y1"))),
            Atom("approx", (FuncApp("f", (Variable("x1"),)), FuncApp("f", (Variable("y1"),)))),
        )

    def test_unary_predicate_approx_is_biresiduum(self):
        voc = Vocabulary(predicates=(("P", 1),), has_approx=True)
        [axiom] = congruence_axioms(voc, "approx")
        left = Atom("P", (Variable("x1"),))
        right = Atom("P", (Variable("y1"),))
        assert axiom == Implies(
            Atom("approx", (Variable("x1"), Variable("y1"))),
            And(Implies(left, right), Implies(right, left)),
        )

    def test_eq_predicate_single_implication(self):
        voc = Vocabulary(predicates=(("P", 2),))
        [axiom] = congruence_axioms(voc, "eq")
        antecedent = And(
            Atom("eq", (Variable("x1"), Variable("y1"))),
            Atom("eq", (Variable("x2"), Variable("y2"))),
        )
        consequent = Implies(
            Atom("P", (Variable("x1"), Variable("x2"))),
            Atom("P", (Variable("y1"), Variable("y2"))),
        )
        assert axiom == Implies(antecedent, consequent)

    def test_empty_signature(self):
        assert congruence_axioms(Vocabulary(has_approx=True), "approx") == []

    def test_flag_missing(self):
        with pytest.raises(errors.FlagMissing):
            congruence_axioms(Vocabulary(predicates=(("P", 1),)), "approx")

    def test_outputs_well_formed(self):
        voc = Vocabulary(predicates=(("P", 2),), functions=(("f", 3),), has_approx=True)
        for relation in ("eq", "approx"):
            for axiom in congruence_axioms(voc, relation):
                check_formula(axiom, voc)

    def test_fresh_variables_avoid_symbols(self):
        voc = Vocabulary(predicates=(("P", 1),), constants=("x1", "y1"), has_approx=True)
        [axiom] = congruence_axioms(voc, "approx")
        used = free_vars(axiom)
        assert "x1" not in used and "y1" not in used


class TestWellFormedness:
    def test_unknown_predicate(self):
        with pytest.raises(errors.UnknownSymbol):
            check_formula(P_x, Vocabulary())

    def test_arity_mismatch(self):
        voc = Vocabulary(predicates=(("P", 2),))
        with pytest.raises(errors.ArityMismatch):
            check_formula(P_x, voc)

    def test_nested_quant_eq_rejected(self):
        qe = QuantEq(
            Integral("x", P_x),
            Integral("x", P_x),
        )
        voc = Vocabulary(predicates=(("P", 1),))
        check_formula(qe, voc)  # fine at the top
        with pytest.raises(ValueError):
            check_formula(Not(qe), voc)

    @pytest.mark.parametrize("left, right", [
        (P_x, Integral("x", P_x)),
        (Integral("x", P_x), Not(Integral("x", P_x))),
    ])
    def test_quant_eq_sides_must_be_quantifiers(self, left, right):
        with pytest.raises(ValueError):
            QuantEq(left, right)


class TestInferVocabulary:
    def test_collects_symbols(self):
        formula = Forall("x", Atom("R", (FuncApp("f", (Variable("x"),)), Constant("c"))))
        voc = infer_vocabulary(formula)
        assert voc.predicates == (("R", 2),)
        assert voc.functions == (("f", 1),)
        assert voc.constants == ("c",)

    def test_arity_conflict(self):
        pair = [Atom("P", (Variable("x"),)), Atom("P", (Variable("x"), Variable("y")))]
        with pytest.raises(errors.ArityMismatch):
            infer_vocabulary(pair)


def test_subformulas_of_quant_eq_yield_the_sides():
    qe = QuantEq(Integral("x", P_x), Forall("y", P_c))
    assert list(subformulas(qe)) == [qe, qe.left, P_x, qe.right, P_c]


class TestRenameSymbols:
    def test_renames_both_sides_of_quant_eq(self):
        qe = QuantEq(Integral("x", P_x), Exists("y", Atom("R", (Variable("y"), Constant("c")))))
        assert rename_symbols(qe, {"P": "P2", "R": "R2", "c": "c2"}) == QuantEq(
            Integral("x", Atom("P2", (Variable("x"),))),
            Exists("y", Atom("R2", (Variable("y"), Constant("c2")))),
        )

    def test_renames_all_kinds(self):
        formula = Implies(P_c, Atom("Q", (FuncApp("f", (Constant("c"),)),)))
        renamed = rename_symbols(formula, {"P": "P2", "Q": "Q2", "f": "f2", "c": "c2"})
        assert renamed == Implies(
            Atom("P2", (Constant("c2"),)),
            Atom("Q2", (FuncApp("f2", (Constant("c2"),)),)),
        )

    def test_variables_untouched(self):
        renamed = rename_symbols(P_x, {"x": "zzz", "P": "Q"})
        assert renamed == Atom("Q", (Variable("x"),))


def test_truth_const_validates_range():
    with pytest.raises(errors.ValueOutOfRange):
        TruthConst(Fraction(3, 2))


def test_formulas_are_hashable_and_comparable():
    a = Integral("x", P_x)
    b = Integral("x", Atom("P", (Variable("x"),)))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
