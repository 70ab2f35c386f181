"""Batch command-line front end.

Exit codes: 0 when the requested property holds (or output was produced),
1 when a property fails or a countermodel is found, 2 for usage and input
errors, 3 for an internal error.  Output is deterministic for fixed inputs
and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction

from . import files
from .errors import IntlogicError, ParseError
from .evaluate import evaluate_closed
from .model import expand_by_constants, model_to_json
from .parser import close_free_names, parse_formula, print_formula
from .proofs import AXIOM_IDS, check_proof, first_invalid_line
from .rational import format_rational, parse_rational
from .reporting import Report
from .satisfaction import (
    ApproximationSystem,
    LevelConfig,
    check_elementary_substructure,
    check_weak_negation,
    hasat,
    hsat,
    hsat_qeq,
    validate_approximation_system,
)
from .syntax import QuantEq, Vocabulary, congruence_axioms, infer_vocabulary, mentions_eq
from .validate import (
    ModelGenSpec,
    check_abstract_logic_properties,
    find_countermodel,
    generate_models,
    integral_law_suite,
    validate_axiom,
)


def _add_model_flag(parser, required=True, repeatable=False):
    parser.add_argument(
        "--model", action="append", default=[], metavar="PATH",
        help="model file (JSON)" + (", repeatable" if repeatable else ""))
    parser.set_defaults(_model_required=required, _model_repeatable=repeatable)


def _add_formula_flags(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", metavar="STR", help="formula in the concrete syntax")
    group.add_argument("--formula-file", metavar="PATH", help="file holding one formula")


def _add_gen_flags(parser):
    parser.add_argument("--seed", type=int, default=0, metavar="N")
    parser.add_argument("--size", type=int, default=2, metavar="N", help="universe size")
    parser.add_argument("--grid", default=None, metavar="LIST",
                        help="comma-separated rationals, e.g. 0,1/4,1/2,3/4,1")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--count", type=int, default=None, metavar="N")
    group.add_argument("--exhaustive", action="store_true")


def _add_level_flags(parser):
    parser.add_argument("--levels", default="auto", metavar="LIST")
    parser.add_argument("--pairs", default="diagonal", metavar="LIST")


def build_parser() -> argparse.ArgumentParser:
    """A fresh argparse tree for the 14 commands."""
    top = argparse.ArgumentParser(prog="intlogic", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="exact truth value of a sentence in a model")
    _add_model_flag(p)
    _add_formula_flags(p)

    p = sub.add_parser("sat", help="H-satisfaction of a sentence in a model")
    _add_model_flag(p)
    _add_formula_flags(p)
    _add_level_flags(p)

    p = sub.add_parser("approx-sat", help="approximate H-satisfaction via a system")
    _add_model_flag(p)
    _add_formula_flags(p)
    p.add_argument("--approx-system", required=True, metavar="PATH")

    p = sub.add_parser("qeq", help="quantifier-equality satisfaction with level control")
    _add_model_flag(p)
    _add_formula_flags(p)
    _add_level_flags(p)

    p = sub.add_parser("validate-axioms", help="axiom schemata over generated models")
    p.add_argument("--axiom", default="all", choices=AXIOM_IDS + ("all",))
    _add_gen_flags(p)

    p = sub.add_parser("validate-integral-laws", help="the five integral laws over samples")
    _add_model_flag(p, required=False, repeatable=True)
    _add_gen_flags(p)

    p = sub.add_parser("validate-approx-system", help="transitivity, closure, monotonicity")
    p.add_argument("--approx-system", required=True, metavar="PATH")
    _add_model_flag(p, required=False, repeatable=True)

    p = sub.add_parser("check-weak-negation", help="weak-negation totality and exclusion")
    p.add_argument("--approx-system", required=True, metavar="PATH")
    p.add_argument("--pool", required=True, metavar="PATH")
    _add_model_flag(p, repeatable=True)

    p = sub.add_parser("check-substructure", help="elementary-substructure check over a pool")
    _add_model_flag(p, repeatable=True)
    p.add_argument("--pool", required=True, metavar="PATH")
    p.add_argument("--approx-system", default=None, metavar="PATH",
                   help="defaults to the diagonal system over the pool")

    p = sub.add_parser("check-proof", help="verify a Hilbert-style proof script")
    p.add_argument("--proof", required=True, metavar="PATH")

    p = sub.add_parser("find-countermodel", help="search for a model where value < 1")
    _add_formula_flags(p)
    _add_gen_flags(p)

    p = sub.add_parser("check-closure", help="isomorphism/reduct/renaming invariance")
    p.add_argument("--pool", required=True, metavar="PATH")
    _add_gen_flags(p)

    p = sub.add_parser("gen-models", help="emit generated models as JSON")
    p.add_argument("--pool", default=None, metavar="PATH",
                   help="derive the vocabulary from these sentences (default: one unary P)")
    _add_gen_flags(p)

    p = sub.add_parser("congruence", help="congruence axioms for eq or approx")
    _add_model_flag(p)
    p.add_argument("--relation", required=True, choices=("eq", "approx"))

    for p in sub.choices.values():
        p.add_argument("--output", choices=("text", "json"), default="text")
    return top


# ---------------------------------------------------------------------------
# Shared helpers


def _load_models(args) -> list:
    if args._model_required and not args.model:
        raise UsageError("--model is required")
    if not args._model_repeatable and len(args.model) > 1:
        raise UsageError("only one --model is accepted here")
    return [files.load_model(path) for path in args.model]


def _merged_vocabulary(models) -> Vocabulary | None:
    voc = None
    for model in models:
        voc = model.vocabulary() if voc is None else voc.merged(model.vocabulary())
    return voc


def _formula_text(args) -> str:
    if args.formula is not None:
        return args.formula
    return files.read_text(args.formula_file).strip()


def _parse_grid(text: str | None) -> tuple[Fraction, ...] | None:
    if text is None:
        return None
    return tuple(parse_rational(part) for part in text.split(","))


def _gen_spec(args) -> ModelGenSpec:
    grid = _parse_grid(args.grid)
    kwargs = dict(size=args.size, seed=args.seed)
    if grid is not None:
        kwargs.update(grid=grid)
    if args.exhaustive:
        kwargs.update(exhaustive=True)
    elif args.count is not None:
        kwargs.update(count=args.count)
    return ModelGenSpec(**kwargs)


def _level_config(args) -> LevelConfig | None:
    if args.levels == "auto":
        if args.pairs != "diagonal":
            raise UsageError("--pairs needs explicit --levels")
        return None
    levels = _parse_grid(args.levels)
    if args.pairs == "diagonal":
        return LevelConfig.diagonal(levels)
    pairs = []
    for part in args.pairs.split(","):
        i, _, j = part.partition(":")
        try:
            pairs.append((int(i), int(j)))
        except ValueError:
            raise UsageError(f"--pairs entries look like i:j, got {part!r}") from None
    return LevelConfig(levels, tuple(pairs))


def _emit_report(report: Report, args) -> int:
    for record in report.violations:
        print(json.dumps(record, default=str, sort_keys=True))
    if args.output != "json":
        noun = "violation" if len(report.violations) == 1 else "violations"
        print(f"{len(report.violations)} {noun} ({report.checked} checks)")
    return 0 if report.ok else 1


class UsageError(IntlogicError):
    pass


# ---------------------------------------------------------------------------
# Command handlers


def _cmd_eval(args) -> int:
    model = _load_models(args)[0]
    formula = parse_formula(_formula_text(args), model.vocabulary())
    value = evaluate_closed(formula, model)
    if args.output == "json":
        print(json.dumps({"value": format_rational(value)}))
    else:
        print(format_rational(value))
    return 0


def _sat_verdict(holds: bool, args, label="H-SAT") -> int:
    text = label if holds else f"NOT {label}"
    if args.output == "json":
        print(json.dumps({"verdict": text}))
    else:
        print(text)
    return 0 if holds else 1


def _cmd_sat(args) -> int:
    model = _load_models(args)[0]
    formula = parse_formula(_formula_text(args), model.vocabulary())
    cfg = _level_config(args)
    if cfg is not None and not isinstance(formula, QuantEq):
        raise UsageError("--levels and --pairs apply only to a formula of the shape 'Q ... = Q ...'")
    return _sat_verdict(hsat(formula, model, cfg), args)


def _cmd_qeq(args) -> int:
    model = _load_models(args)[0]
    formula = parse_formula(_formula_text(args), model.vocabulary())
    if not isinstance(formula, QuantEq):
        raise UsageError("qeq expects a formula of the shape 'Q ... = Q ...'")
    holds = hsat_qeq(formula.left, formula.right, model, _level_config(args))
    return _sat_verdict(holds, args)


def _cmd_approx_sat(args) -> int:
    model = _load_models(args)[0]
    voc = model.vocabulary()
    system = files.load_approx_system(args.approx_system, voc)
    formula = parse_formula(_formula_text(args), voc)
    return _sat_verdict(hasat(formula, model, system), args, label="HA-SAT")


def _cmd_validate_axioms(args) -> int:
    gen = _gen_spec(args)
    axioms = AXIOM_IDS if args.axiom == "all" else (args.axiom,)
    combined = Report()
    for axiom in axioms:
        combined.merge(validate_axiom(axiom, gen))
    return _emit_report(combined, args)


def _cmd_validate_integral_laws(args) -> int:
    gen = _gen_spec(args)
    models = _load_models(args)
    if not models:
        # the law suite brings its own fuzzy subsets; only the measure matters
        models = list(generate_models(gen, Vocabulary()))
    combined = Report()
    for model in models:
        combined.merge(integral_law_suite(model, gen))
    return _emit_report(combined, args)


def _cmd_validate_approx_system(args) -> int:
    models = _load_models(args)
    voc = _merged_vocabulary(models)
    system = files.load_approx_system(args.approx_system, voc)
    return _emit_report(validate_approximation_system(system, models), args)


def _cmd_check_weak_negation(args) -> int:
    models = _load_models(args)
    voc = _merged_vocabulary(models)
    system = files.load_approx_system(args.approx_system, voc)
    pool = files.load_pool(args.pool, voc)
    report = check_weak_negation(pool, system, models)
    return _emit_report(report, args)


def _cmd_check_substructure(args) -> int:
    models = _load_models(args)
    if len(models) != 2:
        raise UsageError("check-substructure takes exactly two --model flags (small, large)")
    small, large = models
    # pool sentences may name elements of the small universe as constants
    voc = _merged_vocabulary([expand_by_constants(small), large])
    pool = files.load_pool(args.pool, voc)
    if args.approx_system is not None:
        system = files.load_approx_system(args.approx_system, voc)
    else:
        system = ApproximationSystem.diagonal(tuple(pool))
    holds = check_elementary_substructure(small, large, pool, system)
    return _sat_verdict(holds, args, label="SUBSTRUCTURE")


def _cmd_check_proof(args) -> int:
    script = files.load_proof(args.proof)
    report = check_proof(script)
    if args.output == "json":
        for record in report.violations:
            print(json.dumps(record, default=str, sort_keys=True))
    if report.ok:
        print(f"VALID ({len(script.lines)} lines)")
        return 0
    line = first_invalid_line(report)
    reason = next(v["reason"] for v in report.violations if v.get("line") == line)
    print(f"INVALID at line {line}: {reason}")
    return 1


def _cmd_find_countermodel(args) -> int:
    # without --count the search is exhaustive, so --exhaustive is the default here
    gen = dataclasses.replace(_gen_spec(args), exhaustive=args.count is None)
    formula = close_free_names(parse_formula(_formula_text(args)))
    model = find_countermodel(formula, gen)
    if model is None:
        print("no countermodel found")
        return 0
    value = evaluate_closed(formula, model)
    print(json.dumps({"value": format_rational(value), "model": model_to_json(model)},
                     sort_keys=True))
    return 1


def _cmd_check_closure(args) -> int:
    gen = _gen_spec(args)
    pool = [close_free_names(f) for f in files.load_pool(args.pool)]
    return _emit_report(check_abstract_logic_properties(gen, pool), args)


def _cmd_gen_models(args) -> int:
    gen = _gen_spec(args)
    if args.pool is not None:
        pool = [close_free_names(f) for f in files.load_pool(args.pool)]
        voc, eq = infer_vocabulary(pool), mentions_eq(pool)
    else:
        voc, eq = Vocabulary(predicates=(("P", 1),)), False
    for model in generate_models(gen, voc, eq):
        print(json.dumps(model_to_json(model), sort_keys=True))
    return 0


def _cmd_congruence(args) -> int:
    model = _load_models(args)[0]
    voc = model.vocabulary()
    if args.relation == "approx":
        voc = dataclasses.replace(voc, has_approx=True)
    for axiom in congruence_axioms(voc, args.relation):
        print(print_formula(axiom))
    return 0


_HANDLERS = {
    "eval": _cmd_eval,
    "sat": _cmd_sat,
    "approx-sat": _cmd_approx_sat,
    "qeq": _cmd_qeq,
    "validate-axioms": _cmd_validate_axioms,
    "validate-integral-laws": _cmd_validate_integral_laws,
    "validate-approx-system": _cmd_validate_approx_system,
    "check-weak-negation": _cmd_check_weak_negation,
    "check-substructure": _cmd_check_substructure,
    "check-proof": _cmd_check_proof,
    "find-countermodel": _cmd_find_countermodel,
    "check-closure": _cmd_check_closure,
    "gen-models": _cmd_gen_models,
    "congruence": _cmd_congruence,
}


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser `main` reads: built on the first call, through the module global `build_parser`.

    Parsing leaves the tree unchanged (`--model`'s `append` copies its default
    list), so one tree serves every call in the process.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc} (at {exc.span})", file=sys.stderr)
        return 2
    except IntlogicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a programming error: never exit 1, which claims "property fails"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
