"""The four workloads: job lists built from a seed, with their output checks.

A job's `run` returns its output; exceptions are caught by the caller and
become ("raise", class name).  `check` compares one output with what the
benchmark expects and returns None or a reason.  Expected outputs come from
the reference semantics in `reference.py`, from counts fixed by the grids,
or from the recorded texts in `golden.json`; they are computed after timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from reference import (
    GRID,
    ONE,
    ContainmentViolated,
    Evaluator,
    Model,
    atom,
    const,
    element_names,
    first_countermodel,
    grid_measures,
    imp,
    neg,
    rat,
    text,
    var,
)
import reference as ref

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())


@dataclass
class Job:
    id: str
    spec: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    #: A known program defect that makes this job raise.  Such a raise still
    #: fails the job, but does not make the run's outputs incorrect.
    known_defect: str | None = None


def equals(expected_fn):
    """A check against one expected output, computed on first use."""
    cache = []

    def check(output):
        if not cache:
            cache.append(expected_fn())
        if output != cache[0]:
            return f"expected {_short(cache[0])}, got {_short(output)}"
        return None

    return check


def _short(value, limit=160):
    text_ = repr(value)
    return text_ if len(text_) <= limit else text_[:limit] + "..."


def program_model_key(model):
    """The reference `Model.key` of a program model."""
    return Model(model.universe, model.measure, model.predicates,
                 model.functions, model.constants).key()


def unless_violated(compute, instead):
    """`compute()`, or `instead` when the reference finds a containment violation."""
    try:
        return compute()
    except ContainmentViolated:
        return instead


# ---------------------------------------------------------------------------
# Formula builders shared by the workloads


def Q(kind, x, body):
    return (kind, x, body)


def binop(kind, a, b):
    return (kind, a, b)


def subst(phi, x, term):
    """Replace free occurrences of variable x (no capture: terms are closed)."""
    kind = phi[0]
    if kind == "atom":
        return ("atom", phi[1], tuple(_subst_term(t, x, term) for t in phi[2]))
    if kind == "rat":
        return phi
    if kind == "not":
        return ("not", subst(phi[1], x, term))
    if kind in ref.BINOPS:
        return (kind, subst(phi[1], x, term), subst(phi[2], x, term))
    if phi[1] == x:
        return phi
    return (kind, phi[1], subst(phi[2], x, term))


def _subst_term(t, x, term):
    if t[0] == "var":
        return term if t[1] == x else t
    if t[0] == "const":
        return t
    return ("fn", t[1], tuple(_subst_term(a, x, term) for a in t[2]))


def unary_pool(pred):
    """Bodies in x over one unary predicate, each taking every value 0..1."""
    p = atom(pred, var("x"))
    return [p, neg(p), binop("sand", p, p), binop("sor", p, p), neg(binop("sor", p, p))]


def binary_pool():
    """Bodies in x over the binary R, each taking every value 0..1."""
    x, y = var("x"), var("y")
    return [atom("R", x, x), Q("ex", "y", atom("R", x, y)), Q("all", "y", atom("R", y, x)),
            Q("int", "y", atom("R", x, y))]


def I(body, x="x"):
    return Q("int", x, body)


# Lukasiewicz-with-integral theorems over bodies A, B in x.
VALID_AB = [
    lambda A, B: imp(I(binop("and", A, B)), I(A)),
    lambda A, B: imp(I(imp(A, B)), imp(I(A), I(B))),
    lambda A, B: imp(binop("sand", I(A), I(B)), I(binop("sand", A, B))),
    lambda A, B: imp(I(binop("sor", A, B)), binop("sor", I(A), I(B))),
]
VALID_A = [
    lambda A: imp(Q("all", "x", A), I(A)),
    lambda A: imp(I(A), Q("ex", "x", A)),
    lambda A: imp(neg(I(A)), I(neg(A))),
]
# Non-theorems; with full-range bodies each has a countermodel on the grid.
INVALID_AB = [
    lambda A, B: imp(I(A), I(B)),
    lambda A, B: imp(I(binop("or", A, B)), binop("or", I(A), I(B))),
    lambda A, B: imp(I(binop("sand", A, B)), binop("sand", I(A), I(B))),
]
INVALID_A = [
    lambda A: imp(I(A), rat(1, 4)),
    lambda A: imp(I(A), rat(3, 4)),
    lambda A: imp(rat(1, 2), I(A)),
    lambda A: imp(Q("ex", "x", A), I(A)),
    lambda A: imp(I(A), Q("all", "x", A)),
]
VALID_C = [
    lambda A: imp(Q("all", "x", A), subst(A, "x", const("c"))),
    lambda A: imp(subst(A, "x", const("c")), Q("ex", "x", A)),
    lambda A: imp(binop("and", subst(A, "x", const("c")), I(A)), subst(A, "x", const("c"))),
    lambda A: imp(Q("all", "x", A), binop("and", subst(A, "x", const("c")), I(A))),
]
INVALID_C = [
    lambda A: imp(subst(A, "x", const("c")), I(A)),
    lambda A: imp(I(A), subst(A, "x", const("c"))),
]


# ---------------------------------------------------------------------------
# sweep: exhaustive grid validation through the library

# Checks per schema over the |M|=2 grid (13 measures, 5 table values):
# instantiations x models x valuations, as validate-axioms reports them.
AXIOM_CHECKS = {"mu1": 715, "mu2": 16900, "mu3": 16575, "mu4": 16575, "mu5": 16250}

# Sentence families: (label, universe size, predicates, constants, validity,
# templates, count, seeded bodies).  Templates are used in turn.  Valid
# sentences scan the whole grid and carry the median; the invalid PQ ones
# hold under the two Dirac measures and fail from the third measure on, at
# nearly the same depth, and carry the tail.  The cost of both is set by the
# bodies, so their bodies are cycled rather than drawn and the cost mix is
# the same for every seed.  The other invalid ones fail early; the seed
# draws their bodies and shuffles the job order.
SWEEP_FAMILIES = [
    ("P@2", 2, (("P", 1),), (), True, VALID_A + VALID_AB, 18, False),
    ("Pc@2", 2, (("P", 1),), ("c",), True, VALID_C, 12, False),
    ("PQ@2", 2, (("P", 1), ("Q", 1)), (), False, INVALID_AB[1:], 12, False),
    ("P@2", 2, (("P", 1),), (), False, INVALID_A, 6, True),
    ("R@2", 2, (("R", 2),), (), False, INVALID_A, 5, True),
    ("Pc@2", 2, (("P", 1),), ("c",), False, INVALID_C, 4, True),
    ("P@3", 3, (("P", 1),), (), False, INVALID_A, 5, True),
]


def _family_sentence(rng, preds, template, cycle: int | None = None):
    """`template` applied to bodies over `preds`: drawn from the seed, or the
    `cycle`-th pair of a fixed cycle."""
    if preds == (("R", 2),):
        pool_a = pool_b = binary_pool()
    elif len(preds) == 2:
        pool_a, pool_b = unary_pool("P"), unary_pool("Q")
    else:
        pool_a = pool_b = unary_pool("P")
    if template.__code__.co_argcount == 1:
        return template(rng.choice(pool_a) if cycle is None else pool_a[cycle % len(pool_a)])
    if cycle is not None:
        n = len(pool_a)
        return template(pool_a[cycle % n], pool_b[(cycle + 2 + cycle // n) % n])
    a = rng.choice(pool_a)
    b = rng.choice([body for body in pool_b if body != a])
    return template(a, b)


def build_sweep(rng, mods, workdir):
    validate, syntax, parser = mods.validate, mods.syntax, mods.parser
    exhaustive2 = validate.ModelGenSpec(size=2, exhaustive=True)

    def axiom_job(axiom):
        def run():
            report = validate.validate_axiom(axiom, exhaustive2)
            return ("report", report.checked, len(report.violations))

        return Job(f"axiom:{axiom}", f"validate_axiom {axiom} size=2 exhaustive",
                   run, equals(lambda: ("report", AXIOM_CHECKS[axiom], 0)))

    def gap_run():
        return ("witness", validate.mu3_equality_gap(exhaustive2))

    def gap_check(output):
        witness = output[1]
        if not witness:
            return "no mu3 equality-gap witness"
        lhs, rhs = Fraction(witness["lhs"]), Fraction(witness["rhs"])
        if not lhs < rhs:
            return f"gap witness has lhs {lhs} >= rhs {rhs}"
        model = mods.model.model_from_json(witness["model"])
        sides = witness["instantiation"].split("  vs  ")
        voc = model.vocabulary()
        replay = [mods.evaluate.evaluate(parser.parse_formula(s, voc), model, witness["valuation"])
                  for s in sides]
        if replay != [lhs, rhs]:
            return f"gap witness replays to {replay}, recorded {[lhs, rhs]}"
        return None

    jobs = [axiom_job("mu1"), Job("gap:mu3", "mu3_equality_gap size=2 exhaustive", gap_run, gap_check)]
    countermodel_jobs = []
    seen = set()
    for label, size, preds, consts, valid, templates, count, seeded in SWEEP_FAMILIES:
        voc = syntax.Vocabulary(predicates=preds, constants=consts)
        spec = validate.ModelGenSpec(size=size, exhaustive=True)
        made = 0
        while made < count:
            template = templates[made % len(templates)]
            cycle = None if seeded else made // len(templates)
            phi = _family_sentence(rng, preds, template, cycle)
            sentence = text(phi)
            if sentence in seen:
                continue
            seen.add(sentence)
            made += 1
            formula = parser.parse_formula(sentence, voc)

            def run(formula=formula, spec=spec):
                found = validate.find_countermodel(formula, spec)
                return ("none",) if found is None else ("model", program_model_key(found))

            def expected(phi=phi, size=size, preds=preds, consts=consts, valid=valid):
                if valid:
                    return ("none",)
                found = first_countermodel(phi, size, preds, (), consts)
                return ("none",) if found is None else ("model", found.key())

            countermodel_jobs.append(Job(f"countermodel:{label}:{'valid' if valid else 'invalid'}",
                                         f"find_countermodel size={size} {sentence}", run, equals(expected)))
    rng.shuffle(countermodel_jobs)
    jobs += countermodel_jobs
    jobs += [axiom_job(a) for a in ("mu2", "mu3", "mu4", "mu5")]
    return jobs, {}


# ---------------------------------------------------------------------------
# kernels: the integrals module on its own


def _tables(names, arity):
    import itertools

    keys = list(itertools.product(names, repeat=arity))
    return [dict(zip(keys, combo)) for combo in itertools.product(GRID, repeat=len(keys))]


def build_kernels(rng, mods, workdir):
    integrals, validate, model_mod = mods.integrals, mods.validate, mods.model
    WeakProbModel, FuzzySubset = model_mod.WeakProbModel, model_mod.FuzzySubset
    jobs = []

    def oracle_job(names, measure, tables):
        model = WeakProbModel(names, measure, {}, {}, {})
        subsets = [FuzzySubset(names, t) for t in tables]

        def run():
            return ("integrals", tuple(
                (integrals.integral_expectation(f, model), integrals.integral_layercake(f, model),
                 integrals.integral_dissection(f, model))
                for f in subsets))

        def expected():
            return ("integrals", tuple(
                (e, e, e) for e in (sum(t[(m,)] * measure[m] for m in names) for t in tables)))

        return Job(f"oracle:{len(names)}", f"three integrals size={len(names)} "
                   f"measure={_measure_text(measure)} subsets={_digest(tables)}", run, equals(expected))

    # Every grid subset on grid measures drawn from the seed, one from each of
    # `count` consecutive strata of `step` measures of the grid's measure
    # list, so every seed covers the list evenly; and seeded subsets on
    # seeded |M|=5 measures, heavier than every law job.
    for size, step, count in ((3, 4, 23), (4, 33, 16)):
        names = element_names(size)
        tables = _tables(names, 1)
        measures = grid_measures(size)
        for k in range(count):
            jobs.append(oracle_job(names, rng.choice(measures[k * step:(k + 1) * step]), tables))
    names = element_names(5)
    for _ in range(3):
        tables = [{(m,): rng.choice(GRID) for m in names} for _ in range(1000)]
        jobs.append(oracle_job(names, _random_measure(rng, names), tables))

    law_spec = validate.ModelGenSpec(size=2, exhaustive=True)
    law_checks = 5 + 3 * 625 + 625
    for measure in grid_measures(2):
        model = WeakProbModel(element_names(2), measure, {}, {}, {})

        def run(model=model):
            report = validate.integral_law_suite(model, law_spec)
            return ("report", report.checked, len(report.violations))

        jobs.append(Job("laws:2", f"integral_law_suite size=2 measure={_measure_text(measure)}",
                        run, equals(lambda: ("report", law_checks, 0))))

    for group in range(24):
        cases = []
        for size in (3, 4, 5) * 6 + (4, 4):
            names = element_names(size)
            measure = _random_measure(rng, names)
            table = {(a, b): rng.choice(GRID) for a in names for b in names}
            cases.append((WeakProbModel(names, measure, {}, {}, {}), FuzzySubset(names, table), measure, table))

        def run(cases=cases):
            return ("fubini", tuple(
                (integrals.integral_expectation(integrals.slice_first(h, m), m),
                 integrals.integral_expectation(integrals.slice_second(h, m), m),
                 integrals.double_sum(h, m))
                for m, h, _, _ in cases))

        def expected(cases=cases):
            out = []
            for _, _, measure, table in cases:
                total = sum(v * measure[a] * measure[b] for (a, b), v in table.items())
                out.append((total, total, total))
            return ("fubini", tuple(out))

        jobs.append(Job("fubini", f"slices and double sum group={group} "
                        + _digest([(c[2], c[3]) for c in cases]), run, equals(expected)))
    order = [job for job in jobs if job.id == "fubini"][:2]
    rest = [job for job in jobs if job not in order]
    rng.shuffle(rest)
    return order + rest, {}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _measure_text(measure):
    return ",".join(f"{m}:{w}" for m, w in measure.items())


def _random_measure(rng, names):
    """A non-uniform measure with weights k/(4n): every seed gives the same denominator."""
    weights = [4] * len(names)
    for _ in range(2 * len(names)):
        i, j = rng.randrange(len(names)), rng.randrange(len(names))
        if weights[i] > 1:
            weights[i] -= 1
            weights[j] += 1
    total = 4 * len(names)
    return {m: Fraction(w, total) for m, w in zip(names, weights)}


# ---------------------------------------------------------------------------
# deep: large models and a fixed sentence catalogue

X, Y, Z = var("x"), var("y"), var("z")


def _R(a, b):
    return atom("R", a, b)


def _f(t):
    return ("fn", "f", (t,))


# (name, mode, universe sizes, sentence).  mode "value" evaluates the
# sentence; "hsat" asks for H-satisfaction.  Cubic sentences run on the
# small models, so their cost overlaps the quadratic ones'.  Quantifier
# equalities, whose cost depends on the tables, run where they stay cheaper
# than the median job, so the median is set by full evaluations.
CUBIC, QUADRATIC, LINEAR = (12, 16, 20), (24, 28, 32, 36, 40, 48, 60), (40, 48, 60)
DEEP_CATALOGUE = [
    ("all-ex-all", "value", CUBIC,
     Q("all", "x", Q("ex", "y", Q("all", "z", imp(binop("sand", _R(X, Y), _R(Y, Z)), atom("P", Z)))))),
    ("int-int-int", "value", CUBIC,
     I(I(I(binop("sor", binop("sand", _R(X, Y), _R(Y, Z)), atom("P", Z)), "z"), "y"), "x")),
    ("int-ex-int", "value", CUBIC,
     I(Q("ex", "y", I(binop("and", _R(X, Y), _R(Y, Z)), "z")), "x")),
    ("ex-all-sor", "value", QUADRATIC,
     Q("ex", "x", Q("all", "y", binop("sor", _R(X, Y), neg(_R(Y, X)))))),
    ("int-int", "value", QUADRATIC, I(I(_R(X, Y), "y"), "x")),
    ("int-all-fn", "value", QUADRATIC, I(Q("all", "y", imp(_R(X, Y), atom("P", _f(Y)))), "x")),
    ("all-ex-fn", "value", QUADRATIC,
     Q("all", "x", imp(atom("P", X), Q("ex", "y", binop("sand", _R(X, _f(Y)), atom("Q", Y)))))),
    ("ex-int-fn", "value", QUADRATIC,
     Q("ex", "x", I(binop("sor", _R(X, Y), atom("Q", _f(_f(Y)))), "y"))),
    ("hsat-sor", "hsat", QUADRATIC, Q("all", "x", Q("ex", "y", binop("sor", _R(X, Y), neg(_R(X, Y)))))),
    ("hsat-ex-all", "hsat", QUADRATIC, Q("ex", "x", Q("all", "y", _R(X, Y)))),
    ("qeq-nested", "hsat", CUBIC,
     ("qeq", I(Q("ex", "y", _R(X, Y))), Q("ex", "x", Q("ex", "y", _R(X, Y))))),
    ("qeq-rows-cols", "value", CUBIC,
     ("qeq", I(I(_R(X, Y), "y")), I(I(_R(X, Y), "x"), "y"))),
    ("hsat-taut", "hsat", LINEAR, Q("all", "x", imp(atom("P", X), imp(atom("Q", X), atom("P", X))))),
    ("qeq-graded-holds", "value", LINEAR,
     ("qeq", I(binop("or", atom("P", X), atom("P", X))), I(atom("P", Y), "y"))),
    ("qeq-graded-false", "value", LINEAR,
     ("qeq", I(binop("or", atom("P", X), atom("Q", X))), I(atom("P", Y), "y"))),
    ("qeq-graded-violated", "value", LINEAR,
     ("qeq", I(atom("P", X)), I(binop("or", atom("P", Y), atom("Q", Y)), "y"))),
    ("qeq-crisp-holds", "value", LINEAR,
     ("qeq", I(atom("C", X)), Q("all", "y", binop("and", atom("C", Y), atom("C", Y))))),
    ("qeq-crisp-false", "value", LINEAR,
     ("qeq", I(binop("or", atom("C", X), atom("D", X))), I(atom("C", Y), "y"))),
    ("qeq-crisp-violated", "hsat", LINEAR,
     ("qeq", I(atom("C", X)), I(binop("or", atom("C", Y), atom("D", Y)), "y"))),
]
GRADES = tuple(Fraction(k, 8) for k in range(9))


def _deep_model(rng, size):
    """Graded P, Q, R, crisp C, D, a function f and a constant c."""
    names = element_names(size)
    graded = lambda: rng.choice(GRADES)  # noqa: E731
    crisp = lambda: rng.choice((Fraction(0), ONE))  # noqa: E731
    preds = {
        "P": {(m,): graded() for m in names},
        "Q": {(m,): graded() for m in names},
        "C": {(m,): crisp() for m in names},
        "D": {(m,): crisp() for m in names},
        "R": {(a, b): graded() for a in names for b in names},
    }
    funcs = {"f": {(m,): rng.choice(names) for m in names}}
    return Model(names, _random_measure(rng, names), preds, funcs, {"c": rng.choice(names)})


def build_deep(rng, mods, workdir):
    WeakProbModel = mods.model.WeakProbModel
    evaluate_closed, hsat = mods.evaluate.evaluate_closed, mods.satisfaction.hsat
    jobs = []
    for size in sorted(set(CUBIC + QUADRATIC + LINEAR)):
        reference_model = _deep_model(rng, size)
        r = reference_model
        model = WeakProbModel(r.universe, r.measure, r.preds, r.funcs, r.consts)
        voc = model.vocabulary()
        for name, mode, sizes, phi in DEEP_CATALOGUE:
            if size not in sizes:
                continue
            formula = mods.parser.parse_formula(text(phi), voc)
            if mode == "value":
                def run(formula=formula, model=model):
                    return ("value", evaluate_closed(formula, model))
            else:
                def run(formula=formula, model=model):
                    return ("bool", hsat(formula, model))

            def expected(phi=phi, mode=mode, r=reference_model):
                def compute():
                    evaluator = Evaluator(r)
                    if mode == "value":
                        return ("value", evaluator.value(phi))
                    if phi[0] == "qeq":
                        return ("bool", evaluator.qeq(phi[1], phi[2], {}))
                    return ("bool", evaluator.value(phi) == ONE)

                return unless_violated(compute, ("raise", "ContainmentViolated"))

            check = equals(expected)
            if name == "int-int":
                check = _with_double_sum(check, mods, model)
            jobs.append(Job(f"deep:{name}", f"{mode} size={size} {text(phi)} model={_model_digest(r)}",
                            run, check))
    return jobs, {}


def _with_double_sum(check, mods, model):
    """INT (INT R(x,y) dy) dx must also equal the integrals module's double sum."""
    def combined(output):
        reason = check(output)
        if reason:
            return reason
        h = mods.model.FuzzySubset.from_predicate(model, "R")
        product = mods.integrals.double_sum(h, model)
        if output[1] != product:
            return f"iterated integral {output[1]} differs from double_sum {product}"
        return None

    return combined


def _model_digest(model: Model) -> str:
    return _digest(json.dumps(model.to_json(), sort_keys=True))


# ---------------------------------------------------------------------------
# batch: one-shot CLI commands on small files

TERM_CONSTS = ("c", "d")
VARS = ("x", "y", "z")


def _random_term(rng, scope, depth):
    roll = rng.random()
    if roll < 0.6 and scope:
        return var(rng.choice(scope))
    if roll < 0.8 and depth > 0:
        return _f(_random_term(rng, scope, depth - 1))
    return const(rng.choice(TERM_CONSTS))


def random_formula(rng, depth, scope=()):
    """A formula of nesting depth at most `depth` whose free variables lie in `scope`."""
    kinds = ("atom", "rat") if depth == 0 else (
        "not", "and", "or", "sand", "sor", "imp", "all", "ex", "int", "atom", "atom", "rat")
    kind = rng.choice(kinds)
    if kind == "atom":
        pred = rng.choice(("P", "Q", "R"))
        arity = 2 if pred == "R" else 1
        return ("atom", pred, tuple(_random_term(rng, scope, 1) for _ in range(arity)))
    if kind == "rat":
        den = rng.randint(1, 6)
        return rat(rng.randint(0, den), den)
    if kind == "not":
        return neg(random_formula(rng, depth - 1, scope))
    if kind in ref.BINOPS:
        return (kind, random_formula(rng, depth - 1, scope), random_formula(rng, depth - 1, scope))
    x = rng.choice(VARS)
    return (kind, x, random_formula(rng, depth - 1, scope + (x,)))


def _random_side(rng, depth):
    x = rng.choice(VARS)
    return (rng.choice(("all", "ex", "int")), x, random_formula(rng, depth - 1, (x,)))


def _batch_model(rng, size):
    names = element_names(size)
    preds = {
        "P": {(m,): rng.choice(GRID) for m in names},
        "Q": {(m,): rng.choice(GRID) for m in names},
        "R": {(a, b): rng.choice(GRID) for a in names for b in names},
    }
    funcs = {"f": {(m,): rng.choice(names) for m in names}}
    consts = {"c": rng.choice(names), "d": rng.choice(names)}
    return Model(names, _random_measure(rng, names), preds, funcs, consts)


# Checks per model in random-mode validate-axioms at |M|=2.
RANDOM_AXIOM_CHECKS = {"mu1": 7, "mu2": 4, "mu3": 3, "mu4": 3, "mu5": 2}

# Jobs per pass of each command the CLI section of the top-level README
# lists, and of inputs that the README contract says must exit 2.  Every
# kind gets the same share: nothing in the repository says how often each
# command is used.
BATCH_SHARE = 16
NESTING_DEFECT = ("a formula nested past the recursion limit raises RecursionError "
                  "out of cli.main instead of exiting 2 (ROADMAP item 5)")


def cli_runner(cli, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return ("exit", code, out.getvalue().encode(), len(err.getvalue().splitlines()))

    return run


def exits(code, stdout: str):
    return ("exit", code, stdout.encode(), 0)


EXIT2 = ("exit", 2, b"", 1)


class BatchFiles:
    """Input files written under the run's work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.written: dict[str, bytes] = {}

    def write(self, name: str, content: str) -> str:
        path = self.workdir / name
        data = content.encode()
        path.write_bytes(data)
        self.written[name] = data
        return str(path)


def _proof_script(rng):
    """A valid proof script and, optionally, one corruption with its expected reason."""
    A = random_formula(rng, 2, ("x",))
    B = random_formula(rng, 2, ("x",))
    while text(B) == text(A):
        B = random_formula(rng, 2, ("x",))
    kind = rng.randrange(5)
    if kind == 0:
        lines = [(A, "premise"), (I(A), "int-intro:1,x")]
        bad = (1, (I(B), "int-intro:1,x"), "formula is not INT (line 1) dx")
    elif kind == 1:
        lines = [(imp(A, B), "premise"), (imp(I(A), I(B)), "int-mono:1,x")]
        bad = (1, (imp(I(B), I(A)), "int-mono:1,x"),
               "formula is not the integral-monotonicity consequence")
    elif kind == 2:
        lines = [(A, "premise"), (imp(A, B), "premise"), (B, "mp:1,2"), (Q("all", "x", B), "gen:3,x")]
        bad = rng.choice([
            (2, (B, "mp:2,1"), "line 1 is not the implication (line 2 -> this line)"),
            (3, (Q("all", "x", B), "gen:5,x"), "reference 5 is not an earlier line"),
            (3, (Q("all", "y", B), "gen:3,x"), "formula is not ALL x. (line 3)"),
        ])
    elif kind == 3:
        left, right = I(neg(A)), neg(I(A))
        lines = [(binop("sand", imp(left, right), imp(right, left)), "axiom:mu2"),
                 (A, "premise"), (I(A), "int-intro:2,x")]
        bad = (0, (lines[0][0], "axiom:mu3"), "formula does not instantiate axiom mu3")
    else:
        left, right = I(imp(A, B)), imp(I(A), I(B))
        lines = [(binop("sand", imp(left, right), imp(right, left)), "axiom:mu3")]
        bad = (0, (lines[0][0], "axiom:mu4"), "formula does not instantiate axiom mu4")
    return lines, bad


def _proof_text(lines):
    return json.dumps([{"formula": text(phi), "just": just} for phi, just in lines])


def build_batch(rng, mods, workdir):
    cli = mods.cli
    files = BatchFiles(workdir)
    models = [_batch_model(rng, rng.choice((2, 2, 3))) for _ in range(6)]
    model_paths = [files.write(f"model{i}.json", json.dumps(m.to_json(), indent=2)) for i, m in enumerate(models)]
    bad_model = models[0].to_json()
    bad_model["measure"] = {m: "3/4" for m in bad_model["universe"]}
    bad_model_path = files.write("bad_model.json", json.dumps(bad_model))
    bad_proof_path = files.write("bad_proof.json", "[{\"formula\": \"P(x)\", \"just\": \"premise\"}\n")
    missing_path = str(workdir / "missing.json")

    seen = set()

    def fresh(make):
        while True:
            phi = make()
            key = text(phi)
            if key not in seen:
                seen.add(key)
                return phi

    jobs = []

    def add(kind, argv, check, known_defect=None):
        shown = [a.replace(str(workdir), "<work>") for a in argv]
        jobs.append(Job(f"cli:{kind}", " ".join(shown), cli_runner(cli, argv), check, known_defect))

    def pick_model():
        i = rng.randrange(len(models))
        return models[i], model_paths[i]

    for i in range(BATCH_SHARE):
        model, path = pick_model()
        phi = fresh(lambda: random_formula(rng, 1 + i % 4))
        add("eval", ["eval", "--model", path, "--formula", text(phi)],
            equals(lambda phi=phi, m=model: exits(0, f"{ref.evaluate(phi, m)}\n")))

    def verdict(holds, label):
        return exits(0, f"{label}\n") if holds else exits(1, f"NOT {label}\n")

    for i in range(BATCH_SHARE):
        model, path = pick_model()
        qeq = i % 4 == 0
        phi = fresh(lambda: ("qeq", _random_side(rng, 3), _random_side(rng, 3)) if qeq
                    else random_formula(rng, 1 + i % 4))

        def expected(phi=phi, m=model):
            def compute():
                evaluator = Evaluator(m)
                holds = evaluator.qeq(phi[1], phi[2], {}) if phi[0] == "qeq" else evaluator.value(phi) == ONE
                return verdict(holds, "H-SAT")

            return unless_violated(compute, EXIT2)

        add("sat", ["sat", "--model", path, "--formula", text(phi)], equals(expected))

    for _ in range(BATCH_SHARE):
        model, path = pick_model()
        phi = fresh(lambda: ("qeq", _random_side(rng, 3), _random_side(rng, 3)))

        def expected(phi=phi, m=model):
            return unless_violated(lambda: verdict(Evaluator(m).qeq(phi[1], phi[2], {}), "H-SAT"), EXIT2)

        add("qeq", ["qeq", "--model", path, "--formula", text(phi)], equals(expected))

    for i in range(BATCH_SHARE):
        model, path = pick_model()
        base = [fresh(lambda: random_formula(rng, rng.randint(1, 3))) for _ in range(3)]
        sentences = list(base)
        rel = set()
        for start in range(len(base)):
            chain = [start]
            current = base[start]
            for _ in range(rng.randint(0, 2)):
                current = fresh(lambda c=current: binop("or", c, random_formula(rng, 1)))
                sentences.append(current)
                for earlier in chain:
                    rel.add((earlier, len(sentences) - 1))
                chain.append(len(sentences) - 1)
        system_path = files.write(f"system{i}.json", json.dumps(
            {"sentences": [text(s) for s in sentences], "rel": sorted([a, b] for a, b in rel)}))
        index = rng.randrange(len(sentences))

        def expected(index=index, sentences=sentences, rel=rel, m=model):
            evaluator = Evaluator(m)
            holds = all(evaluator.value(sentences[j]) == ONE for i_, j in rel if i_ == index)
            return verdict(holds, "HA-SAT")

        add("approx-sat", ["approx-sat", "--model", path, "--approx-system", system_path,
                           "--formula", text(sentences[index])], equals(expected))

    for i in range(BATCH_SHARE):
        lines, (bad_index, bad_line, reason) = _proof_script(rng)
        if i % 2:
            lines = list(lines)
            lines[bad_index] = bad_line
            expected = exits(1, f"INVALID at line {bad_index + 1}: {reason}\n")
        else:
            expected = exits(0, f"VALID ({len(lines)} lines)\n")
        path = files.write(f"proof{i}.json", _proof_text(lines))
        add("check-proof", ["check-proof", "--proof", path], equals(lambda e=expected: e))

    for i in range(BATCH_SHARE):
        relation = ("eq", "approx")[i % 2]
        _, path = pick_model()
        add("congruence", ["congruence", "--model", path, "--relation", relation],
            equals(lambda r=relation: exits(0, GOLDEN["congruence"][r])))

    for i in range(BATCH_SHARE):
        axiom = sorted(RANDOM_AXIOM_CHECKS)[i % len(RANDOM_AXIOM_CHECKS)]
        count = 3
        add("validate-axioms", ["validate-axioms", "--axiom", axiom, "--size", "2",
                                "--count", str(count), "--seed", str(rng.randrange(10**6))],
            equals(lambda a=axiom, c=count: exits(0, f"0 violations ({RANDOM_AXIOM_CHECKS[a] * c} checks)\n")))

    contradictions = [
        binop("sand", atom("P", const("c")), neg(atom("P", const("c")))),
        binop("sand", I(atom("P", X)), neg(I(atom("P", X)))),
        neg(imp(atom("Q", const("c")), atom("Q", const("c")))),
        binop("and", rat(1, 2), I(atom("Q", X))),
    ]
    for i in range(BATCH_SHARE):
        argv_tail = ["--size", "2", "--count", "3", "--seed", str(rng.randrange(10**6))]
        if i % 5 < 3:
            phi = fresh(lambda: _family_sentence(rng, (("P", 1), ("Q", 1)), rng.choice(VALID_AB)))
            add("find-countermodel", ["find-countermodel", "--formula", text(phi)] + argv_tail,
                equals(lambda: exits(0, "no countermodel found\n")))
        else:
            phi = contradictions[i % len(contradictions)]
            add("find-countermodel", ["find-countermodel", "--formula", text(phi)] + argv_tail,
                _countermodel_check(phi))

    for i in range(BATCH_SHARE):
        pool = [text(fresh(lambda d=d: random_formula(rng, d))) for d in (1, 2, 3)]
        path = files.write(f"pool{i}.json", json.dumps(pool))
        count = 2
        add("check-closure", ["check-closure", "--pool", path, "--size", "2", "--count", str(count),
                              "--seed", str(rng.randrange(10**6))],
            equals(lambda c=count, n=len(pool): exits(0, f"0 violations ({c * n * 4} checks)\n")))

    bad_inputs = [
        lambda p: ["eval", "--model", p, "--formula", "Z(c)"],
        lambda p: ["eval", "--model", p, "--formula", "(P(c) ->"],
        lambda p: ["eval", "--model", missing_path, "--formula", "P(c)"],
        lambda p: ["eval", "--model", bad_model_path, "--formula", "P(c)"],
        lambda p: ["sat", "--model", p, "--formula", "P(x)"],
        lambda p: ["check-proof", "--proof", bad_proof_path],
        # Nested past the recursion limit: the README contract says exit 2.
        lambda p: ["eval", "--model", p, "--formula", "~" * 3000 + "P(c)"],
    ]
    for i in range(BATCH_SHARE):
        _, path = pick_model()
        k = i % len(bad_inputs)
        nesting = k == len(bad_inputs) - 1
        add("nesting" if nesting else "exit2", bad_inputs[k](path), equals(lambda: EXIT2),
            NESTING_DEFECT if nesting else None)

    head = [job for job in jobs if job.id == "cli:eval"][:3]
    rest = [job for job in jobs if job not in head]
    rng.shuffle(rest)
    return head + rest, files.written


def _countermodel_check(phi):
    def check(output):
        if output[:2] != ("exit", 1) or output[3] != 0:
            return f"expected exit 1 with a countermodel, got {_short(output)}"
        record = json.loads(output[2])
        value = Fraction(record["value"])
        model = Model.from_json(record["model"])
        reference_value = ref.evaluate(phi, model)
        if value != reference_value or not value < ONE:
            return f"countermodel value {value}, reference {reference_value}"
        return None

    return check


BUILDERS = {"sweep": build_sweep, "kernels": build_kernels, "deep": build_deep, "batch": build_batch}


def build(name: str, seed: int, mods, workdir: Path):
    """The job list of a workload and the input files it wrote (name -> bytes)."""
    return BUILDERS[name](random.Random(f"{name}:{seed}"), mods, workdir)
