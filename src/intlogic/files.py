"""File formats: models, approximation systems, sentence pools, proof scripts.

All files are JSON.  Rationals are "p/q" strings end to end; formulas are
strings in the concrete syntax.  Proof scripts may be a JSON array of line
objects or one JSON object per line (JSON lines); both are accepted.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import FormatError
from .model import WeakProbModel, model_from_json, model_to_json
from .parser import VocabBuilder, parse_formula
from .proofs import (
    AXIOM_IDS,
    AxiomInstance,
    Generalization,
    IntegralIntro,
    IntegralMono,
    Justification,
    ModusPonens,
    Premise,
    ProofLine,
    ProofScript,
)
from .satisfaction import ApproximationSystem
from .syntax import Formula, Vocabulary


def read_text(path) -> str:
    """The UTF-8 text of a file; unreadable or undecodable files are a FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _read_json(path) -> object:
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc


def load_model(path) -> WeakProbModel:
    """Load and fully validate a model file."""
    return model_from_json(_read_json(path))


def save_model(model: WeakProbModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_json(model), indent=2) + "\n")


def load_pool(path, voc: Vocabulary | None = None) -> list[Formula]:
    """A sentence pool: a JSON array of formula strings."""
    data = _read_json(path)
    if not isinstance(data, list) or not all(isinstance(s, str) for s in data):
        raise FormatError(f"{path}: a pool file is a JSON array of formula strings")
    builder = VocabBuilder() if voc is None else None
    return [parse_formula(text, voc, builder) for text in data]


def load_approx_system(path, voc: Vocabulary | None = None) -> ApproximationSystem:
    """{"sentences": [formula-strings], "rel": [[i, j], ...]} with 0-based indices."""
    data = _read_json(path)
    if not isinstance(data, dict) or "sentences" not in data or "rel" not in data:
        raise FormatError(f"{path}: expected {{'sentences': [...], 'rel': [[i,j],...]}}")
    sentences_raw = data["sentences"]
    if not isinstance(sentences_raw, list) or not all(isinstance(s, str) for s in sentences_raw):
        raise FormatError(f"{path}: 'sentences' must be an array of formula strings")
    builder = VocabBuilder() if voc is None else None
    sentences = tuple(parse_formula(text, voc, builder) for text in sentences_raw)
    if not isinstance(data["rel"], list):
        raise FormatError(f"{path}: 'rel' must be an array of index pairs")
    rel = set()
    for entry in data["rel"]:
        # a JSON boolean is an instance of int, but no index
        if not (isinstance(entry, list) and len(entry) == 2 and all(type(i) is int for i in entry)):
            raise FormatError(f"{path}: each 'rel' entry must be a pair of indices")
        rel.add((entry[0], entry[1]))
    return ApproximationSystem(sentences, frozenset(rel))


def parse_justification(text: str) -> Justification:
    """Parse the file form: premise | axiom:muN | mp:i,j | gen:i,x | int-intro:i,x | int-mono:i,x."""
    text = text.strip()
    if text == "premise":
        return Premise()
    head, _, rest = text.partition(":")
    if head == "axiom":
        if rest not in AXIOM_IDS:
            raise FormatError(f"unknown axiom schema {rest!r}")
        return AxiomInstance(rest)
    if head == "mp":
        try:
            i, j = (int(p) for p in rest.split(","))
        except ValueError:
            raise FormatError(f"mp justification needs two line numbers, got {rest!r}") from None
        return ModusPonens(i, j)
    if head in ("gen", "int-intro", "int-mono"):
        i_raw, _, var = rest.partition(",")
        try:
            i = int(i_raw)
        except ValueError:
            raise FormatError(f"{head} justification needs a line number, got {rest!r}") from None
        if not var:
            raise FormatError(f"{head} justification needs a variable, got {rest!r}")
        cls = {"gen": Generalization, "int-intro": IntegralIntro, "int-mono": IntegralMono}[head]
        return cls(i, var)
    raise FormatError(f"unknown justification {text!r}")


def load_proof(path) -> ProofScript:
    """Load a proof script (JSON array of line objects, or JSON lines)."""
    text = read_text(path)
    try:
        data = json.loads(text)
        if not isinstance(data, list):
            raise FormatError(f"{path}: a proof script is a JSON array of line objects")
    except json.JSONDecodeError:
        try:
            data = [json.loads(line) for line in text.splitlines() if line.strip()]
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from None
    builder = VocabBuilder()
    lines = []
    for entry in data:
        if not (isinstance(entry, dict) and isinstance(entry.get("formula"), str)
                and isinstance(entry.get("just"), str)):
            raise FormatError(f"{path}: each line must be {{'formula': str, 'just': str}}")
        formula = parse_formula(entry["formula"], builder=builder)
        lines.append(ProofLine(formula, parse_justification(entry["just"])))
    return ProofScript(tuple(lines))
