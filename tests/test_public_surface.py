"""The package's public surface: the exact export list, the names removed
because no library path or benchmark workload called them, and a README
that names only public identifiers."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import haarmult
from haarmult import HaarExpansion, IntervalFamily
from haarmult.cli import run_verification

PUBLIC = [
    "AtomicDecomposition",
    "AtomicPiece",
    "DecompositionReport",
    "DegenerateThetaError",
    "DyadicInterval",
    "EmptyFamilyError",
    "ExpansionFormatError",
    "Factorization",
    "HaarExpansion",
    "IntervalFamily",
    "MultiplierReport",
    "PietschMeasure",
    "VerificationError",
    "ZeroInputError",
    "appendix_constant",
    "carleson_constant",
    "check_multiplier_bound",
    "check_multiplier_bounds",
    "convexify",
    "decompose",
    "factorize",
    "generation_decay_verdicts",
    "generations",
    "hp_norm",
    "is_block",
    "l2_norm",
    "theta",
    "tl_norm",
    "validate_measure",
    "verify_decomposition",
    "verify_factorization",
    "weights_hp",
    "weights_tl",
    "weights_vector",
    "x0_norm_estimate",
]

REMOVED = [
    ("atomic", "_verify_rows"),
    ("dyadic", "generation_decay_check"),
    ("dyadic", "maximal_intervals"),
    ("haar", "StepFunction"),
    ("haar", "_atom_cells"),
    ("haar", "_block_cells"),
    ("haar", "_leaf_cells"),
    ("haar", "_leaf_sums"),
    ("haar", "evaluate_haar"),
    ("haar", "multiply"),
    ("haar", "push_down"),
    ("haar", "q_variation"),
    ("haar", "square_function"),
    ("haar", "square_leaf_sums"),
    ("pietsch", "_check_rows"),
    ("pietsch", "h2_measure"),
    ("pisier", "_x0_norm_estimate"),
]


def test_all_is_exact():
    assert haarmult.__all__ == PUBLIC


def test_each_name_resolves():
    for name in PUBLIC:
        assert getattr(haarmult, name) is not None


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_name_gone(module, name):
    assert not hasattr(haarmult, name)
    assert not hasattr(importlib.import_module(f"haarmult.{module}"), name)


def test_removed_methods_gone():
    assert not hasattr(IntervalFamily, "restrict")
    assert not hasattr(HaarExpansion, "restrict")
    assert not hasattr(HaarExpansion, "support_family")


README = Path(__file__).resolve().parent.parent / "README.md"
# `_name` at the start of a word, or `module._name`; `||S||_inf` is notation
PRIVATE = re.compile(r"(?:^|[\s(\[,=])_\w|\w\._\w")


def test_readme_names_public_identifiers_only():
    # the public contract; the module docstrings hold the mechanisms
    assert len(README.read_bytes()) <= 17_000
    text = README.read_text(encoding="utf-8")
    fences = text.split("```")
    code = fences[1::2]  # the fenced blocks, then the backticked spans
    code += [span for prose in fences[::2] for span in re.findall(r"`([^`]+)`", prose)]
    assert code
    assert [span for span in code if PRIVATE.search(span)] == []
    removed = {name for _, name in REMOVED} | {"support_family"}
    for name in sorted(removed):
        assert not re.search(rf"(?<![\w.]){name}\b", text), name


def test_run_verification_has_no_per_trial_options():
    parameters = inspect.signature(run_verification).parameters
    assert "phi_per_trial" not in parameters
    assert "z_per_trial" not in parameters
