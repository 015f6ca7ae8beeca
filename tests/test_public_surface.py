"""The package's public surface: the exact export list, and the names removed
because no library path or benchmark workload called them."""

import importlib
import inspect

import pytest

import haarmult
from haarmult import (
    DyadicInterval,
    HaarExpansion,
    IntervalFamily,
    StepFunction,
    square_function,
)
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
    "StepFunction",
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
    "h2_measure",
    "hp_norm",
    "is_block",
    "l2_norm",
    "multiply",
    "q_variation",
    "square_function",
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
    ("dyadic", "generation_decay_check"),
    ("dyadic", "maximal_intervals"),
    ("haar", "_atom_cells"),
    ("haar", "_block_cells"),
    ("haar", "_leaf_cells"),
    ("haar", "evaluate_haar"),
    ("haar", "push_down"),
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
    assert not hasattr(StepFunction, "lp_norm")
    step = square_function(HaarExpansion.scalar(0, {DyadicInterval(0, 0): 1.0}))
    assert not callable(step)


def test_run_verification_has_no_per_trial_options():
    parameters = inspect.signature(run_verification).parameters
    assert "phi_per_trial" not in parameters
    assert "z_per_trial" not in parameters
