"""The public surface: ``ebmnm.__all__`` and every CLI flag with its default.

Dropping or renaming a public name or a flag, or changing a default, fails
here; such a change has to update this pin on purpose.
"""

import argparse

import ebmnm
from ebmnm import cli

PUBLIC_NAMES = {
    "ComponentConstraint", "Dataset", "DimensionMismatchError", "EbmnmError",
    "EmptyDataError", "EvalReport", "FitConfig", "FitResult", "FitTrace", "GroundTruth",
    "InvalidConfigError", "InvalidScenarioError", "InvariantViolationError",
    "MalformedInputError", "MixturePrior", "NotPositiveDefiniteError",
    "NumericalFailureError", "Penalty", "PosteriorMixture", "PosteriorSummary", "Scenario",
    "SingularMatrixError", "UnsupportedNoiseError", "UnsupportedPenaltyError",
    "__version__", "deserialize_prior", "empirical_fsr", "fit", "generate",
    "kl_divergence", "lfsr", "load_dataset", "load_prior", "log_likelihood",
    "posterior_mixture", "power_fsr_curve", "random_init", "responsibilities",
    "save_dataset", "save_prior", "serialize_prior", "summarize", "validate_dataset",
}

REQUIRED = object()
COMMON = {"--out": REQUIRED, "--config": None}

# Option string -> default (REQUIRED for a flag that must be given).
SUBCOMMANDS = {
    "simulate": {"--scenario": REQUIRED, "--n": REQUIRED, "--n-test": 0,
                 "--R": REQUIRED, "--seed": 0, **COMMON},
    "fit": {"--x": REQUIRED, "--noise": REQUIRED, "--algorithm": "ted", "--penalty": "none",
            "--penalty-strength": "R", "--components": 10, "--constraint": "free",
            "--init-prior": None, "--max-iterations": 2000, "--tolerance": 0.01,
            "--warm-start": 20, "--seed": 0, **COMMON},
    "posterior": {"--x": REQUIRED, "--noise": REQUIRED, "--prior": REQUIRED, **COMMON},
    "evaluate": {"--test-x": REQUIRED, "--test-noise": REQUIRED, "--theta-test": REQUIRED,
                 "--true-prior": REQUIRED, "--fitted-prior": REQUIRED, "--threshold": 0.05,
                 **COMMON},
    "bench": {"--scenarios": "hybrid,rank1", "--algorithms": "ted,ed,fa",
              "--penalties": "none,iw,nn", "--n": 1000, "--n-test": 500, "--R": 5, "--K": 10,
              "--replicates": 3, "--penalty-strength": "R", "--max-iterations": 2000,
              "--tolerance": 0.01, "--warm-start": 20, "--threshold": 0.05, "--seed": 0,
              "--threads": 0, **COMMON},
}


def _options(parser) -> dict:
    return {
        action.option_strings[0]: REQUIRED if action.required else action.default
        for action in parser._actions
        if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
    }


def test_all_is_pinned():
    assert set(ebmnm.__all__) == PUBLIC_NAMES
    assert len(ebmnm.__all__) == len(PUBLIC_NAMES)


def test_top_level_flags():
    parser, _ = cli.build_parser()
    assert set(_options(parser)) == {"--version"}


def test_subcommand_flags_and_defaults():
    _, commands = cli.build_parser()
    assert set(commands) == set(SUBCOMMANDS)
    for name, parser in commands.items():
        assert _options(parser) == SUBCOMMANDS[name], name
