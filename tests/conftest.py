"""Shared fixtures for the repro test suite."""

import numpy as np
import pytest

from repro.core.config import JRSNDConfig
from repro.utils.rng import derive_rng


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for the test at hand."""
    return derive_rng(1234, "tests")


@pytest.fixture
def small_config() -> JRSNDConfig:
    """A small-field configuration suitable for event-driven runs.

    ``rho`` is raised so that ``lambda`` (and hence ``r``) stays small
    enough for event-level simulation, while keeping ``lambda > 1`` so
    the buffer/process schedule remains meaningful.
    """
    return JRSNDConfig(
        n_nodes=5,
        codes_per_node=3,
        share_count=3,
        n_compromised=0,
        field_width=400.0,
        field_height=400.0,
        tx_range=300.0,
        rho=1e-9,
    )


@pytest.fixture
def paper_config() -> JRSNDConfig:
    """The exact Table I defaults."""
    return JRSNDConfig()


@pytest.fixture
def cli_refused(capsys):
    """``refused(argv, match)`` runs ``python -m repro argv`` in-process
    and asserts it was refused with a ``ConfigurationError``: the exit
    code is ``EXIT_CONFIGURATION_ERROR`` and stderr is one ``error:``
    line matching ``match`` (a regex).  Returns that line."""
    import re

    from repro.cli import EXIT_CONFIGURATION_ERROR, main

    def refused(argv, match):
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIGURATION_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert re.search(match, err), err
        return err

    return refused
