"""Shared fixtures.

Expensive artefacts (assembled binaries, leaked-secret runs) are
session-scoped: the underlying objects are immutable or cheap to
re-derive, so sharing them keeps the suite fast without coupling tests.
"""

import pytest
from hypothesis import settings

from repro.attack import SpectreConfig, build_spectre
from repro.kernel import System, build_binary
from repro.workloads import get_workload

SECRET = b"TheMagicWords!!!"

#: ``--hypothesis-profile=ci``: the larger example budget CI gives the
#: differential suite (tests/cpu/test_differential.py); tier-1 runs keep
#: hypothesis's default profile.
settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture()
def system():
    """A fresh simulated machine with the shared secret mapped."""
    return System(seed=1234, target_data=SECRET)


@pytest.fixture(scope="session")
def host_program():
    """The vulnerable basicmath host (Algorithm 1 wrapper), long-running."""
    return get_workload("basicmath").build(iterations=1 << 28, hosted=True)


@pytest.fixture(scope="session")
def short_host_program():
    """Same host but short enough to run to completion."""
    return get_workload("basicmath").build(iterations=30, hosted=True)


@pytest.fixture(scope="session")
def spectre_v1_program():
    return build_spectre(
        "v1", SpectreConfig(secret_length=len(SECRET), repeats=1)
    )


def run_source(source, argv=(), system=None, max_instructions=5_000_000,
               target_data=None):
    """Assemble + run a snippet; returns the finished Process."""
    system = system or System(seed=9, target_data=target_data)
    program = build_binary("testprog", source)
    system.install_binary("/bin/testprog", program)
    process = system.spawn("/bin/testprog", argv=list(argv))
    process.run_to_completion(max_instructions=max_instructions)
    return process
