"""Ambient engine selection: the names, the default, bad values."""

import os
import subprocess
import sys

import pytest

from repro.cpu import engine as engine_module
from repro.cpu import ENGINE_MODES, set_engine_mode


def test_engine_modes():
    assert ENGINE_MODES == ("step", "sb")


@pytest.mark.parametrize("value, expected", [
    ("", "sb"), ("step", "step"), (" SB ", "sb"),
])
def test_env_selects_engine(monkeypatch, value, expected):
    monkeypatch.setenv(engine_module.ENGINE_ENV_VAR, value)
    assert engine_module._from_env() == expected


def test_env_unset_is_default(monkeypatch):
    monkeypatch.delenv(engine_module.ENGINE_ENV_VAR, raising=False)
    assert engine_module._from_env() == engine_module.DEFAULT_ENGINE


@pytest.mark.parametrize("value", ["fast", "sbb"])
def test_unknown_env_value_raises_like_set_engine_mode(monkeypatch, value):
    # "fast" is the removed engine; "sbb" a typo.  Neither may silently
    # run the default.
    with pytest.raises(ValueError) as from_setter:
        set_engine_mode(value)
    monkeypatch.setenv(engine_module.ENGINE_ENV_VAR, value)
    with pytest.raises(ValueError) as from_env:
        engine_module._from_env()
    assert str(from_env.value) == str(from_setter.value)


def test_unknown_env_value_fails_at_import():
    src = os.path.join(os.path.dirname(engine_module.__file__), "..", "..")
    env = dict(os.environ, REPRO_ENGINE="fast",
               PYTHONPATH=os.path.abspath(src))
    result = subprocess.run(
        [sys.executable, "-c", "import repro.cpu"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert "unknown engine 'fast'" in result.stderr
