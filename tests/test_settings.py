"""Tests of runtime-settings resolution (repro.settings, repro.cli).

The contract: ``RuntimeSettings.from_env`` is the one reader of the
process environment, nothing in the library writes it, a CLI run's
flags apply to that run only, and both CLIs declare their shared
runtime flags identically.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.cli import runtime_flags
from repro.exceptions import ConfigurationError
from repro.experiments.common import StudyConfig
from repro.experiments.runner import build_parser as runner_parser
from repro.explore.cli import build_parser as explore_parser
from repro.runtime import RetryPolicy, SerialBackend
from repro.settings import ENV_NAMES, RuntimeSettings

SRC = Path(__file__).resolve().parents[1] / "src"
SETTINGS_MODULE = SRC / "repro" / "settings.py"


def environment_accesses(tree: ast.AST):
    """Line numbers of every ``os.environ`` / ``os.getenv`` / ``getenv`` use."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            yield node.lineno
        elif isinstance(node, ast.Name) and node.id in ("environ", "getenv"):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                alias.name in ("environ", "getenv") for alias in node.names):
            yield node.lineno


class TestOneReader:
    def test_only_the_settings_module_touches_the_environment(self):
        offenders = [f"{path.relative_to(SRC)}:{line}"
                     for path in sorted(SRC.rglob("*.py")) if path != SETTINGS_MODULE
                     for line in environment_accesses(ast.parse(path.read_text()))]
        assert offenders == []

    def test_the_settings_module_only_reads_it(self):
        tree = ast.parse(SETTINGS_MODULE.read_text())
        uses = [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "environ"]
        reads = [node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "get"
                 and node.value in uses]
        assert uses and len(reads) == len(uses)

    def test_one_field_per_environment_name(self):
        assert len(ENV_NAMES) == len(set(ENV_NAMES)) == 12
        assert len(RuntimeSettings.__dataclass_fields__) == len(ENV_NAMES)
        assert all(name.startswith("REPRO_") for name in ENV_NAMES)


def shared_actions(parser):
    return {action.option_strings[0]: action for action in parser._actions
            if action.option_strings}


class TestSharedFlags:
    SHARED = ["--backend", "--jobs", "--cache-dir", "--no-cache", "--synth-cache-dir",
              "--no-synth-cache", "--max-retries", "--task-timeout", "--telemetry-dir",
              "--timings", "--seed", "--output"]

    def test_the_parent_holds_exactly_the_shared_flags(self):
        assert sorted(shared_actions(runtime_flags())) == sorted(self.SHARED)

    @pytest.mark.parametrize("flag", SHARED)
    def test_both_clis_declare_the_flag_identically(self, flag):
        runner = shared_actions(runner_parser())[flag]
        explore = shared_actions(explore_parser())[flag]
        for attribute in ("help", "default", "choices", "type", "metavar", "dest"):
            assert getattr(runner, attribute) == getattr(explore, attribute), attribute


class TestResolution:
    def test_malformed_values_name_the_variable_and_the_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "lots")
        with pytest.raises(ConfigurationError, match="REPRO_MAX_RETRIES.*'lots'"):
            RuntimeSettings.from_env()

    def test_environment_is_read_when_resolved_not_at_import(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        assert RuntimeSettings.from_env().max_retries == 5
        monkeypatch.setenv("REPRO_MAX_RETRIES", "1")
        assert RuntimeSettings.from_env().max_retries == 1
        assert SerialBackend().retry_policy.max_attempts == 2

    def test_override_skips_values_not_given(self):
        settings = RuntimeSettings(backend="multiprocess", workers=3)
        assert settings.override(backend=None, workers=2) == \
            RuntimeSettings(backend="multiprocess", workers=2)

    def test_applied_settings_hold_for_the_block_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
        run = RuntimeSettings.from_env().override(backend="multiprocess", max_retries=0)
        with run.applied():
            assert RuntimeSettings.current() is run
            assert StudyConfig().backend == "multiprocess"
            assert RetryPolicy.from_env().max_attempts == 1
            # explicit StudyConfig fields win over the run's settings
            assert StudyConfig(backend="serial").backend == "serial"
        assert RuntimeSettings.current() == RuntimeSettings.from_env()
        assert StudyConfig().backend == "serial"
        assert SerialBackend().retry_policy == RetryPolicy()
