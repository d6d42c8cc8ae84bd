"""Shared fixtures; the catalogue and witness file parse once per session."""

import json
import sys
from importlib import resources

import pytest

from leibkit.catalogue import parse_catalogue
from leibkit.iso import load_fixtures


@pytest.fixture(scope="session")
def catalogue():
    return parse_catalogue()


@pytest.fixture(scope="session")
def shipped_document():
    """The shipped catalogue file as parsed JSON; shared, so copy before
    changing it."""
    return json.loads((resources.files("leibkit") / "data" /
                       "catalogue.json").read_text())


@pytest.fixture(scope="session")
def witness_fixtures():
    return load_fixtures()


def pytest_terminal_summary(terminalreporter):
    # repeat the acceptance verdicts where capture cannot swallow them
    mod = sys.modules.get("test_acceptance")
    verdicts = getattr(mod, "VERDICTS", None) if mod else None
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)
