"""The option count: no knob is added without one being retired.

The count is

* every field of every ``*Config`` dataclass defined in a ``repro``
  module (a nested config field such as ``DeltaServerConfig.grouping``
  counts once, as a field, and its own fields count again under its
  class), plus
* every option string registered on ``repro.cli.build_parser()`` and on
  each of its subcommand parsers — hidden fleet-worker flags included,
  positionals and argparse's own ``-h``/``--help`` excluded; a flag that
  several subcommands share counts once per subcommand.

A change that adds an option must retire one, or move ``EXPECTED`` on
purpose, in the same change.  (The ROADMAP once quoted 155 under a rule
it never wrote down; this rule read 166 before the gateway's two
origin-delay flags gave way to the fault plan's ``latency`` rule.)
"""

import argparse
import dataclasses
import importlib
import pkgutil

import repro
from repro.cli import build_parser

EXPECTED = 164


def config_fields() -> dict[str, int]:
    counts = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (
                name.endswith("Config")
                and isinstance(obj, type)
                and dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__
            ):
                counts[f"{obj.__module__}.{name}"] = len(dataclasses.fields(obj))
    return counts


def cli_option_strings() -> list[str]:
    options = []
    pending = [("repro", build_parser())]
    while pending:
        path, parser = pending.pop()
        seen = set()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    if id(sub) not in seen:  # aliases share one parser
                        seen.add(id(sub))
                        pending.append((f"{path} {name}", sub))
            elif not isinstance(action, argparse._HelpAction):
                options += [f"{path} {flag}" for flag in action.option_strings]
    return options


def test_option_count_is_pinned():
    total = sum(config_fields().values()) + len(cli_option_strings())
    assert total == EXPECTED


def test_the_count_sees_every_config_and_verb():
    configs = config_fields()
    assert "repro.core.config.DeltaServerConfig" in configs
    assert "repro.resilience.policy.ResilienceConfig" in configs
    options = cli_option_strings()
    assert "repro serve --fault-plan" in options
    assert "repro store inspect --compact" in options
