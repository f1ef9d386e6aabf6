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

The options are pinned by name in ``option_names.txt`` (one per line,
sorted): a config field as ``<module>.<Config>.<field>``, a CLI option as
``repro <subcommand path> <flag>``.  A change that adds an option must
add its name there, so retiring one option and adding another in the
same change still shows in the diff.  (The ROADMAP once quoted 155 under
a rule it never wrote down; this rule read 166 before the gateway's two
origin-delay flags gave way to the fault plan's ``latency`` rule.)
"""

import argparse
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import repro
from repro.cli import build_parser

PINNED = Path(__file__).with_name("option_names.txt").read_text().splitlines()
EXPECTED = len(PINNED)


def config_fields() -> dict[str, list[str]]:
    fields = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (
                name.endswith("Config")
                and isinstance(obj, type)
                and dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__
            ):
                fields[f"{obj.__module__}.{name}"] = [
                    f.name for f in dataclasses.fields(obj)
                ]
    return fields


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


def option_names() -> list[str]:
    names = [
        f"{config}.{name}"
        for config, fields in config_fields().items()
        for name in fields
    ]
    return sorted(names + cli_option_strings())


def test_option_names_are_pinned():
    assert PINNED == sorted(PINNED)
    assert option_names() == PINNED


def test_option_count_is_pinned():
    assert EXPECTED == 148
    assert len(option_names()) == EXPECTED


def test_the_count_sees_every_config_and_verb():
    configs = config_fields()
    assert "repro.core.config.DeltaServerConfig" in configs
    assert "repro.resilience.policy.ResilienceConfig" in configs
    options = cli_option_strings()
    assert "repro serve --fault-plan" in options
    assert "repro store inspect --compact" in options
