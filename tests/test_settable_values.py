"""The engine's and the CLI's settable values stay at or below their count.

A settable value is a parameter with a default on a public module-level
function, a parameter with a default on a public method (``__init__``
left out), or a dataclass field with a default or ``default_factory``.
A run config's keys and the command line's options are counted apart.
So is the line count of ``src/rotecho/*.py``, newlines as ``wc -l``
counts them.  A change that raises any of the four bounds records why in
CHANGES.md.
"""

import argparse
import dataclasses
import importlib
import inspect
import pathlib

from rotecho import cli, config

MODULES = ("basis", "propagate", "echo", "focal", "pathways", "config", "runio", "cli")
MAX_SETTABLE = 46
MAX_CONFIG_KEYS = 29
MAX_CLI_OPTIONS = 14
MAX_SRC_LINES = 3320


def defaulted(function, owner):
    return [f"{owner}({name})" for name, p in inspect.signature(function).parameters.items()
            if p.default is not p.empty]


def settable_values():
    found = []
    for name in MODULES:
        module = importlib.import_module(f"rotecho.{name}")
        for attr, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere, counted there
            if inspect.isfunction(obj) and not attr.startswith("_"):
                found += defaulted(obj, f"{name}.{attr}")
            elif inspect.isclass(obj):
                for meth, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # static and class methods
                    if inspect.isfunction(member) and not meth.startswith("_"):
                        found += defaulted(member, f"{name}.{attr}.{meth}")
                if dataclasses.is_dataclass(obj):
                    found += [f"{name}.{attr}.{f.name}" for f in dataclasses.fields(obj)
                              if f.default is not dataclasses.MISSING
                              or f.default_factory is not dataclasses.MISSING]
    return found


def test_settable_values_do_not_grow():
    found = settable_values()
    assert len(found) == len(set(found))
    assert len(found) <= MAX_SETTABLE, found


def config_keys():
    return [f"[{section}] {key}" for section, keys in config._KEYS.items() for key in keys]


def cli_options():
    """Every option of the parser and of its subcommands, ``--help`` left out."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = []
    for prefix, p in [("", parser), *((f"{verb} ", p) for verb, p in sub.choices.items())]:
        found += [prefix + a.option_strings[-1] for a in p._actions
                  if a.option_strings and not isinstance(a, argparse._HelpAction)]
    return found


def test_config_keys_do_not_grow():
    found = config_keys()
    assert len(found) <= MAX_CONFIG_KEYS, found


def test_cli_options_do_not_grow():
    found = cli_options()
    assert len(found) == len(set(found))
    assert len(found) <= MAX_CLI_OPTIONS, found


def test_src_line_count_does_not_grow():
    sources = pathlib.Path(cli.__file__).parent.glob("*.py")
    lines = sum(path.read_bytes().count(b"\n") for path in sources)
    assert lines <= MAX_SRC_LINES, lines
