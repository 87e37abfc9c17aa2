"""The engine's and the CLI's settable values stay at or below their count.

A settable value is a parameter with a default on a public module-level
function, a parameter with a default on a public method (``__init__``
left out), or a dataclass field with a default or ``default_factory``.
"""

import dataclasses
import importlib
import inspect

MODULES = ("basis", "propagate", "echo", "focal", "pathways", "config", "runio", "cli")
MAX_SETTABLE = 56


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
