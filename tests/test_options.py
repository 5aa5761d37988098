"""The settable values, pinned: the fields of `Config`, the CLI's flags
over all subcommands, and the library's keyword defaults (those of the
public functions and the defaulted dataclass fields, outside `cli` and
`config`).  A change that adds or removes an option changes its pin
here on purpose."""

import argparse
import dataclasses
import inspect
import types

import indexkernels
from indexkernels import cli
from indexkernels.config import Config


def cli_values():
    """(subcommand, flag) for each flag of each subcommand."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, action.option_strings[0])
            for name, parser in sub.choices.items()
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)]


def library_defaults():
    """(public name, parameter or field) for each default the library's
    public names take, over dir(indexkernels)."""
    found = []
    for name in dir(indexkernels):
        obj = getattr(indexkernels, name)
        if (name.startswith("_") or isinstance(obj, types.ModuleType)
                or obj.__module__ in (cli.__name__, Config.__module__)):
            continue
        if dataclasses.is_dataclass(obj):
            found += [(name, f.name) for f in dataclasses.fields(obj)
                      if f.default is not dataclasses.MISSING
                      or f.default_factory is not dataclasses.MISSING]
        elif inspect.isfunction(obj):
            found += [(name, p.name)
                      for p in inspect.signature(obj).parameters.values()
                      if p.default is not p.empty]
    return found


def test_config_fields():
    assert [f.name for f in dataclasses.fields(Config)] == [
        "dps", "bound_slack", "remainder_slack"]


def test_cli_values():
    values = cli_values()
    assert len(values) == 43, values
    assert len(set(values)) == len(values)


def test_library_defaults():
    assert library_defaults() == [
        ("KernelPoint", "mu"), ("KernelPoint", "nu"), ("KernelPoint", "rho"),
        ("bessel_j", "with_error"), ("thm1_remainder_explicit", "with_tail")]
