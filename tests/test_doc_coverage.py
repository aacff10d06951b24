"""Docstring coverage of the paper-mechanism and scenario packages.

The dag, allocation, constraints and mapping packages implement the
paper's mechanisms (the PTG model and its array compilation, constrained
allocation, the beta-distribution strategies, translation to concrete
clusters, non-insertion placement, allocation packing); the scenarios
package is the public front door on top of them; the streaming package
is the online workload engine, ``repro.service`` the admission daemon
hosting it, ``repro.faults`` the fault-injection and repair layer
perturbing it, and ``repro.validate`` the invariant checker guarding
every schedule.  ``tests.oracles`` holds the frozen golden oracles those
layers are checked against: they are the definition of correct, so
they are audited too.  Every public class, function, method
and property there must carry a docstring explaining what it
implements.  This test enforces it so the documentation audit cannot
rot.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro.allocation
import repro.constraints
import repro.dag
import repro.faults
import repro.mapping
import repro.obs
import repro.scenarios
import repro.exec
import repro.service
import repro.streaming
import repro.validate
import tests.oracles

AUDITED_PACKAGES = (
    repro.dag,
    repro.allocation,
    repro.constraints,
    repro.exec,
    repro.faults,
    repro.mapping,
    repro.obs,
    repro.scenarios,
    repro.service,
    repro.streaming,
    repro.validate,
    tests.oracles,
)


def audited_modules():
    """All modules of the audited packages (private helpers included).

    Plain audited modules (no ``__path__``, e.g. ``repro.validate``)
    contribute just themselves.
    """
    modules = []
    for package in AUDITED_PACKAGES:
        modules.append(package)
        for info in pkgutil.iter_modules(getattr(package, "__path__", [])):
            modules.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return modules


def public_members(module):
    """(qualified name, object) pairs that must have docstrings."""
    members = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exported from elsewhere; audited at its home
        members.append((f"{module.__name__}.{name}", obj))
        if inspect.isclass(obj):
            for attr_name, attr in vars(obj).items():
                if attr_name.startswith("_"):
                    continue
                target = None
                if inspect.isfunction(attr):
                    target = attr
                elif isinstance(attr, property):
                    target = attr.fget
                elif isinstance(attr, (staticmethod, classmethod)):
                    target = attr.__func__
                if target is not None:
                    members.append((f"{module.__name__}.{name}.{attr_name}", target))
    return members


@pytest.mark.parametrize("module", audited_modules(), ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), (
        f"module {module.__name__} has no docstring"
    )


@pytest.mark.parametrize("module", audited_modules(), ids=lambda m: m.__name__)
def test_public_members_have_docstrings(module):
    missing = [
        qualified
        for qualified, obj in public_members(module)
        if not (obj.__doc__ and obj.__doc__.strip())
    ]
    assert not missing, f"missing docstrings: {missing}"
