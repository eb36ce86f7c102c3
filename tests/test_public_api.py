"""Public-API integrity checks: every ``__all__`` name resolves, the
top-level package re-exports what the README promises, and modules keep
their docstrings (the library's primary documentation)."""

import importlib

import pytest

MODULES = [
    "repro",
    "repro.logic",
    "repro.logic.terms",
    "repro.logic.atoms",
    "repro.logic.atomset",
    "repro.logic.substitution",
    "repro.logic.homomorphism",
    "repro.logic.isomorphism",
    "repro.logic.cores",
    "repro.logic.coremaint",
    "repro.logic.rules",
    "repro.logic.parser",
    "repro.logic.serialization",
    "repro.logic.kb",
    "repro.chase",
    "repro.chase.trigger",
    "repro.chase.derivation",
    "repro.chase.engine",
    "repro.chase.variants",
    "repro.chase.aggregation",
    "repro.chase.egds",
    "repro.treewidth",
    "repro.treewidth.graph",
    "repro.treewidth.gaifman",
    "repro.treewidth.decomposition",
    "repro.treewidth.elimination",
    "repro.treewidth.exact",
    "repro.treewidth.lowerbounds",
    "repro.treewidth.grids",
    "repro.treewidth.nice",
    "repro.treewidth.hypertree",
    "repro.analysis",
    "repro.analysis.positions",
    "repro.analysis.weak_acyclicity",
    "repro.analysis.guardedness",
    "repro.analysis.rule_dependencies",
    "repro.analysis.sticky",
    "repro.analysis.classes",
    "repro.query",
    "repro.query.cq",
    "repro.query.entailment",
    "repro.query.modelfinder",
    "repro.query.decomposed",
    "repro.query.certain",
    "repro.query.ucq",
    "repro.kbs",
    "repro.kbs.staircase",
    "repro.kbs.elevator",
    "repro.kbs.witnesses",
    "repro.kbs.generators",
    "repro.kbs.ontology",
    "repro.util",
    "repro.util.orders",
    "repro.util.reporting",
    "repro.util.render",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.observer",
    "repro.obs.tracer",
    "repro.obs.spans",
    "repro.obs.stats",
    "repro.datalog",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports_and_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


def test_top_level_covers_readme_quickstart():
    import repro

    for name in (
        "KnowledgeBase",
        "parse_atoms",
        "parse_rules",
        "core_chase",
        "restricted_chase",
        "frugal_chase",
        "boolean_cq",
        "decide_entailment",
        "treewidth",
        "staircase_kb",
        "elevator_kb",
        "RobustSequence",
    ):
        assert hasattr(repro, name), name


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_public_callables_have_docstrings():
    import repro

    undocumented = [
        name
        for name in repro.__all__
        if callable(getattr(repro, name)) and not getattr(repro, name).__doc__
    ]
    assert undocumented == []
