"""The benchmark names the functions it traces and requires by dotted name
(`bench/tracer.py::TRACED`, `bench/run.py::REQUIRED_CALLS`).  A rename in
`debtregime` that one of those names misses would only fail the traced
benchmark run; this test fails first.  The names are read from the benchmark
files as data (their source is parsed, not run)."""

import ast
import importlib
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _assigned(filename, target):
    """The value node assigned to `target` at module level in a bench file."""
    with open(os.path.join(BENCH, filename), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == target for t in targets):
                return node.value
    raise AssertionError(f"{filename} assigns no {target}")


def _traced_names():
    # TRACED is a tuple of (name, observer) pairs; only the names are data
    return [ast.literal_eval(pair.elts[0]) for pair in _assigned("tracer.py", "TRACED").elts]


def _required_names():
    required = ast.literal_eval(_assigned("run.py", "REQUIRED_CALLS"))
    return sorted({name for names in required.values() for name in names})


def test_bench_names_were_read():
    traced, required = _traced_names(), _required_names()
    assert len(traced) >= 10 and "closure.solve_premium_bisection" in traced
    assert set(required) <= set(traced)


@pytest.mark.parametrize("name", sorted(set(_traced_names()) | set(_required_names())))
def test_bench_name_resolves_to_a_callable(name):
    # the tracer's rule: "layer.function" is a module function, and
    # "layer.Class.method" a method looked up in the class's own namespace
    layer, *attr = name.split(".")
    owner = importlib.import_module(f"debtregime.{layer}")
    assert 1 <= len(attr) <= 2, name
    if len(attr) == 2:
        cls = getattr(owner, attr[0])
        fn = cls.__dict__[attr[1]]
    else:
        fn = getattr(owner, attr[0])
    assert callable(fn), name
