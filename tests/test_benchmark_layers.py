"""The benchmark's tracer must find every function it wraps by name.

perfbench/spans.py wraps the public functions of each zeropair module at
run time and raises TraceError when one of them is missing, which would
stop every traced benchmark run.  Installing and uninstalling it here
catches a rename on the program side.  Its counters read arguments by
position and name, and attributes off the result; a reordered parameter or
a renamed result field would make them count the wrong thing or raise, so
those reads are checked against the signatures and return types too.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
import typing
from pathlib import Path

import pytest

from zeropair import conjectures, paircorr, zeros

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _wrapped(spec):
    """The function the tracer wraps for spec, found the way it finds it."""
    module = importlib.import_module(f"zeropair.{spec.module}")
    owner_name, _, attr = spec.qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    raw = vars(owner)[attr]
    return getattr(raw, "__func__", raw)


def _counter_reads(counters: dict[str, ast.FunctionDef], name: str):
    """The (position, name) of each _arg call in a counter, and the
    attributes it reads off result."""
    args, attrs = [], set()
    for node in ast.walk(counters[name]):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_arg":
            args.append((node.args[2].value, node.args[3].value))
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "result":
            attrs.add(node.attr)
    return args, attrs


def counter_mismatches(spans) -> tuple[list[str], int]:
    """Every counter read that the wrapped function does not match, and the
    number of _arg reads checked."""
    tree = ast.parse(SPANS.read_text())
    counters = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    problems, checked = [], 0
    for spec in spans.LAYERS:
        if spec.count is None:
            continue
        func = _wrapped(spec)
        params = list(inspect.signature(func).parameters)
        args, attrs = _counter_reads(counters, spec.count.__name__)
        checked += len(args)
        for pos, name in args:
            if params[pos : pos + 1] != [name]:
                problems.append(f"{spec.name}: counter reads {name!r} at {pos}, "
                                f"parameters are {params}")
        if attrs:
            ret = typing.get_type_hints(func).get("return")
            known = set(typing.get_type_hints(ret)) | set(dir(ret)) if isinstance(ret, type) else set()
            problems.extend(f"{spec.name}: counter reads result.{attr}, "
                            f"{getattr(ret, '__name__', ret)} has no such attribute"
                            for attr in sorted(attrs - known))
    return problems, checked


def test_every_layer_resolves_and_uninstalls(spans):
    original = zeros.zeros_for_modulus
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert zeros.zeros_for_modulus is not original
        assert zeros.zeros_for_modulus.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert zeros.zeros_for_modulus is original


def test_counter_reads_match_the_wrapped_functions(spans):
    problems, checked = counter_mismatches(spans)
    assert problems == []
    # every _arg call in spans.py sits in a counter that some spec uses
    calls = [node for node in ast.walk(ast.parse(SPANS.read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_arg"]
    assert checked == len(calls)


def test_counter_check_trips_on_a_planted_mismatch(spans, monkeypatch):
    def eh_sum(Q, x):  # the counter reads Q at position 1
        raise AssertionError("never called")

    def f_q_via_integral(q, a, x, T, zero_sets) -> paircorr.PairCorrResult:
        raise AssertionError("never called")

    monkeypatch.setattr(conjectures, "eh_sum", eh_sum)
    monkeypatch.setattr(paircorr, "f_q_via_integral", f_q_via_integral)
    problems, _ = counter_mismatches(spans)
    assert len(problems) == 2
    assert problems[0].startswith("conjectures.eh_sum: counter reads 'Q' at 1")
    assert problems[1] == ("paircorr.f_q_via_integral: counter reads result.node_count, "
                           "PairCorrResult has no such attribute")
