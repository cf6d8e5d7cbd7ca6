"""The benchmark's tracer (``perfbench/tracing.py``) wraps lsar functions by
name; a renamed or deleted entry point must fail here, not only in a traced
benchmark run, and so must a change that makes the benchmark's own output
checks fail on its tiny inputs.  No name or dataclass field defined in
``src/lsar`` may exist for tests alone, no CLI flag may go unread, and
LAPACK and BLAS are reached only through the routines README names."""

import argparse
import ast
import glob
import importlib.util
import os
import re
import sys

import pytest

import lsar.cli
import lsar.recursion

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
README = os.path.join(ROOT, "README.md")
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")
SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "lsar", "*.py")))
# Flags that their command accepts without reading them, with the reason.
UNREAD_FLAGS = {
    "eval bounds --seed": "perfbench/workloads.py passes it; drop both in the next "
                          "benchmark change",
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def test_tracer_finds_every_entry_point():
    tracing = _load_tracing()
    original = lsar.recursion.approximate_sweep
    with tracing.Tracer() as tracer:
        assert lsar.recursion.approximate_sweep is not original
    assert tracer.missing == []
    assert lsar.recursion.approximate_sweep is original


def test_every_definition_has_a_caller_in_src():
    # A top-level function or class must be read by name or attribute, and
    # a method by attribute, somewhere in src/lsar other than the package's
    # re-exports; names the tracer wraps by string count as read.
    names, attributes = set(), set()
    for path in SOURCES:
        if os.path.basename(path) == "__init__.py":
            continue
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    traced = set()
    for node in ast.walk(_parse(TRACING)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            traced.update(re.findall(r"\w+", node.value))
    dead = []
    for path in SOURCES:
        module = os.path.basename(path)[:-3]
        for node in _parse(path).body:
            if _unread(node, names | attributes | traced):
                dead.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                dead += [f"{module}.{node.name}.{item.name}" for item in node.body
                         if _unread(item, attributes | traced)]
    assert dead == []


def test_every_dataclass_field_is_read():
    # A field must be read as an attribute somewhere in src/lsar other than
    # the package's re-exports, or by the tracer's count hooks.
    attributes = set()
    for path in SOURCES + [TRACING]:
        if os.path.basename(path) != "__init__.py":
            attributes.update(node.attr for node in ast.walk(_parse(path))
                              if isinstance(node, ast.Attribute))
    unread = []
    for path in SOURCES:
        module = os.path.basename(path)[:-3]
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef) and any(
                    getattr(d, "func", d).id == "dataclass" for d in node.decorator_list):
                unread += [f"{module}.{node.name}.{item.target.id}" for item in node.body
                           if isinstance(item, ast.AnnAssign)
                           and item.target.id not in attributes]
    assert unread == []


def _unread(node, read):
    """True for a function or class, not a dunder, whose name is not in ``read``."""
    return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not re.fullmatch(r"__\w+__", node.name) and node.name not in read)


def test_lapack_and_blas_only_through_the_routines_readme_names():
    # src/lsar reaches scipy's wrappers as ``<module>.lapack.<routine>`` and
    # ``<module>.blas.<routine>``, each routine from one call site.
    called = []
    for path in SOURCES:
        for node in ast.walk(_parse(path)):
            wrapper = getattr(node, "value", None)
            if (isinstance(node, ast.Attribute)
                    and getattr(wrapper, "attr", getattr(wrapper, "id", None))
                    in ("lapack", "blas")):
                called.append(node.attr)
    with open(README, encoding="utf-8") as fh:
        named = re.search(r"LAPACK/BLAS routines \(([^)]*)\)", fh.read().replace("\n", " "))
    assert named is not None
    assert sorted(called) == sorted(re.findall(r"`(\w+)`", named.group(1)))


def _commands(parser, name=""):
    """(name, parser) of each command and each ``eval`` study."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub_name, sub in action.choices.items():
                yield from _commands(sub, f"{name} {sub_name}".strip())
            return
    yield name, parser


def test_every_flag_is_read_by_its_handler():
    # A flag's dest must be read as ``args.<dest>`` by the command's handler
    # or by a cli function it calls, directly or not.  Flags that one mode of
    # a command does not read (the theoretical rule's under --fraction,
    # --sampled's under pacf --exact) are beyond this check; test_cli's
    # usage-error cases cover them.
    functions = {node.name: node for node in _parse(lsar.cli.__file__).body
                 if isinstance(node, ast.FunctionDef)}

    def reads(name, seen):
        if name in seen or name not in functions:
            return set()
        seen.add(name)
        read = set()
        for node in ast.walk(functions[name]):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                read.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                read |= reads(node.func.id, seen)
        return read

    unread = []
    for command, parser in _commands(lsar.cli.build_parser()):
        read = reads(parser.get_default("func").__name__, set())
        unread += [f"{command} {action.option_strings[0]}" for action in parser._actions
                   if action.dest != "help" and action.dest not in read]
    assert unread == list(UNREAD_FLAGS)


@pytest.mark.parametrize("name", ["ingest_long", "deep_order"])
def test_tiny_benchmark_ops_pass_their_checks(tmp_path, name):
    # The benchmark's ops at tiny sizes, through lsar.cli.main in this
    # process, over the sampler seeds of a run's first 20 ops.
    if os.path.abspath(ROOT) not in sys.path:
        sys.path.insert(0, os.path.abspath(ROOT))
    from perfbench import inputs, run

    workload = run.WORKLOADS[name](tiny=True)
    inp = inputs.prepare(str(tmp_path), name, 1, workload.n_obs)
    problems = []
    for i in range(20):
        outdir = str(tmp_path / f"op{i}")
        op = run.run_op_inprocess(workload, inp, outdir, run.sampler_seed(1, i))
        problems += [f"op {i}: {p}" for p in run.check_op(workload, inp, outdir, op)[0]]
    assert problems == []
