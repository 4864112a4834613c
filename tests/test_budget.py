"""Budget for the package's settable values.

A settable value is a function parameter with a default or a dataclass
field with a default, counted by an ``ast`` walk of ``src/tsrm``. Each one
is an option some caller could set; the budget keeps new ones from
arriving unnoticed. Lower the bound when a change removes some.
"""

import ast
from pathlib import Path

import tsrm

SETTABLE_VALUES_MAX = 101


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if getattr(target, "id", None) == "dataclass" or getattr(target, "attr", None) == "dataclass":
            return True
    return False


def count_settable_values(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def test_counter_counts_defaults_and_dataclass_fields():
    source = '''
from dataclasses import dataclass, field

def f(a, b=1, *args, c, d=2, **kw):
    g = lambda x, y=3: x
    return g

@dataclass(frozen=True)
class C:
    x: int
    y: int = 0
    z: list = field(default_factory=list)
    w = 5

class Plain:
    v: int = 1
'''
    # b, d, the lambda's y, and the dataclass's y and z
    assert count_settable_values(source) == 5


def test_settable_values_within_budget():
    package = Path(tsrm.__file__).parent
    total = sum(count_settable_values(p.read_text(encoding="utf-8"))
                for p in sorted(package.glob("*.py")))
    assert total <= SETTABLE_VALUES_MAX, (
        f"src/tsrm has {total} settable values, the budget is {SETTABLE_VALUES_MAX}")
