"""Budgets for the package's settable values and a training step's op nodes.

A settable value is a function parameter with a default or a dataclass
field with a default, counted by an ``ast`` walk of ``src/tsrm``. Each one
is an option some caller could set; the budget keeps new ones from
arriving unnoticed. An op node is a tensor with a backward function in the
graph one pretraining loss backpropagates through; each costs a numpy call
or more in the forward and again in the backward. Lower a bound when a
change removes some.
"""

import ast
from pathlib import Path

import numpy as np

import tsrm
from tsrm.model import ModelConfig, TsrmModel
from tsrm.pretraining import build_pretrain_batch, pretrain_loss

SETTABLE_VALUES_MAX = 99
# the count at the smoke shape (two layers, one branch, vanilla attention);
# it depends on the layer, branch and attention layout, not on T, f_embed or B
NODES_PER_STEP_MAX = 175


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


def count_op_nodes(root) -> int:
    """Nodes with a backward function among those ``root.backward()`` visits."""
    seen, stack, count = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += node._backward is not None
        stack.extend(p for p in node._parents if p.requires_grad)
    return count


def test_op_nodes_per_step_within_budget():
    cfg = ModelConfig(T=32, F=1, f_embed=8, n_layers=2, heads=2, attention="vanilla",
                      branches=[{"kernel": 5, "dilation": 1}])
    rng = np.random.default_rng(0)
    values = rng.uniform(size=(2, cfg.T, 1))
    batch = build_pretrain_batch(values, np.ones(values.shape, dtype=bool), rng)
    trace = TsrmModel(cfg).forward(batch.model_input, training=True, rng=rng)
    loss, _ = pretrain_loss(trace, batch, cfg.alpha, cfg.beta, cfg.gamma)
    nodes = count_op_nodes(loss)
    assert nodes <= NODES_PER_STEP_MAX, (
        f"a pretraining step records {nodes} op nodes, the budget is {NODES_PER_STEP_MAX}")
