"""The config codec: arbitrary JSON given to a section's ``from_dict``
raises only ``ConfigError``, and every valid section round-trips through
``to_dict`` and JSON text."""

import copy
import functools
import json
import operator

import pytest
from hypothesis import assume, given, settings, strategies as st

from tsrm import BranchSpec, ConfigError, DatasetSpec, ModelConfig, TaskSpec, TrainConfig
from tsrm.attention import KINDS

# anything Python's json module parses, NaN and infinities included
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
EDGE_VALUES = [0, -1, 1, 0.5, 100.5, 1e308, 10 ** 400, float("nan"), float("inf"),
               float("-inf"), True, None, "", "x", [], [[1]], {}, {"x": 1}]
REMOVE = object()


def positions(value, path=()):
    """The key path of every entry of a JSON value, at any depth."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for k, v in items:
        yield path + (k,)
        yield from positions(v, path + (k,))


def replaced(value, path, new):
    """A copy of a JSON value with the entry at path set to new, or removed."""
    value = copy.deepcopy(value)
    *parents, key = path
    parent = functools.reduce(operator.getitem, parents, value)
    if new is REMOVE:
        del parent[key]
    else:
        parent[key] = new
    return value


small = st.integers(1, 4)
valid_branches = (st.builds(BranchSpec, kernel=st.integers(1, 5), dilation=small,
                            stride=st.none() | small)
                  | st.builds(BranchSpec, kernel_pct=st.floats(0.5, 10), stride=st.none() | small))


@st.composite
def valid_models(draw):
    heads = draw(small)
    kwargs = dict(T=draw(st.integers(48, 128)), F=draw(small), f_embed=heads * draw(small),
                  n_layers=draw(small), heads=heads,
                  branches=draw(st.lists(valid_branches, min_size=1, max_size=3)),
                  attention=draw(st.sampled_from(KINDS)),
                  probsparse_factor=draw(st.floats(0.5, 10)),
                  dropout_p=draw(st.floats(0, 0.9)), alpha=draw(st.floats(0, 10)),
                  beta=draw(st.floats(0, 10)), gamma=draw(st.floats(0, 10)),
                  num_classes=draw(small))
    try:
        return ModelConfig(**kwargs)
    except ConfigError:  # a representation too short for the classifier
        assume(False)


VALID = {
    BranchSpec: valid_branches,
    ModelConfig: valid_models(),
    TrainConfig: st.builds(TrainConfig, max_epochs=st.integers(1, 10 ** 6), batch_size=small,
                           initial_lr=st.floats(1e-9, 1), early_stop_rel=st.floats(0, 1),
                           early_stop_patience=small, scheduler_factor=st.floats(0.01, 0.99),
                           scheduler_patience=small, min_lr=st.floats(0, 1e-3),
                           grad_clip_norm=st.none() | st.floats(1e-3, 1e3),
                           seed=st.integers(0, 2 ** 63)),
    DatasetSpec: st.builds(DatasetSpec, feature_columns=st.none() | st.lists(st.text(max_size=4)),
                           window=st.integers(1, 10 ** 4), stride=st.integers(1, 10 ** 4),
                           split_fractions=st.sampled_from([(0.6, 0.2, 0.2), (0.7, 0.3, 0.0),
                                                            (1.0, 0.0, 0.0)]),
                           mask_per_feature=st.booleans(),
                           label_column=st.none() | st.text(max_size=4)),
    TaskSpec: st.builds(TaskSpec, st.just("forecast"), horizon=st.integers(0, 100),
                        input_len=st.integers(1, 500))
    | st.builds(TaskSpec, st.just("impute"), input_len=st.integers(1, 500))
    | st.builds(TaskSpec, st.just("classify"), num_classes=st.integers(1, 10)),
}

SECTIONS = pytest.mark.parametrize("cls", list(VALID), ids=lambda c: c.__name__)


def decode(cls, d):
    """from_dict may only reject d with a ConfigError; what it accepts
    round-trips through to_dict and JSON text."""
    try:
        section = cls.from_dict(d)
    except ConfigError:
        return
    again = cls.from_dict(json.loads(json.dumps(section.to_dict())))
    assert again == section
    assert again.to_dict() == section.to_dict()


@SECTIONS
@given(data=st.data())
def test_valid_sections_round_trip(cls, data):
    section = data.draw(VALID[cls])
    assert cls.from_dict(section.to_dict()) == section
    decode(cls, section.to_dict())


@SECTIONS
@given(data=st.data())
def test_arbitrary_json_raises_only_config_error(cls, data):
    d = data.draw(VALID[cls]).to_dict()
    d[data.draw(st.text(max_size=3))] = data.draw(json_values)  # often a stray key
    decode(cls, d)
    decode(cls, data.draw(json_values))
    decode(cls, replaced(d, data.draw(st.sampled_from(list(positions(d)))),
                         data.draw(json_values)))


@SECTIONS
@settings(max_examples=10)
@given(data=st.data())
def test_every_single_corruption_raises_only_config_error(cls, data):
    d = data.draw(VALID[cls]).to_dict()
    for path in positions(d):
        for new in [REMOVE, *EDGE_VALUES]:
            decode(cls, replaced(d, path, new))


@pytest.mark.parametrize("cls,d,message", [
    (ModelConfig, {"T": 24}, "lacks required keys"),
    (TaskSpec, {}, "lacks required keys"),
    (TrainConfig, {"seed": True}, "seed must be int"),
    (TrainConfig, {"initial_lr": float("nan")}, "initial_lr must be a finite number"),
    (TrainConfig, {"initial_lr": 10 ** 400}, "initial_lr must be a finite number"),
    (TrainConfig, {"early_stop": []}, "early_stop must be a JSON object"),
    (DatasetSpec, {"split_fractions": 0.5}, "split_fractions must be an array"),
    (DatasetSpec, {"feature_columns": ["v", 1]}, "feature_columns must be str"),
    (TaskSpec, {"kind": "impute", "input_len": 0}, "input_len must be positive"),
    (BranchSpec, {"kernel": 3.0}, "kernel must be int"),
    (BranchSpec, {"kernel_pct": 0}, r"kernel_pct must lie in \(0, 100\]"),
    (BranchSpec, {"kernel_pct": 100.5}, r"kernel_pct must lie in \(0, 100\]"),
    (ModelConfig, {"T": 24, "F": 1, "f_embed": 4, "n_layers": 1, "heads": 0,
                   "branches": [{"kernel": 3}]}, "heads must be positive"),
    (ModelConfig, {"T": 24, "F": 1, "f_embed": 4, "n_layers": 1, "heads": 2,
                   "branches": [{"kernel": 3, "stride": 0}]}, "stride must be >= 1"),
    (ModelConfig, {"T": 24, "F": 1, "f_embed": 4, "n_layers": 1, "heads": 2,
                   "branches": [{"kernel": 3}], "attention": "flash"},
     "unknown attention kind 'flash'"),
    (ModelConfig, {"T": 24, "F": 1, "f_embed": 4, "n_layers": 1, "heads": 2,
                   "branches": [{"kernel": 3}], "probsparse_factor": 0},
     "probsparse factor must be positive"),
])
def test_rejections_name_the_value(cls, d, message):
    with pytest.raises(ConfigError, match=message):
        cls.from_dict(d)


def test_directly_built_config_rejects_a_nan_probsparse_factor():
    # NaN passes a `<= 0` check; the prob-sparse u = ceil(c ln D) then fails
    with pytest.raises(ConfigError, match="probsparse factor must be positive"):
        ModelConfig(T=24, F=1, f_embed=4, n_layers=1, heads=2, branches=[{"kernel": 3}],
                    attention="probsparse", probsparse_factor=float("nan"))


def test_float_fields_keep_integers_as_written():
    # an integer in a float field is accepted and written back unchanged
    spec = BranchSpec.from_dict({"kernel_pct": 10, "dilation": 2})
    assert spec.to_dict() == {"kernel_pct": 10, "dilation": 2}
    assert type(spec.kernel_pct) is int
