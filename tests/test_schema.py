"""The schema checker behind ``config._schema_check``, against jsonschema's
Draft 2020-12 validator as its oracle."""

import copy
import math
import re

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from microdse import config as cfgmod
from microdse.cli import _REPORT_SCHEMA

#: A ``metrics.json`` that ``report`` accepts.
METRICS = {
    "scenario": "x",
    "seed": 1,
    "channels": {
        "v_d1": {
            "kind": "local",
            "windows": [
                {
                    "window_s": [1.0, 2.0],
                    "rmse_estimate": 1.0,
                    "rmse_measurement": 4.0,
                    "improvement_ratio": 0.25,
                },
                {
                    "window_s": [2.5, 4.0],
                    "rmse_estimate": 2.0,
                    "rmse_measurement": 5.0,
                    "improvement_ratio": None,
                },
            ],
        }
    },
    "innovation": {"local_bus1": {"mean_nis": 4.0, "dim": 4}},
    "tracking": {"local_bus1": [{"event_time_s": 2.0, "recovery_time_s": None}]},
}
DOCS = {
    "scenario": (cfgmod.bundled_config_dict(), cfgmod.load_schema()),
    "metrics": (METRICS, _REPORT_SCHEMA),
}


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, (*path, key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, (*path, index))


# Python's json reads NaN and Infinity, so a parsed file can hold them
VALUES = [
    None, True, False, 0, 1, -1, 2, 0.0, -0.0, 1.0, 2.5, -2.5, 1e-300,
    math.nan, math.inf, -math.inf, "", "x", "zero", "euler", [], [0.0], [1.0, 2.0], {},
    {"x": 1},
]
KEYS = ["extra", "name", "start", "output", "metrics", "kind", "input_std", "dim"]


def _mutated(doc, mutations):
    """``doc`` with each ``(op, path, key, value)`` applied in turn: ``set``
    the node at ``path`` to ``value``, ``drop`` it, ``add`` ``key`` to it,
    or ``grow`` it, a list, by a copy of its last item.  A path that an
    earlier mutation removed is skipped."""
    doc = copy.deepcopy(doc)
    for op, path, key, value in mutations:
        parent, node = None, doc
        for step in path:
            if not (isinstance(node, dict) and step in node
                    or isinstance(node, list) and isinstance(step, int) and step < len(node)):
                break
            parent, node = node, node[step]
        else:
            value = copy.deepcopy(value)
            if op == "set" and parent is not None:
                parent[path[-1]] = value
            elif op == "drop" and parent is not None:
                del parent[path[-1]]
            elif op == "add" and isinstance(node, dict):
                node[key] = value
            elif op == "grow" and isinstance(node, list) and node:
                node.append(copy.deepcopy(node[-1]))
    return doc


def _checker_verdict(instance, schema):
    try:
        cfgmod._schema_check(instance, schema, "document")
    except cfgmod.ConfigError as exc:
        return str(exc)
    return None


def _oracle_verdict(instance, schema):
    errors = jsonschema.Draft202012Validator(schema).iter_errors(instance)
    errors = sorted(errors, key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    path = ".".join(str(p) for p in errors[0].absolute_path) or "$"
    return f"invalid document at {path}: {errors[0].message}"


def _cases(name):
    mutation = st.tuples(
        st.sampled_from(["set", "drop", "add", "grow"]),
        st.sampled_from(list(_paths(DOCS[name][0]))),
        st.sampled_from(KEYS),
        st.sampled_from(VALUES),
    )
    return st.tuples(st.just(name), st.lists(mutation, min_size=1, max_size=3))


_NIS = ("innovation", "local_bus1", "mean_nis")
_DIM = ("innovation", "local_bus1", "dim")
_WINDOW = ("channels", "v_d1", "windows", 0, "window_s")
_STD = ("simulation", "noise", "dgu", "process_std")


@settings(deadline=None)
@given(case=st.one_of(_cases("scenario"), _cases("metrics")))
# drop, add or retype a key
@example(case=("scenario", [("drop", ("simulation", "seed"), None, None)]))
@example(case=("scenario", [("add", ("topology",), "extra", 1)]))
@example(case=("scenario", [("add", ("topology",), "output", 1), ("add", ("topology",), "extra", 1)]))
@example(case=("scenario", [("set", ("topology", "dgus"), None, {"x": 1})]))
@example(case=("metrics", [("drop", ("channels", "v_d1", "windows", 0, "rmse_estimate"), None, None)]))
@example(case=("metrics", [("add", ("innovation", "local_bus1"), "extra", 1)]))
@example(case=("metrics", [("set", ("channels",), None, [1])]))
# NaN and +-Infinity
@example(case=("scenario", [("set", ("simulation", "duration_s"), None, math.nan)]))
@example(case=("scenario", [("set", ("topology", "frequency_hz"), None, math.inf)]))
@example(case=("scenario", [("set", ("simulation", "step_s"), None, -math.inf)]))
@example(case=("metrics", [("set", _NIS, None, math.nan)]))
@example(case=("metrics", [("set", _NIS, None, -math.inf)]))
# true where a number is expected
@example(case=("scenario", [("set", ("simulation", "controller", "kp"), None, True)]))
@example(case=("metrics", [("set", _NIS, None, True)]))
# 1.0 and 2.5 where an integer is expected
@example(case=("scenario", [("set", ("simulation", "seed"), None, 1.0)]))
@example(case=("scenario", [("set", ("topology", "lines", 1, "to_bus"), None, 2.5)]))
@example(case=("metrics", [("set", _DIM, None, 1.0)]))
@example(case=("metrics", [("set", _DIM, None, 2.5)]))
# one item past minItems and maxItems
@example(case=("scenario", [("drop", (*_STD, 0), None, None)]))
@example(case=("scenario", [("set", ("simulation", "controller", "reference_scale"), None, [])]))
@example(case=("scenario", [("grow", _STD, None, None)]))
@example(case=("scenario", [("grow", ("simulation", "loads", "initial_amps", 0), None, None)]))
@example(case=("metrics", [("drop", (*_WINDOW, 0), None, None)]))
@example(case=("metrics", [("grow", _WINDOW, None, None)]))
# exactly at minimum and exclusiveMinimum
@example(case=("scenario", [("set", ("simulation", "duration_s"), None, 0)]))
@example(case=("scenario", [("set", ("topology", "dgus", 1, "bus"), None, 1)]))
@example(case=("scenario", [("set", ("simulation", "step_s"), None, 0)]))
@example(case=("scenario", [("set", ("topology", "lines", 0, "r_ohm"), None, 0.0)]))
# outside an enum
@example(case=("scenario", [("set", ("estimation", "discretization"), None, "zero")]))
@example(case=("scenario", [("add", ("simulation",), "start", "euler")]))
# several errors: the first in path order, then in the schema's order
@example(case=("scenario", [
    ("drop", ("simulation", "seed"), None, None),
    ("drop", ("simulation", "step_s"), None, None),
    ("add", ("simulation",), "extra", 1),
]))
def test_checker_gives_the_oracles_verdict_and_first_path(case):
    name, mutations = case
    doc, schema = DOCS[name]
    instance = _mutated(doc, mutations)
    assert _checker_verdict(instance, schema) == _oracle_verdict(instance, schema)


_ENUM = {"enum": [1, True, [1, False], {"a": 0}, None, "x"]}


@pytest.mark.parametrize(
    "schema, instance",
    [
        *((_ENUM, value) for value in [
            1, 1.0, True, False, 0, None, "x", "1", [1, False], [1, 0], [True, False],
            {"a": 0}, {"a": False}, math.nan,
        ]),
        ({"maxItems": 0}, [1]),
        ({"maxItems": 0}, []),
    ],
)
def test_cases_the_documents_do_not_reach_get_the_oracles_verdict(schema, instance):
    assert _checker_verdict(instance, schema) == _oracle_verdict(instance, schema)


@pytest.mark.parametrize(
    "schema, message",
    [
        # refused where no instance reaches it
        ({"properties": {"a": {"type": "string", "pattern": "^x"}}}, "keyword 'pattern'"),
        ({"items": {"$ref": "#/definitions/a"}}, "reference '#/definitions/a'"),
        ({"type": ["number", "float"]}, "type ['number', 'float']"),
        ({"items": False}, "schema at #/items is not an object"),
    ],
    ids=["pattern", "ref-off-defs", "unknown-type", "boolean-schema"],
)
def test_schema_the_checker_does_not_cover_is_refused(schema, message):
    with pytest.raises(NotImplementedError, match=re.escape(message)):
        cfgmod._schema_check({}, schema)


def test_bundled_schema_is_parsed_once(monkeypatch):
    cfgmod.load_schema.cache_clear()
    reads = []
    data_text = cfgmod._data_text
    monkeypatch.setattr(cfgmod, "_data_text", lambda name: reads.append(name) or data_text(name))
    for _ in range(3):
        cfgmod.load_scenario_dict(cfgmod.bundled_config_dict())
    assert reads.count("config.schema.json") == 1
