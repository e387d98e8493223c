import enum
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mhi.cli import timeline_to_json
from mhi.serialize import dump_bytes, dumps, format_float


def test_scalars():
    assert dumps(None) == "null"
    assert dumps(True) == "true"
    assert dumps(False) == "false"
    assert dumps(42) == "42"
    assert dumps(-1.5) == "-1.5"
    assert dumps("a\"b") == '"a\\"b"'


def test_float_round_trip_exact():
    rng = np.random.Generator(np.random.PCG64(31))
    for _ in range(200):
        value = float(rng.standard_normal() * 10.0 ** rng.integers(-20, 20))
        assert float(format_float(value)) == value


def test_non_finite_rejected():
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            dumps(value)


def test_numpy_scalars_and_arrays():
    assert dumps(np.int64(3)) == "3"
    assert dumps(np.float64(0.5)) == "0.5"
    doc = dumps(np.array([1.0, 2.0]))
    assert json.loads(doc) == [1.0, 2.0]
    nested = dumps(np.arange(4).reshape(2, 2))
    assert json.loads(nested) == [[0, 1], [2, 3]]


def test_dict_insertion_order_kept():
    doc = dumps({"b": 1, "a": 2})
    assert doc.index('"b"') < doc.index('"a"')


def test_empty_containers():
    assert dumps([]) == "[]"
    assert dumps({}) == "{}"


def test_output_is_valid_json():
    obj = {"name": "m", "values": [1, 2.5, None, True], "inner": {"k": [[]]}}
    assert json.loads(dumps(obj)) == obj


def test_dump_bytes_trailing_newline():
    data = dump_bytes({"x": 1})
    assert data.endswith(b"\n")
    assert json.loads(data) == {"x": 1}


def test_deterministic_bytes():
    obj = {"w": np.linspace(0, 1, 7), "b": [np.float64(1e-17)]}
    assert dump_bytes(obj) == dump_bytes(obj)


def test_unserializable_type():
    with pytest.raises(TypeError):
        dumps(object())


# --- the writer against the one it replaced ---

def dumps_before(obj, indent=0):
    """The former recursive writer, kept as the oracle of ``dumps``."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dumps_before(item, indent + 2) for item in obj]
        return "[\n" + ",\n".join(inner + i for i in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {dumps_before(v, indent + 2)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


class Level(enum.IntEnum):
    LOW = 1


class Tag(str):
    pass


def outcome(write, obj):
    try:
        return write(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


floats = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308]))
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), floats, st.text(max_size=5),
    st.integers(-2**63, 2**63 - 1).map(np.int64), floats.map(np.float64),
    st.booleans().map(np.bool_), st.just(Level.LOW), st.text(max_size=3).map(Tag),
    st.lists(floats, max_size=4).map(np.array), floats.map(np.array),
    st.just(object()),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(floats, max_size=8),   # the all-float path
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers(-9, 9)), children,
                        max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(values)
@example([1e308, 1e308, -0.0])  # the largest finite floats and a signed zero
@example([1.0, math.nan, object()])  # the first bad item raises
@example({"w": [[0.5, math.inf]], 3: np.array(2.5)})
def test_dumps_matches_former_writer(obj):
    assert outcome(dumps, obj) == outcome(dumps_before, obj)


# --- the fixed-schema timeline writer of ``mhi predict`` ---

def timeline_entry(start, end, label, score, count, warning):
    """One entry laid out as ``predict_windows`` returns it."""
    return {"start_frame": start, "end_frame": end, "label": label, "score": score,
            "diagnostic": {"component_count": count, "warning": warning}}


counts = st.integers(0, 2**40)
finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308]))
entries = st.lists(st.builds(timeline_entry, counts, counts, st.text(), finite, counts,
                             st.booleans()), max_size=6)


@settings(max_examples=300, deadline=None)
@given(entries)
@example([])
@example([timeline_entry(0, 2**40, 'a"\\\x00\x1fé \U0001f600', -0.0, 0, True),
          timeline_entry(3, 4, "", 5e-324, 2**40, False)])
def test_timeline_writer_matches_dumps(entries):
    assert timeline_to_json(entries) == dumps(entries) + "\n"


@pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
def test_timeline_writer_refuses_a_non_finite_score(score):
    entries = [timeline_entry(0, 1, "a", 0.5, 1, False), timeline_entry(1, 2, "b", score, 1, True)]
    with pytest.raises(ValueError, match="non-finite"):
        timeline_to_json(entries)
