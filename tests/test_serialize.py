"""Instance-file schema: round trips, determinism, strict validation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commlab import (
    DomainShape,
    InstanceBundle,
    JointDistribution,
    Protocol,
    SchemaError,
    TranscriptSelector,
    UncoveredCellError,
    approx_xor_relation,
    error_protocol_from_cover,
    load_am,
    load_instance,
    parity_tightness_protocol,
    random_bounded_cover,
    save_am,
    save_instance,
    thickness_table,
    trivial_merlin_am,
    windmill_cover,
    xor_function,
)
from commlab.serialize import (
    AMBundle,
    canonical_json,
    instance_from_text,
    instance_to_text,
)


def windmill_bundle(with_extras=False):
    protocol = Protocol(windmill_cover(), TranscriptSelector.min_index())
    if not with_extras:
        return InstanceBundle(protocol=protocol)
    shape = protocol.shape
    return InstanceBundle(
        protocol=protocol,
        distribution=JointDistribution.random_integer_weights(shape, seed=5),
    )


def test_windmill_round_trip(tmp_path):
    bundle = windmill_bundle()
    path = tmp_path / "windmill.json"
    save_instance(bundle, str(path))
    loaded = load_instance(str(path))
    assert loaded.protocol.shape.sizes == (4, 4)
    assert [b.masks for b in loaded.protocol.cover.boxes] == [
        b.masks for b in bundle.protocol.cover.boxes
    ]
    assert loaded.protocol.selector.kind == "min-index"


def test_save_is_byte_deterministic(tmp_path):
    bundle = windmill_bundle(with_extras=True)
    t1 = instance_to_text(bundle)
    t2 = instance_to_text(bundle)
    assert t1 == t2
    # and a reload serializes to the same bytes
    path = tmp_path / "x.json"
    save_instance(bundle, str(path))
    assert instance_to_text(load_instance(str(path))) == t1


def test_full_instance_round_trip():
    f = xor_function(1)
    protocol = parity_tightness_protocol(1)
    dist = JointDistribution.random_integer_weights(protocol.shape, seed=3)
    bundle = InstanceBundle(protocol=protocol, function=f, distribution=dist)
    loaded = instance_from_text(instance_to_text(bundle))
    assert np.array_equal(loaded.function.colors, f.colors)
    assert np.array_equal(loaded.distribution.p, dist.p)
    assert loaded.protocol.selector.table == protocol.selector.table


def test_relation_round_trip():
    rel = approx_xor_relation(2, 0.5)
    protocol = Protocol(
        random_bounded_cover(rel.shape, 2, 1, seed=1), TranscriptSelector.seeded(4)
    )
    bundle = InstanceBundle(protocol=protocol, relation=rel)
    loaded = instance_from_text(instance_to_text(bundle))
    assert loaded.relation.admissible == rel.admissible
    assert loaded.relation.num_colors == rel.num_colors
    assert loaded.protocol.selector.seed == 4


def test_error_protocol_round_trip():
    f = xor_function(1)
    from commlab import trivial_merlin_cover

    protocol = Protocol(trivial_merlin_cover(f.shape), TranscriptSelector.min_index())
    ep = error_protocol_from_cover(protocol, f)
    bundle = InstanceBundle(protocol=protocol, function=f, error=ep)
    loaded = instance_from_text(instance_to_text(bundle))
    assert np.array_equal(loaded.error.g_a, ep.g_a)
    assert np.array_equal(loaded.error.g_b, ep.g_b)


def test_am_round_trip(tmp_path):
    f = xor_function(2)
    am = trivial_merlin_am(f)
    path = tmp_path / "am.json"
    save_am(AMBundle(am=am, function=f), str(path))
    loaded = load_am(str(path))
    assert len(loaded.am.branches) == 1
    assert np.array_equal(loaded.function.colors, f.colors)
    assert np.array_equal(loaded.am.branches[0].g_a, am.branches[0].g_a)


def test_unknown_field_rejected():
    text = instance_to_text(windmill_bundle())
    import json

    obj = json.loads(text)
    obj["surprise"] = 1
    with pytest.raises(SchemaError) as err:
        instance_from_text(json.dumps(obj))
    assert "surprise" in str(err.value)


def test_schema_tag_required():
    import json

    obj = json.loads(instance_to_text(windmill_bundle()))
    obj["schema"] = "commlab-instance-v0"
    with pytest.raises(SchemaError):
        instance_from_text(json.dumps(obj))
    with pytest.raises(SchemaError):
        instance_from_text("not json at all")


def test_load_rejects_noncontaining_selector():
    import json

    shape = DomainShape((2, 2))
    obj = {
        "schema": "commlab-instance-v1",
        "arity": 2,
        "sizes": [2, 2],
        "rectangles": [[[0], [0, 1]], [[1], [0, 1]]],
        "selector": {"kind": "explicit", "table": [1, 0, 1, 1]},
    }
    with pytest.raises(Exception) as err:
        instance_from_text(json.dumps(obj))
    assert "(0, 0)" in str(err.value)


def test_load_rejects_uncovering_boxes():
    import json

    obj = {
        "schema": "commlab-instance-v1",
        "arity": 2,
        "sizes": [2, 2],
        "rectangles": [[[0], [0, 1]]],
        "selector": {"kind": "min-index"},
    }
    # Protocol refuses the cover, with an InvalidInputError like SchemaError's
    with pytest.raises(UncoveredCellError) as err:
        instance_from_text(json.dumps(obj))
    assert "(1, 0)" in str(err.value)


def test_errors_of_the_objects_built_name_their_place_and_keep_their_type():
    import json

    from commlab import InvalidInputError
    from commlab.serialize import am_from_text, am_to_text

    inst = {"schema": "commlab-instance-v1", "arity": 2, "sizes": [2, 2],
            "rectangles": [[[0], [0, 1]]], "selector": {"kind": "min-index"}}
    with pytest.raises(UncoveredCellError) as err:
        instance_from_text(json.dumps(inst), where="inst.json")
    assert str(err.value) == "inst.json: cell (1, 0) is covered by no box"
    inst["rectangles"].append([[1], [0, 1]])
    inst["function"] = {"kind": "explicit", "colors": [0, 2, 0, 0]}
    with pytest.raises(InvalidInputError) as err:
        instance_from_text(json.dumps(inst), where="inst.json")
    assert type(err.value) is InvalidInputError
    assert str(err.value) == "inst.json: color ids must be contiguous from 0"

    f = xor_function(1)
    am = json.loads(am_to_text(AMBundle(am=trivial_merlin_am(f), function=f)))
    am["function"]["colors"] = [0, 2, 0, 0]
    with pytest.raises(InvalidInputError) as err:
        am_from_text(json.dumps(am), where="am.json")
    assert str(err.value) == "am.json: color ids must be contiguous from 0"
    am["branches"][0]["g_a"][0][0] = -1
    with pytest.raises(InvalidInputError) as err:
        am_from_text(json.dumps(am), where="am.json")
    assert type(err.value) is InvalidInputError
    assert str(err.value) == "am.json.branches[0]: g_a undefined for a row of box 0"


def test_load_overlapping_boxes_min_index_ok():
    import json

    obj = {
        "schema": "commlab-instance-v1",
        "arity": 2,
        "sizes": [2, 2],
        "rectangles": [[[0, 1], [0, 1]], [[0, 1], [0, 1]]],
        "selector": {"kind": "min-index"},
    }
    bundle = instance_from_text(json.dumps(obj))
    assert thickness_table(bundle.protocol.cover).tolist() == [2, 2, 2, 2]


def test_load_accepts_kind_specs():
    import json

    obj = {
        "schema": "commlab-instance-v1",
        "arity": 2,
        "sizes": [2, 2],
        "rectangles": [[[0, 1], [0, 1]]],
        "selector": {"kind": "min-index"},
        "function": {"kind": "xor", "n": 1},
        "distribution": {"kind": "uniform"},
    }
    bundle = instance_from_text(json.dumps(obj))
    assert bundle.function.colors.tolist() == [[0, 1], [1, 0]]
    assert np.allclose(bundle.distribution.p, 0.25)


def test_load_rejects_float_where_int_expected():
    import json

    obj = {
        "schema": "commlab-instance-v1",
        "arity": 2,
        "sizes": [2, 2.0],
        "rectangles": [[[0, 1], [0, 1]]],
        "selector": {"kind": "min-index"},
    }
    with pytest.raises(SchemaError):
        instance_from_text(json.dumps(obj))


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_seventeen_digit_floats_round_trip(x):
    assert float(format(x, ".17g")) == x


@settings(max_examples=30, deadline=None)
@given(
    weights=st.lists(st.integers(min_value=0, max_value=100), min_size=4, max_size=4),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_distribution_round_trip_property(weights, seed):
    if sum(weights) == 0:
        weights = [1] + list(weights[1:])
    shape = DomainShape((2, 2))
    p = np.asarray(weights, dtype=np.float64)
    dist = JointDistribution(shape, p / p.sum())
    bundle = InstanceBundle(
        protocol=Protocol(
            random_bounded_cover(shape, 2, 1, seed=seed % 997),
            TranscriptSelector.seeded(seed),
        ),
        distribution=dist,
    )
    loaded = instance_from_text(instance_to_text(bundle))
    assert loaded.distribution.p.tolist() == dist.p.tolist()


def test_canonical_json_shape():
    text = canonical_json({"b": [1, 2], "a": 0.25, "c": {"x": None, "y": True}})
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert "0.25" in text and "null" in text and "true" in text


# ---------------------------------------------------------------------------
# Malformed files: each exits 2 with one "error:" line, never a traceback

_BASE = {
    "schema": "commlab-instance-v1",
    "arity": 2,
    "sizes": [2, 2],
    "rectangles": [[[0], [0]], [[0], [1]], [[1], [0]], [[1], [1]]],
    "selector": {"kind": "min-index"},
}
_XOR = {"kind": "xor", "n": 1}
_G_B = [[0, 0, 0, 0], [0, 0, 0, 0]]


def _file(**fields) -> bytes:
    return json.dumps({**_BASE, **fields}).encode()


def _am_file(**fields) -> bytes:
    return json.dumps({"schema": "commlab-am-v1", "function": _XOR, **fields}).encode()


_MALFORMED = {
    "int-5000-digits": _file().replace(b'"arity": 2', b'"arity": ' + b"9" * 5000),
    "nested-100000-deep": _file().replace(
        b'"sizes": [2, 2]', b'"sizes": ' + b"[" * 100_000 + b"]" * 100_000
    ),
    "not-utf8": _file().replace(b"min-index", b"min-ind\xe9x"),
    "sizes-scalar": _file(sizes=2),
    "rectangles-scalar": _file(rectangles=1),
    "factor-scalar": _file(rectangles=[[[0, 1], 1]]),
    "colors-scalar": _file(function={"kind": "explicit", "colors": 0}),
    "admissible-scalar": _file(relation={"kind": "explicit", "num_colors": 2, "admissible": 1}),
    "p-scalar": _file(distribution={"kind": "explicit", "p": 1}),
    "am-branches-scalar": _am_file(branches=1),
    "delta-string": _file(relation={"kind": "approx-xor", "n": 1, "delta": "x"}),
    "g_a-ragged": _file(function=_XOR, g_a=[[0, 0, 0, 0], [0]], g_b=_G_B),
    "color-2**70": _file(function={"kind": "explicit", "colors": [2**70, 0, 0, 0]}),
    "g_a-entry-2**70": _file(function=_XOR, g_a=[[2**70, 0, 0, 0], [0, 0, 0, 0]], g_b=_G_B),
    "selector-entry-2**70": _file(selector={"kind": "explicit", "table": [2**70, 1, 2, 3]}),
    "random-seed-negative": _file(function={"kind": "random", "num_colors": 2, "seed": -1}),
    "random-colors-10**30": _file(function={"kind": "random", "num_colors": 10**30, "seed": 0}),
    # these two loaded before: a bool or a string is not a number
    "p-bool-and-string": _file(distribution={"kind": "explicit", "p": [True, "0", 0, 0]}),
    "delta-bool": _file(relation={"kind": "approx-xor", "n": 1, "delta": True}),
    # a relation's masks are ints num_colors bits wide: these two ended in a
    # MemoryError and a negative shift count
    "relation-colors-2**40": _file(
        sizes=[1, 1],
        rectangles=[[[0], [0]]],
        relation={"kind": "explicit", "num_colors": 2**40, "admissible": [[0]]},
    ),
    "relation-colors-negative": _file(
        relation={"kind": "explicit", "num_colors": -1, "admissible": [[], [], [], []]}
    ),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_file_exits_two(name, tmp_path, capsys):
    from commlab.cli import main

    path = tmp_path / "bad.json"
    path.write_bytes(_MALFORMED[name])
    command = ["am"] if name.startswith("am-") else ["verify", "main"]
    assert main([*command, "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_selector_seed_range_ends_round_trip(seed, tmp_path, capsys):
    from commlab import selector_labels
    from commlab.cli import main

    path = str(tmp_path / "seeded.json")
    argv = ["gen", "--out", path, "--cover", "random-bounded", "--sizes", "4x4",
            "--selector", "seeded-random", "--selector-seed", str(seed)]
    assert main(argv) == 0
    loaded = load_instance(path)
    assert loaded.protocol.selector == TranscriptSelector.seeded(seed)
    made = Protocol(loaded.protocol.cover, TranscriptSelector.seeded(seed))
    assert selector_labels(loaded.protocol).tolist() == selector_labels(made).tolist()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_selector_seed_outside_the_range_is_refused(seed, tmp_path):
    from commlab.cli import main

    path = str(tmp_path / "seeded.json")
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--out", path, "--cover", "windmill",
              "--selector", "seeded-random", "--selector-seed", str(seed)])
    assert exc.value.code == 2
    obj = dict(_BASE, selector={"kind": "seeded-random", "seed": seed})
    with pytest.raises(SchemaError, match="seed"):
        instance_from_text(json.dumps(obj))
