"""Synthetic clip generation: spec validation, motion laws, determinism."""

import json

import numpy as np
import pytest

from mhi.errors import SynthSpecError
from mhi.imgio import load_manifest_file, load_sequence, read_pgm_file
from mhi.synth import (
    PIXEL_BUDGET,
    TOTAL_PIXEL_BUDGET,
    SynthSpec,
    generate,
    parse_specs,
    render_clip,
    specs_to_json,
    three_class_specs,
)


def column_center(frame):
    ys, xs = np.nonzero(frame)
    return xs.mean()


def row_center(frame):
    ys, xs = np.nonzero(frame)
    return ys.mean()


# --- spec validation ---

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(name="", program="translate", dx=1),
        dict(name="x", program="spin"),
        dict(name="x", program="translate", dx=1, frames=1),
        dict(name="x", program="translate", dx=1, size=4),
        dict(name="x", program="translate", dx=1, rect=1),
        dict(name="x", program="translate", dx=1, rect=63),
        dict(name="x", program="translate", dx=1, count=0),
        dict(name="x", program="translate", dx=0, dy=0),
        dict(name="x", program="oscillate", axis="z"),
        dict(name="x", program="oscillate", period=1),
        dict(name="x", program="expand_contract", rate=0),
        dict(name="x", program="translate", frames=2.5),
        dict(name="x", program="translate", size=64.0),
        dict(name="x", program="translate", count=2.0),
        dict(name="x", program="translate", count=True),
        dict(name="x", program="translate", seed=-1),
        dict(name=5, program="translate"),
        dict(name="a/../../x", program="translate"),
        dict(name="a\0b", program="translate"),
        dict(name="x", program="translate", axis=0),
        dict(name="x", program="oscillate", period=2.5),
        dict(name="x", program="translate", dx=1.5),
        dict(name="x", program="translate", frames=10**30),
        dict(name="x", program="translate", size=2**16),
        dict(name="x", program="translate", frames=2**31 // 64**2 + 1),
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(SynthSpecError):
        SynthSpec(**kwargs)


def test_pixel_budget_bound_is_inclusive():
    # Built only, never rendered: the clip would take 2 GiB.
    spec = SynthSpec(name="x", program="translate", frames=2**31 // 64**2)
    assert spec.frames * spec.size**2 == PIXEL_BUDGET


def test_parse_specs_rejects_a_repeated_name():
    text = json.dumps([{"name": n, "program": "translate"} for n in ("a", "b", "a")])
    with pytest.raises(SynthSpecError, match=r"^spec 2: name 'a' repeats spec 0$"):
        parse_specs(text)


def test_total_pixel_budget_bound_is_inclusive():
    # Parsed only, never rendered: the clips would take 8 GiB.
    spec = {"name": "x", "program": "translate", "frames": 2**11, "size": 2**10, "count": 4}
    (parsed,) = parse_specs(json.dumps([spec]))
    assert parsed.count * parsed.frames * parsed.size**2 == TOTAL_PIXEL_BUDGET
    tiny = {"name": "y", "program": "translate", "frames": 2, "size": 8, "rect": 4}
    with pytest.raises(SynthSpecError, match=rf"^the specs total {2**33 + 128} pixels"):
        parse_specs(json.dumps([spec, tiny]))


def test_parse_specs_round_trip():
    specs = three_class_specs(count=3, seed=5)
    parsed = parse_specs(specs_to_json(specs))
    assert parsed == specs


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "{}",
        "[]",
        "[1]",
        '[{"name": "x", "program": "translate", "dx": 1, "bogus": 2}]',
        '[{"name": "x"}]',
    ],
)
def test_parse_specs_rejects(text):
    with pytest.raises(SynthSpecError):
        parse_specs(text)


def test_three_class_specs_shape():
    specs = three_class_specs(frames=30, size=64, rect=12, count=20, seed=40)
    assert [s.name for s in specs] == ["slide", "sway", "pulse"]
    assert [s.program for s in specs] == ["translate", "oscillate", "expand_contract"]
    assert [s.seed for s in specs] == [40, 41, 42]
    assert all(s.count == 20 for s in specs)


# --- rendering ---

def test_render_clip_deterministic():
    spec = SynthSpec(name="t", program="translate", dx=2, frames=10, seed=3)
    first = render_clip(spec, replicate=4)
    second = render_clip(spec, replicate=4)
    np.testing.assert_array_equal(first, second)
    other = render_clip(spec, replicate=5)
    assert not np.array_equal(first, other)


def test_render_clip_binary_frames():
    spec = SynthSpec(name="t", program="oscillate", axis="x", frames=8, seed=0)
    clip = render_clip(spec)
    assert clip.dtype == np.uint8
    assert set(np.unique(clip)) <= {0, 255}
    for frame in clip:
        assert frame.any()


def test_translate_position_law():
    # x advances by dx per frame, plus at most 1px of jitter on each frame.
    spec = SynthSpec(name="t", program="translate", dx=2, dy=0, frames=20, seed=1)
    clip = render_clip(spec)
    centers = [column_center(f) for f in clip]
    steps = np.diff(centers)
    assert np.all(np.abs(steps - 2.0) <= 2.0)
    assert abs(np.mean(steps) - 2.0) < 0.5
    rows = [row_center(f) for f in clip]
    assert np.ptp(rows) <= 2.0


def test_translate_reflects_at_edges():
    spec = SynthSpec(
        name="t", program="translate", dx=5, dy=0, frames=40, size=32, rect=8, seed=2
    )
    clip = render_clip(spec)
    centers = np.array([column_center(f) for f in clip])
    steps = np.diff(centers)
    assert steps.max() > 0 and steps.min() < 0  # direction flips at the wall
    assert centers.min() >= 3.0 and centers.max() <= 28.0


def test_oscillate_moves_one_axis_with_period():
    spec = SynthSpec(name="o", program="oscillate", axis="y", period=10,
                     frames=30, seed=4)
    clip = render_clip(spec)
    rows = np.array([row_center(f) for f in clip])
    cols = np.array([column_center(f) for f in clip])
    assert np.ptp(rows) > 6.0
    assert np.ptp(cols) <= 2.0
    # One period apart the body returns to roughly the same place.
    assert np.all(np.abs(rows[10:] - rows[:-10]) <= 3.0)


def test_expand_contract_pulses_in_place():
    spec = SynthSpec(name="p", program="expand_contract", rate=2, frames=30, seed=5)
    clip = render_clip(spec)
    areas = np.array([int((f > 0).sum()) for f in clip])
    rows = np.array([row_center(f) for f in clip])
    cols = np.array([column_center(f) for f in clip])
    assert areas.max() > 1.5 * areas.min()
    assert np.ptp(rows) <= 2.0 and np.ptp(cols) <= 2.0
    growth = np.diff(areas)
    assert growth.max() > 0 and growth.min() < 0


def test_jitter_stays_within_frame():
    spec = SynthSpec(name="t", program="translate", dx=3, dy=3, frames=60,
                     size=24, rect=10, seed=6)
    clip = render_clip(spec)
    for frame in clip:
        assert frame.shape == (24, 24)
        assert int((frame > 0).sum()) == 100  # body never clipped at borders


# --- generation to disk ---

def test_generate_layout_and_manifest(tmp_path):
    specs = [
        SynthSpec(name="a", program="translate", dx=2, frames=5, count=2, seed=0),
        SynthSpec(name="b", program="oscillate", frames=4, count=1, seed=1),
    ]
    out = tmp_path / "clips"
    records = generate(specs, out)
    assert [r.dir for r in records] == ["a_000", "a_001", "b_000"]
    assert [r.label for r in records] == ["a", "a", "b"]
    assert records[0].start == 0 and records[0].end == 4

    loaded = load_manifest_file(out / "manifest.jsonl")
    assert loaded == [
        type(r)(dir=r.dir, start=r.start, end=r.end, label=r.label) for r in records
    ]
    seq = load_sequence(loaded[0], root=out)
    assert seq.frames.shape == (5, 64, 64)


def test_generate_deterministic_bytes(tmp_path):
    specs = [SynthSpec(name="a", program="expand_contract", frames=4, count=2, seed=9)]
    generate(specs, tmp_path / "one")
    generate(specs, tmp_path / "two")
    for sub in ("a_000", "a_001"):
        for i in range(4):
            first = (tmp_path / "one" / sub / f"{i:06d}.pgm").read_bytes()
            second = (tmp_path / "two" / sub / f"{i:06d}.pgm").read_bytes()
            assert first == second
    assert (tmp_path / "one" / "manifest.jsonl").read_bytes() == (
        tmp_path / "two" / "manifest.jsonl"
    ).read_bytes()


def test_generate_frames_readable(tmp_path):
    specs = [SynthSpec(name="a", program="translate", dx=1, frames=3, seed=2)]
    generate(specs, tmp_path)
    frame = read_pgm_file(tmp_path / "a_000" / "000000.pgm")
    assert frame.shape == (64, 64)
    assert frame.max() == 255
