import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowpose import (FlowField, InvalidInputError, SkeletonTopology,
                      bone_flow, compose_target_flow, rasterize_skeleton)

from oracles import (bone_flow_oracle, masked_bone_flow, masked_compose, raster_full_image,
                     raster_oracle)


def _line_topo():
    return SkeletonTopology(joint_count=2, bones=((0, 1),))


def test_single_bone_radius_zero_centerline():
    topo = _line_topo()
    joints = np.array([[0.0, 5.0], [10.0, 5.0]])
    raster = rasterize_skeleton(joints, topo, width=16, height=11, radius=0)
    expected = np.zeros((11, 16), bool)
    expected[5, 0:11] = True
    assert np.array_equal(raster.mask, expected)
    for x in range(11):
        assert raster.frac[5, x] == pytest.approx(x / 10.0, abs=1e-12)
        assert raster.owner[5, x] == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("far", [1e10, 1e300, 1.7e308])
@pytest.mark.parametrize("reverse", [False, True], ids=["out", "in"])
def test_a_bone_too_long_to_square_still_draws_its_segment(far, reverse):
    # from pixel (0, 0) toward a far joint on the diagonal, in either
    # direction: the diagonal is drawn within the 2**40 px reach, and a
    # joint beyond it is refused
    joints = [[0.0, 0.0], [far, far]]
    args = (joints[::-1] if reverse else joints, _line_topo())
    if far > 2.0 ** 40:
        with pytest.raises(InvalidInputError, match="^joints2d: "):
            rasterize_skeleton(*args, width=16, height=16, radius=0)
        return
    raster = rasterize_skeleton(*args, width=16, height=16, radius=0)
    assert np.array_equal(raster.mask, np.eye(16, dtype=bool))
    assert np.all(raster.owner[raster.mask] == 0)
    frac = np.arange(16) / far
    assert np.allclose(raster.frac[raster.mask], 1 - frac if reverse else frac,
                       rtol=1e-12, atol=0)


@pytest.mark.filterwarnings("error")
def test_a_joint_at_the_reach_draws_and_one_past_it_is_refused():
    # a row-5 bone from -2**40 to 2**40 px marks all 16 pixels of its row;
    # the next float past the reach, on either axis, sign or frame, raises
    reach = 2.0 ** 40
    raster = rasterize_skeleton([[-reach, 5.0], [reach, 5.0]], _line_topo(), 16, 16, 0)
    want = np.zeros((16, 16), bool)
    want[5] = True
    assert np.array_equal(raster.mask, want)
    past = np.nextafter(reach, np.inf)
    for joints in ([[-past, 5.0], [reach, 5.0]], [[0.0, 5.0], [past, 5.0]],
                   [[0.0, -past], [0.0, 5.0]], [[0.0, 5.0], [0.0, past]]):
        with pytest.raises(InvalidInputError, match="^joints2d: .* beyond 2\\*\\*40 px$"):
            rasterize_skeleton(joints, _line_topo(), 16, 16, 0)
        with pytest.raises(InvalidInputError, match="^joints2d: .* beyond 2\\*\\*40 px$"):
            bone_flow([[0.0, 5.0], [1.0, 5.0]], joints, _line_topo(), 16, 16, 0)


@pytest.mark.parametrize("call, name", [
    (lambda: rasterize_skeleton(np.zeros((2, 2)), 5, 4, 4, 1), "topo"),
    (lambda: rasterize_skeleton(np.zeros((2, 2)), None, 4, 4, 1), "topo"),
    (lambda: bone_flow(np.zeros((2, 2)), np.zeros((2, 2)), None, 4, 4, 1), "topo"),
    (lambda: bone_flow(np.zeros((2, 2)), np.zeros((2, 2)), ((0, 1),), 4, 4, 1), "topo"),
    (lambda: compose_target_flow(5, None, None), "base"),
    (lambda: compose_target_flow(np.zeros((4, 4, 2)), FlowField(np.zeros((4, 4, 2))),
                                 np.ones((4, 4), bool)), "base"),
    (lambda: compose_target_flow(FlowField(np.zeros((4, 4, 2))), None, None), "bone"),
    (lambda: compose_target_flow(FlowField(np.zeros((4, 4, 2))), np.zeros((4, 4, 2)),
                                 np.ones((4, 4), bool)), "bone"),
], ids=["raster-int", "raster-none", "sketch-none", "sketch-bones", "compose-int",
        "compose-array-base", "compose-none-bone", "compose-array-bone"])
def test_the_raster_entries_name_an_argument_of_the_wrong_class(call, name):
    with pytest.raises(TypeError, match=f"^{name} must be a "):
        call()


def test_empty_topology_empty_mask():
    topo = SkeletonTopology(joint_count=1, bones=())
    raster = rasterize_skeleton(np.zeros((1, 2)), topo, 8, 8, radius=3)
    assert not raster.mask.any()


def test_bone_outside_image_empty_mask():
    topo = _line_topo()
    joints = np.array([[-20.0, -20.0], [-5.0, -20.0]])
    raster = rasterize_skeleton(joints, topo, 16, 16, radius=15)
    assert not raster.mask.any()


def test_zero_area_image_rejected():
    with pytest.raises(InvalidInputError):
        rasterize_skeleton(np.zeros((2, 2)), _line_topo(), 0, 5, radius=1)


@pytest.mark.parametrize("name", ["width", "height", "radius"])
@pytest.mark.parametrize("value", [2.5, float("nan"), float("inf"), "abc", -1, True])
def test_non_count_size_or_radius_rejected(name, value):
    # none of these is truncated to an integer or escapes as a plain error
    joints = np.array([[1.0, 1.0], [3.0, 2.0]])
    size = {"width": 8, "height": 6, "radius": 1, name: value}
    with pytest.raises(InvalidInputError, match=name):
        rasterize_skeleton(joints, _line_topo(), **size)
    with pytest.raises(InvalidInputError, match=name):
        bone_flow(joints, joints, _line_topo(), **size)


def test_mask_monotone_in_radius():
    rng = np.random.default_rng(0)
    topo = SkeletonTopology(joint_count=4, bones=((0, 1), (1, 2), (1, 3)))
    joints = rng.uniform(0, 24, size=(4, 2))
    prev = None
    for radius in (0, 1, 3, 6):
        mask = rasterize_skeleton(joints, topo, 24, 24, radius).mask
        if prev is not None:
            assert np.all(mask[prev])  # superset of the smaller radius
        prev = mask


def test_radius_beyond_the_image_is_the_image_size():
    # a longer arm is a no-op, so a huge radius returns at once with the bits
    # of the shortest arm that reaches across the image
    joints = np.array([[0.0, 0.0], [1.0, 0.0]])     # a short bone in a corner
    want = rasterize_skeleton(joints, _line_topo(), 17, 13, radius=16)
    assert want.mask[0].all() and want.mask[:, :2].all() and not want.mask.all()
    for radius in (17, 10**30):
        got = rasterize_skeleton(joints, _line_topo(), 17, 13, radius)
        for a, b in ((got.mask, want.mask), (got.owner, want.owner), (got.frac, want.frac)):
            assert a.tobytes() == b.tobytes()


def _random_tree_topo(rng, joints):
    bones = tuple((int(rng.integers(0, j)), j) for j in range(1, joints))
    return SkeletonTopology(joint_count=joints, bones=bones)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_raster_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    joints_n = int(rng.integers(2, 6))
    topo = _random_tree_topo(rng, joints_n)
    joints = rng.uniform(-4, 28, size=(joints_n, 2))
    radius = int(rng.integers(0, 6))
    raster = rasterize_skeleton(joints, topo, 24, 24, radius)
    mask, owner, frac = raster_oracle(joints.tolist(), list(topo.bones), 24, 24, radius)
    assert np.array_equal(raster.mask, np.array(mask))
    for y in range(24):
        for x in range(24):
            if mask[y][x]:
                assert raster.owner[y, x] == owner[y][x]
                assert abs(raster.frac[y, x] - frac[y][x]) < 1e-9


@st.composite
def _skeletons(draw):
    """Random trees on images up to 96x96, radius 0-15.

    Coordinates mix free floats reaching past every side of the image,
    integers and half-integers (where pixels tie between bones), points in
    the band just outside an edge, far joints anywhere within the 2**40 px
    reach, and joints that coincide with an earlier one (zero-length bones).
    """
    width, height = draw(st.integers(1, 96)), draw(st.integers(1, 96))
    radius = draw(st.integers(0, 15))
    joints_n = draw(st.integers(1, 8))
    bones = tuple((draw(st.integers(0, j - 1)), j) for j in range(1, joints_n))

    def coord(size):
        reach = radius + 30
        return draw(st.one_of(
            st.floats(-reach, size - 1 + reach),
            st.integers(-reach, size - 1 + reach).map(float),
            st.integers(-reach, size - 1 + reach).map(lambda v: v + 0.5),
            st.floats(0.0, radius + 1.0).map(lambda d: -d),
            st.floats(0.0, radius + 1.0).map(lambda d: size - 1 + d),
            st.floats(-2.0 ** 40, 2.0 ** 40)))

    joints = []
    for j in range(joints_n):
        if j and draw(st.integers(0, 4)) == 0:
            joints.append(joints[draw(st.integers(0, j - 1))])
        else:
            joints.append((coord(width), coord(height)))
    return width, height, radius, bones, joints


@settings(max_examples=200, deadline=None)
@given(case=_skeletons())
# a bone just off each edge, within the radius of it
@example(case=(40, 30, 6, ((0, 1),), [(-3.0, 2.0), (-5.5, 25.0)]))
@example(case=(40, 30, 6, ((0, 1),), [(43.0, 2.0), (44.5, 25.0)]))
@example(case=(40, 30, 6, ((0, 1),), [(2.0, -6.5), (37.0, -1.0)]))
@example(case=(40, 30, 6, ((0, 1),), [(2.0, 30.0), (37.0, 35.5)]))
# coincident joints and exact ties between crossing bones on the lattice
@example(case=(24, 24, 3, ((0, 1), (0, 2), (2, 3)),
               [(12.0, 12.0), (12.0, 12.0), (4.0, 12.0), (12.0, 4.0)]))
@example(case=(17, 9, 0, ((0, 1), (1, 2)), [(0.5, 0.5), (8.5, 8.5), (16.5, 0.5)]))
# arms past the drawn radii: the doubling steps of 16 and 100 end short
# (1 + 2 + 4 + 8 + 1 and 1 + ... + 32 + 37), those of 31 do not; and an image
# narrower than its radius, with joints beyond it
@example(case=(96, 80, 16, ((0, 1), (1, 2)), [(10.0, 20.0), (50.5, 40.0), (90.0, 70.25)]))
@example(case=(70, 64, 31, ((0, 1), (0, 2)), [(35.0, 30.5), (-20.0, 10.0), (60.25, 63.0)]))
@example(case=(120, 100, 100, ((0, 1), (1, 2)), [(-90.0, 50.0), (3.5, 3.5), (30.0, 190.0)]))
@example(case=(9, 50, 20, ((0, 1), (1, 2)), [(-25.0, 4.0), (4.5, 25.0), (30.0, 45.5)]))
# bones across the image from joints at and near the reach
@example(case=(16, 16, 0, ((0, 1),), [(-2.0 ** 40, 5.0), (2.0 ** 40, 5.0)]))
@example(case=(40, 30, 3, ((0, 1), (1, 2)),
               [(-2.0 ** 40, -2.0 ** 40), (2.0 ** 40, 2.0 ** 40 - 1e6), (20.0, -1e12)]))
def test_raster_matches_full_image_reference(case):
    width, height, radius, bones, joints = case
    topo = SkeletonTopology(joint_count=len(joints), bones=bones)
    raster = rasterize_skeleton(np.array(joints), topo, width, height, radius)
    mask, owner, frac = raster_full_image(joints, bones, width, height, radius)
    assert np.array_equal(raster.mask, mask)
    assert np.array_equal(raster.owner, owner)
    assert np.array_equal(raster.frac.view(np.int64), frac.view(np.int64))


def test_bone_flow_static_skeleton_zero():
    topo = _line_topo()
    joints = np.array([[2.0, 3.0], [9.0, 3.0]])
    flow, mask = bone_flow(joints, joints, topo, 16, 8, radius=2)
    assert mask.any()
    assert np.all(flow.uv[mask] == 0.0)
    assert np.all(flow.uv[~mask] == 0.0)


def test_bone_flow_midpoint_interpolation():
    # Bone (0,0)->(10,0) moving to (0,0)->(10,10): the alpha=0.5 centerline
    # pixel must move by (0, 5).
    topo = _line_topo()
    a = np.array([[0.0, 0.0], [10.0, 0.0]])
    b = np.array([[0.0, 0.0], [10.0, 10.0]])
    flow, mask = bone_flow(a, b, topo, 16, 16, radius=0)
    assert mask[0, 5]
    assert np.allclose(flow.uv[0, 5], [0.0, 5.0], atol=1e-12)
    # cross-check the whole field against the oracle
    ref_flow, ref_mask = bone_flow_oracle(a.tolist(), b.tolist(),
                                          list(topo.bones), 16, 16, 0)
    assert np.array_equal(mask, np.array(ref_mask))
    for y in range(16):
        for x in range(16):
            assert abs(flow.uv[y, x, 0] - ref_flow[y][x][0]) < 1e-9
            assert abs(flow.uv[y, x, 1] - ref_flow[y][x][1]) < 1e-9


def test_bone_flow_rigid_translation_constant():
    rng = np.random.default_rng(4)
    topo = _random_tree_topo(rng, 5)
    a = rng.uniform(4, 20, size=(5, 2))
    d = np.array([2.5, -1.25])
    flow, mask = bone_flow(a, a + d, topo, 32, 32, radius=3)
    assert mask.any()
    assert np.allclose(flow.uv[mask], d, atol=1e-12)


def test_compose_target_flow_selection():
    rng = np.random.default_rng(5)
    base = FlowField(rng.normal(size=(6, 7, 2)))
    bone = FlowField(rng.normal(size=(6, 7, 2)))
    empty = compose_target_flow(base, bone, np.zeros((6, 7), bool))
    assert np.array_equal(empty.uv, base.uv)
    full = compose_target_flow(base, bone, np.ones((6, 7), bool))
    assert np.array_equal(full.uv, bone.uv)
    checker = (np.indices((6, 7)).sum(axis=0) % 2).astype(bool)
    mixed = compose_target_flow(base, bone, checker)
    for y in range(6):
        for x in range(7):
            want = bone.uv[y, x] if checker[y, x] else base.uv[y, x]
            assert np.array_equal(mixed.uv[y, x], want)


def test_compose_target_flow_idempotent():
    rng = np.random.default_rng(6)
    base = FlowField(rng.normal(size=(5, 5, 2)))
    bone = FlowField(rng.normal(size=(5, 5, 2)))
    mask = rng.uniform(size=(5, 5)) > 0.5
    once = compose_target_flow(base, bone, mask)
    twice = compose_target_flow(once, bone, mask)
    assert np.array_equal(once.uv, twice.uv)


def test_compose_rejects_mismatch():
    base = FlowField(np.zeros((4, 4, 2)))
    bone = FlowField(np.zeros((4, 5, 2)))
    with pytest.raises(InvalidInputError, match="bone flow dimensions"):
        compose_target_flow(base, bone, np.zeros((4, 4), bool))
    with pytest.raises(InvalidInputError, match="mask dimensions"):
        compose_target_flow(base, base, np.zeros((4, 5), bool))


@pytest.mark.parametrize("case", ["skeleton", "no-bones", "off-image"])
def test_sketch_matches_the_boolean_mask_expressions(case):
    # the flat-index splat and overlay give the bytes of the 2-D mask forms
    rng = np.random.default_rng(11)
    topo = _random_tree_topo(rng, 6)
    a = rng.uniform(-5, 45, size=(6, 2))
    b = a + rng.normal(0.0, 2.0, size=(6, 2))
    if case == "no-bones":
        topo, a, b = SkeletonTopology(joint_count=1, bones=()), a[:1], b[:1]
    elif case == "off-image":
        a, b = a + (200.0, -150.0), b + (200.0, -150.0)
    raster = rasterize_skeleton(a, topo, 40, 30, 4)
    flow, mask = bone_flow(a, b, topo, 40, 30, 4)
    # the sketch hands back the raster's own mask, read-only
    assert mask.tobytes() == raster.mask.tobytes() and not mask.flags.writeable
    assert mask.any() == (case == "skeleton")
    assert flow.uv.tobytes() == masked_bone_flow(raster, a, b, topo.bones).tobytes()
    base = FlowField(rng.normal(size=(30, 40, 2)))
    target = compose_target_flow(base, flow, mask)
    assert target.uv.tobytes() == masked_compose(base.uv, flow.uv, mask).tobytes()


def test_joints_must_match_the_topology():
    joints = np.zeros((3, 2))
    with pytest.raises(InvalidInputError, match="joints2d: expected 2 joints, got 3"):
        rasterize_skeleton(joints, _line_topo(), 8, 8)
    with pytest.raises(InvalidInputError, match="joints2d: expected 2 joints, got 3"):
        bone_flow(np.zeros((2, 2)), joints, _line_topo(), 8, 8)
