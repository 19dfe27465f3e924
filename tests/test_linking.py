import math
import tracemalloc
import warnings

import numpy as np
import pytest

from triholonomy import linking
from triholonomy.errors import NumericalError, ValidationError
from triholonomy.linking import (
    _BLOCK_PAIRS,
    _CHUNK,
    _FRAMES,
    _VIEWS,
    _crossings,
    LinkData,
    SpaceCurve,
    cs_phase,
    gauss_linking,
    gauss_linking_integral,
    hopf_pair,
)

# the close-approach refusal, with the distance it found last
APPROACH = (r"^closest approach of the curves' segment midpoints must be at least 1e-3 of the larger diameter, "
            r"\S+, for a reliable linking integral, got \S+$")


def circle(center, normal, radius, n=256, flip=False):
    normal = np.asarray(normal, dtype=float)
    normal /= np.linalg.norm(normal)
    trial = np.array([1.0, 0.0, 0.0])
    if abs(trial @ normal) > 0.9:
        trial = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(normal, trial)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    t = np.linspace(0, 2 * math.pi, n + 1)
    if flip:
        t = t[::-1]
    pts = center + radius * (np.outer(np.cos(t), e1) + np.outer(np.sin(t), e2))
    pts[-1] = pts[0]
    return SpaceCurve(pts)


def crossing_count_linking(c1: SpaceCurve, c2: SpaceCurve, view=(0.231, 0.117, 0.966)) -> int:
    """Signed-crossing oracle on a generic planar projection.

    Lk = (1/2) sum over crossings of sign(over-strand x under-strand).
    """
    v = np.asarray(view, dtype=float)
    v /= np.linalg.norm(v)
    trial = np.array([1.0, 0.0, 0.0])
    e1 = np.cross(v, trial)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(v, e1)

    def project(c):
        return np.stack([c.points @ e1, c.points @ e2], axis=1), c.points @ v

    p1, h1 = project(c1)
    p2, h2 = project(c2)
    total = 0
    for i in range(len(p1) - 1):
        a0, da = p1[i], p1[i + 1] - p1[i]
        for j in range(len(p2) - 1):
            b0, db = p2[j], p2[j + 1] - p2[j]
            denom = da[0] * db[1] - da[1] * db[0]
            if denom == 0:
                continue
            r = b0 - a0
            t = (r[0] * db[1] - r[1] * db[0]) / denom
            u = (r[0] * da[1] - r[1] * da[0]) / denom
            if 0 <= t < 1 and 0 <= u < 1:
                height_1 = h1[i] + t * (h1[i + 1] - h1[i])
                height_2 = h2[j] + u * (h2[j + 1] - h2[j])
                sign = np.sign(denom)
                total += int(sign if height_1 > height_2 else -sign)
    assert total % 2 == 0
    return total // 2


def solid_angle_linking(c1: SpaceCurve, c2: SpaceCurve) -> float:
    """Oracle: the exact polygon Gauss integral as a sum of signed solid angles.

    Klenin & Langowski, Biopolymers 54, 307 (2000): segment pair (1-2, 3-4)
    spans the solid angle of the quadrilateral 1-3-2-4 seen from the origin of
    r = r1 - r2, signed by (r34 x r12) . r13.
    """
    a, b = c1.points[:-1, None, :], c1.points[1:, None, :]
    c, d = c2.points[None, :-1, :], c2.points[None, 1:, :]
    r13, r14, r23, r24 = c - a, d - a, c - b, d - b
    faces = [np.cross(r13, r14), np.cross(r14, r24), np.cross(r24, r23), np.cross(r23, r13)]
    faces = [f / np.linalg.norm(f, axis=-1, keepdims=True) for f in faces]
    omega = sum(
        np.arcsin(np.clip(np.sum(faces[k] * faces[(k + 1) % 4], axis=-1), -1.0, 1.0)) for k in range(4)
    )
    sign = np.sign(np.sum(np.cross(d - c, b - a) * r13, axis=-1))
    return float(np.sum(omega * sign) / (4 * math.pi))


def smooth_curve(rng, n, offset):
    """A random closed trigonometric curve with three harmonics."""
    t = np.linspace(0, 2 * math.pi, n + 1)[:, None]
    pts = offset + sum(
        (rng.normal(size=3) * np.cos(m * t) + rng.normal(size=3) * np.sin(m * t)) / m for m in (1, 2, 3)
    )
    pts[-1] = pts[0]
    return SpaceCurve(pts)


def midpoints(c: SpaceCurve) -> np.ndarray:
    """Segment midpoints as (n - 1, 3), from the points."""
    return 0.5 * (c.points[1:] + c.points[:-1])


def broadcast_linking_integral(c1: SpaceCurve, c2: SpaceCurve) -> float:
    """Oracle: the same midpoint sum as one unblocked (n1, n2, 3) broadcast."""
    m1, d1 = midpoints(c1), np.diff(c1.points, axis=0)
    m2, d2 = midpoints(c2), np.diff(c2.points, axis=0)
    diff = m1[:, None, :] - m2[None, :, :]
    cross = np.cross(d1[:, None, :], d2[None, :, :])
    integrand = np.einsum("ijk,ijk->ij", cross, diff) / np.linalg.norm(diff, axis=2) ** 3
    return float(integrand.sum() / (4 * math.pi))


class TestSpaceCurve:
    def test_requires_enough_samples(self):
        t = np.linspace(0, 2 * math.pi, 9)
        pts = np.stack([np.cos(t), np.sin(t), 0 * t], axis=1)
        pts[-1] = pts[0]
        with pytest.raises(ValidationError):
            SpaceCurve(pts)

    @pytest.mark.parametrize("shape", [(33, 2), (33, 3, 1), (99,)])
    def test_points_must_be_n_by_3(self, shape):
        with pytest.raises(ValidationError, match=r"curve points must have shape \(n, 3\)"):
            SpaceCurve(np.zeros(shape))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_points_rejected(self, value):
        pts = circle([0, 0, 0], [0, 0, 1], 1.0, n=32).points.copy()
        pts[5, 1] = value
        with pytest.raises(ValidationError, match="non-finite curve points"):
            SpaceCurve(pts)

    def test_closure_gap_enforced(self):
        t = np.linspace(0, 2 * math.pi, 33)[:-1]
        pts = np.stack([np.cos(t), np.sin(t), 0 * t], axis=1)
        with pytest.raises(ValidationError):
            SpaceCurve(np.vstack([pts, [[2.0, 0.0, 0.0]]]))

    def test_closure_gap_enforced_when_diameter_overflows(self):
        # the squares of this 32-gon's bounding-box diagonal overflow to inf; a
        # last point 1e-5 of the diameter off the first must still be rejected
        t = np.linspace(0, 2 * math.pi, 33)
        pts = 1e160 * np.stack([np.cos(t), np.sin(t), 0 * t], axis=1)
        pts[-1] = pts[0] + [0.0, 0.0, 1e155]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no check may overflow on the way
            with pytest.raises(ValidationError, match="closure gap"):
                SpaceCurve(pts)
            pts[-1] = pts[0]
            assert SpaceCurve(pts).points.shape == (33, 3)

    @pytest.mark.parametrize("x", [0.0, 1.0, 1e150, 1e300])
    def test_closure_gap_of_a_tiny_ring_far_from_the_origin(self, x):
        # in units of the largest coordinate the gap of this ring underflowed at x = 1e300
        t = np.linspace(0, 2 * math.pi, 33)
        pts = np.stack([np.full_like(t, x), 1e-10 * np.cos(t), 1e-10 * np.sin(t)], axis=1)
        pts[-1] = pts[0] + [0.0, 0.0, 3e-11]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^curve closure gap must be at most 1e-10 of the curve diameter "
                                                      r"2\.8\d+e-10, got 3e-11$"):
                SpaceCurve(pts)
            pts[-1] = pts[0]
            assert SpaceCurve(pts).points.shape == (33, 3)

    def test_closure_gap_enforced_when_the_extent_overflows(self):
        # x spans +-1e308, so hi - lo overflows to inf: the gap is taken in units of the largest coordinate
        t = np.linspace(0, 2 * math.pi, 33)
        pts = np.stack([np.cos(t), np.sin(t), 0 * t], axis=1)
        pts[8, 0], pts[24, 0] = 1e308, -1e308
        pts[-1] = pts[0] + [0.0, 0.0, 1e303]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^curve closure gap must be at most 1e-10 of the curve diameter "
                                                      r"inf, got 9\.9+\d*e\+302$"):
                SpaceCurve(pts)
            pts[-1] = pts[0]
            assert SpaceCurve(pts).points.shape == (33, 3)

    @pytest.mark.parametrize("spikes", [{}, {8: -1e308, 20: 1e308, 21: 1e308}], ids=["centroid", "midpoint"])
    def test_overflowing_centroid_or_midpoint_rejected(self, spikes):
        # 33 x-coordinates of 8e307 sum past the float maximum; 1e308 + 1e308 does at a midpoint alone
        t = np.linspace(0, 2 * math.pi, 33)
        pts = np.stack([(0.0 if spikes else 8e307) + 0 * t, np.cos(t), np.sin(t)], axis=1)
        for k, x in spikes.items():
            pts[k, 0] = x
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="overflow its centroid or segment midpoints"):
                SpaceCurve(pts)

    def test_tiny_step_is_not_a_duplicate(self):
        # the squared length of a 1e-170 step underflows to 0, the step itself does not
        t = np.linspace(0, 2 * math.pi, 33)
        pts = 1e-160 * np.stack([np.cos(t), np.sin(t), 0 * t], axis=1)
        pts[5] = pts[4] + [1e-170, 0.0, 0.0]
        pts[-1] = pts[0]
        assert SpaceCurve(pts).points.shape == (33, 3)
        pts[5] = pts[4]
        with pytest.raises(ValidationError, match="consecutive duplicate points"):
            SpaceCurve(pts)

    def test_duplicate_points_rejected(self):
        t = np.linspace(0, 2 * math.pi, 33)
        pts = np.stack([np.cos(t), np.sin(t), 0 * t], axis=1)
        pts[5] = pts[4]
        pts[-1] = pts[0]
        with pytest.raises(ValidationError):
            SpaceCurve(pts)


class TestPreparedCurves:
    """Each curve builds its rows, midpoint rows, diameter and centroid once."""

    def test_diameter_is_the_point_array_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            c = smooth_curve(rng, int(rng.integers(16, 400)), rng.normal(size=3))
            pts = c.points * 10.0 ** rng.uniform(-100, 100)
            assert SpaceCurve(pts).diameter == float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))

    def test_prepared_arrays_are_read_only(self):
        c = circle([0.3, -0.2, 0.1], [1, 2, 3], 0.7, n=64)
        pts = np.ascontiguousarray(c.points)  # the (n, 3) layout the centroid keeps the bits of
        assert c.rows.flags.c_contiguous and np.shares_memory(c.points, c.rows)
        assert np.array_equal(c.rows, pts.T) and np.array_equal(c.midrows, midpoints(c).T)
        assert np.array_equal(c.centroid, pts.mean(axis=0))
        for prepared in (c.points, c.rows, c.midrows, c.centroid):
            assert not prepared.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                prepared[..., 0] = 0.0

    def test_chain_reads_each_curve_as_prepared(self, tmp_path, monkeypatch):
        from triholonomy import cli

        names = []
        for i in range(4):  # alternately flat and upright unit circles, each threading its neighbours
            c = circle([1.5 * i, 0, 0], [0, 0, 1] if i % 2 == 0 else [0, 1, 0], 1.0, n=128)
            names.append(str(tmp_path / f"curve{i}.csv"))
            np.savetxt(names[-1], c.points, fmt="%.17g", delimiter=",", header="x,y,z", comments="")
        pairs, reads = [], []

        class Spy(SpaceCurve):
            def __getattribute__(self, name):
                if pairs:  # attributes a pair reads, after every curve is built
                    reads.append(name)
                return super().__getattribute__(name)

        def counted(c1, c2):
            pairs.append((c1, c2))
            return gauss_linking(c1, c2)

        monkeypatch.setattr(cli, "SpaceCurve", Spy)
        monkeypatch.setattr(cli, "gauss_linking", counted)
        cfg = {"schema_version": 1, "scenario": "linking", "seed": 0, "params": {"curve_files": names}}
        lk = cli.run_scenario(cfg, str(tmp_path))[1]["linking.json"]["lk_matrix"]
        assert lk == [[0, 1, 0, 0], [1, 0, -1, 0], [0, -1, 0, 1], [0, 0, 1, 0]]
        assert len(pairs) == 6 and len({id(c) for pair in pairs for c in pair}) == 4
        # Six pairs read twelve prepared centroids and row sets, and never rebuild them from the points.
        assert reads.count("centroid") == reads.count("rows") == reads.count("midrows") == 12
        assert "points" not in reads


class TestGaussLinking:
    def test_distant_unlinked_circles(self):
        c1 = circle([0, 0, 0], [0, 0, 1], 1.0)
        c2 = circle([5, 0, 0], [0, 0, 1], 1.0)
        assert gauss_linking(c1, c2) == 0

    def test_hopf_pair_against_crossing_oracle(self):
        c1, c2 = hopf_pair(n_segments=256)
        lk_gauss = gauss_linking(c1, c2)
        lk_cross = crossing_count_linking(c1, c2)
        assert abs(lk_gauss) == 1
        assert lk_gauss == lk_cross

    def test_reversal_negates(self):
        c1, c2 = hopf_pair(n_segments=128)
        raw = gauss_linking_integral(c1, c2)
        raw_rev = gauss_linking_integral(c1, SpaceCurve(c2.points[::-1]))
        assert raw_rev == pytest.approx(-raw, abs=1e-12)
        assert gauss_linking(c1, SpaceCurve(c2.points[::-1])) == -gauss_linking(c1, c2)

    def test_symmetry(self):
        c1, c2 = hopf_pair(n_segments=128)
        assert gauss_linking_integral(c1, c2) == pytest.approx(
            gauss_linking_integral(c2, c1), abs=1e-12
        )

    def test_quadrature_halves_with_doubled_sampling(self):
        errs = []
        for n in (64, 128, 256):
            c1, c2 = hopf_pair(n_segments=n)
            errs.append(abs(gauss_linking_integral(c1, c2) - 1.0))
        assert errs[1] <= 0.5 * errs[0]
        assert errs[2] <= 0.5 * errs[1]

    def test_isotopy_invariance_family(self):
        # smoothly deform the second circle while staying disjoint
        for step in range(10):
            shift = 0.25 * step / 9.0
            c1 = circle([0, 0, 0], [0, 0, 1], 1.0)
            c2 = circle([1 + shift, 0.1 * shift, 0.05 * shift], [0, 1, 0.2 * shift], 1.0 + 0.3 * shift)
            assert gauss_linking(c1, c2) == 1 or gauss_linking(c1, c2) == -1
            assert gauss_linking(c1, c2) == gauss_linking(*hopf_pair(n_segments=256))

    @pytest.mark.parametrize("radius", [1e-160, 1e-200, 1e-300, 1e-310, 1e154, 1e200, 1e300])
    def test_tiny_hopf_pair_links(self, radius):
        # the squared diameter underflows below about 1e-154, where it once gave Lk = 0, and
        # overflows above about 1e154, where the diameter was once inf and the pair refused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gauss_linking(*hopf_pair(radius, radius, 64)) == 1

    @pytest.mark.parametrize("gauss", [gauss_linking, gauss_linking_integral])
    def test_overflowing_diameter_leaves_the_gauss_sum_undefined(self, gauss):
        # x spans +-1e308; the integral once overflowed in its sum and then refused a close approach
        t = np.linspace(0, 2 * math.pi, 33)
        ring = np.stack([np.cos(t), np.sin(t), 0 * t], axis=1)
        wide = ring.copy()
        wide[8, 0], wide[24, 0] = 1e308, -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = "^larger curve diameter of the Gauss integral must be finite, got inf$"
            with pytest.raises(NumericalError, match=message):
                gauss(SpaceCurve(wide), SpaceCurve(ring + [1.0, 0.0, 0.0]))

    def test_points_overflowing_in_units_of_the_diameter_fail_closed(self):
        t = np.linspace(0, 2 * math.pi, 33)
        ring = 1e-10 * np.stack([0 * t, np.cos(t), np.sin(t)], axis=1)
        ring[-1] = ring[0]
        far = [SpaceCurve(ring + [x, 0.0, 0.0]) for x in (1e306, -1e306)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"^largest point coordinate in units of the curve diameter "
                                                     r"2\.82842712474619e-10 must be finite, got inf$"):
                gauss_linking(*far)

    def test_near_intersection_rejected(self):
        c1 = circle([0, 0, 0], [0, 0, 1], 1.0, n=64)
        c2 = circle([0, 0, 1e-4], [0, 0, 1], 1.0, n=64)
        with pytest.raises(ValidationError):
            gauss_linking(c1, c2)


class TestExactCrossings:
    """The signed-crossing count against the exact polygon integral."""

    def test_near_miss_polygons_are_unlinked(self):
        # The midpoint quadrature returned -257.013 here, within 0.05 of -257.
        t = 2 * math.pi * np.arange(17) / 16
        p1 = np.stack([np.cos(t), np.sin(t), 0 * t], axis=1)
        s = 2 * math.pi * (np.arange(33) + 0.5) / 32
        p2 = 0.5 * (p1[0] + p1[1]) + [1.0, 0.0, 0.0] + np.stack([-np.cos(s), 0 * s, np.sin(s)], axis=1)
        p1[-1], p2[-1] = p1[0], p2[0]
        c1, c2 = SpaceCurve(p1), SpaceCurve(p2)
        assert abs(solid_angle_linking(c1, c2)) < 1e-12
        assert gauss_linking(c1, c2) == 0

    @pytest.mark.parametrize(
        "n1, n2, center, normal, radius, lk",
        [
            (16, 16, [0.295, 0.448, -0.725], [-0.39, -0.09, -0.22], 1.03, 0),  # quadrature -4.048
            (16, 32, [-1.362, -0.755, 0.829], [-1.66, -0.45, -1.24], 1.01, 0),  # quadrature 6.012
            (24, 64, [0.444, -1.377, 0.363], [0.78, 0.22, 1.19], 0.93, 1),  # quadrature 3.971
        ],
    )
    def test_near_miss_circle_pairs(self, n1, n2, center, normal, radius, lk):
        c1 = circle([0, 0, 0], [0, 0, 1], 1.0, n=n1)
        c2 = circle(center, normal, radius, n=n2)
        assert solid_angle_linking(c1, c2) == pytest.approx(lk, abs=1e-9)
        assert gauss_linking(c1, c2) == lk

    def test_random_smooth_pairs_match_oracles(self):
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(24):
            c1, c2 = smooth_curve(rng, 48, 0.0), smooth_curve(rng, 48, 0.7 * rng.normal(size=3))
            exact = solid_angle_linking(c1, c2)
            assert exact == pytest.approx(round(exact), abs=1e-9)
            lk = gauss_linking(c1, c2)
            assert lk == round(exact) == crossing_count_linking(c1, c2)
            seen.add(lk)
        assert len(seen) >= 3

    def test_vertex_on_projected_segment_retries_second_view(self):
        c1, c2 = hopf_pair(n_segments=64)
        v = np.asarray(_VIEWS[0]) / np.linalg.norm(_VIEWS[0])
        flat = np.eye(3) - np.outer(v, v)
        # move c2 within the view plane so its vertex nearest (in projection)
        # to a segment midpoint of c1 lands exactly on that midpoint
        gap = (midpoints(c1)[:, None, :] - c2.points[None, :-1, :]) @ flat
        i, k = np.unravel_index(np.argmin(np.linalg.norm(gap, axis=2)), gap.shape[:2])
        moved = SpaceCurve(c2.points + gap[i, k])
        p1, p2 = (c.rows / max(c1.diameter, moved.diameter) for c in (c1, moved))
        assert np.linalg.norm(gap[i, k]) < 0.05
        assert _crossings(p1, p2, _FRAMES[0])[1]
        assert not _crossings(p1, p2, _FRAMES[1])[1]
        assert gauss_linking(c1, moved) == 1 == crossing_count_linking(c1, moved)

    def test_odd_crossing_sum_fails_closed(self, monkeypatch):
        # two closed curves cross an even number of times in any generic view; an odd count is a fault
        monkeypatch.setattr(linking, "_crossings", lambda p1, p2, frame: (3, False))
        with pytest.raises(NumericalError, match="signed crossing sum 3 is odd"):
            gauss_linking(*hopf_pair(n_segments=64))

    def test_touching_curves_fail_closed(self):
        # c2 passes through c1's vertex (1, 0, 0); midpoints stay 0.28 apart
        c1 = circle([0, 0, 0], [0, 0, 1], 1.0, n=16)
        t = 2 * math.pi * np.arange(17) / 16
        p2 = np.stack([2.0 + np.cos(t), 0 * t, np.sin(t)], axis=1)
        p2[8], p2[-1] = c1.points[0], p2[0]
        with pytest.raises(NumericalError, match="degenerate"):
            gauss_linking(c1, SpaceCurve(p2))

    def test_memory_bounded_when_every_interval_overlaps(self, monkeypatch):
        v = np.asarray(_VIEWS[0]) / np.linalg.norm(_VIEWS[0])
        e1 = np.cross(v, [1.0, 0.0, 0.0])
        e1 /= np.linalg.norm(e1)

        def zigzag(n, shift, height):
            # every segment spans the projected x-range [-1, 1] of the first view; the two curves'
            # y-ranges coincide but for half a step, so every run of _CHUNK segments meets one opposite
            k = np.arange(n + 1)[:, None]
            pts = np.where(k % 2 == 0, -1.0, 1.0) * e1 + (shift + k / n) * np.cross(v, e1) + height * v
            pts[-1] = pts[0]
            return SpaceCurve(pts)

        blocks = []
        sweep = linking._overlapping

        def counted(*boxes):
            blocks.append(0)
            for i, j in sweep(*boxes):
                blocks[-1] += 1
                yield i, j

        monkeypatch.setattr(linking, "_overlapping", counted)
        n = 1024
        c1, c2 = zigzag(n, 0.0, 0.0), zigzag(n, 0.5 / n, 0.5)
        tracemalloc.start()
        try:
            lk = gauss_linking(c1, c2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert blocks[1] == n * n // _BLOCK_PAIRS  # the crossing sweep of the first view
        assert lk == 0
        assert peak < 16e6

    def test_segment_candidates_grow_linearly(self, monkeypatch):
        # a sweep on x alone expands 5.5 million close-approach candidates here
        n, sweep = 65536, linking._overlapping

        def counted(*boxes):
            for blocks, pairs in enumerate(sweep(*boxes), 1):
                assert 64 * blocks <= n // 16  # a bound on the candidates, in blocks of at most 64
                yield pairs

        monkeypatch.setattr(linking, "_BLOCK_PAIRS", 64)
        monkeypatch.setattr(linking, "_overlapping", counted)
        assert gauss_linking(*hopf_pair(1.0, 0.9, n)) == 1


class TestOverlapping:
    """The two-level box sweep against an all-pairs overlap test."""

    @staticmethod
    def boxes(rng, dims, n, offset, spread):
        lo = offset + spread * rng.random((dims, n))
        return lo, lo + 0.5 + rng.random((dims, n))

    @pytest.mark.parametrize("dims", [2, 3])
    @pytest.mark.parametrize("n1, n2", [(5, 17), (_CHUNK, _CHUNK), (3 * _CHUNK + 7, 2 * _CHUNK + 1)])
    @pytest.mark.parametrize("kind, offset, spread", [("disjoint", 20.0, 2.0), ("partial", 0.0, 2.0),
                                                      ("full", 0.0, 0.5)])
    def test_yields_exactly_the_overlapping_pairs(self, monkeypatch, dims, n1, n2, kind, offset, spread):
        monkeypatch.setattr(linking, "_BLOCK_PAIRS", 7)  # several blocks per sweep
        rng = np.random.default_rng([dims, n1, n2, int(offset), int(10 * spread)])
        lo1, hi1 = self.boxes(rng, dims, n1, 0.0, spread)
        lo2, hi2 = self.boxes(rng, dims, n2, offset, spread)
        meet = ((lo1[:, :, None] <= hi2[:, None, :]) & (lo2[:, None, :] <= hi1[:, :, None])).all(axis=0)
        found = []
        for i, j in linking._overlapping(lo1, hi1, lo2, hi2):
            assert len(i) == len(j) <= 7
            found += zip(i.tolist(), j.tolist())
        assert sorted(found) == sorted(zip(*map(np.ndarray.tolist, np.nonzero(meet))))
        assert (meet.any(), meet.all()) == {"disjoint": (False, False), "partial": (True, False),
                                            "full": (True, True)}[kind]


class TestBlockedKernel:
    """The blocked Gauss sum against the broadcast oracle."""

    @staticmethod
    def rows_per_block(n2: int) -> int:
        return max(1, _BLOCK_PAIRS // n2)

    def assert_matches_oracle(self, c1, c2):
        assert gauss_linking_integral(c1, c2) == pytest.approx(
            broadcast_linking_integral(c1, c2), abs=1e-12
        )

    def test_unequal_lengths(self):
        c1 = circle([0, 0, 0], [0, 0, 1], 1.0, n=300)
        c2 = circle([1, 0, 0], [0, 1, 0], 0.9, n=170)
        self.assert_matches_oracle(c1, c2)
        self.assert_matches_oracle(c2, c1)

    def test_ragged_last_block(self):
        c1 = circle([0, 0, 0], [0, 0, 1], 1.0, n=301)
        c2 = circle([1, 0, 0], [0, 1, 0], 1.0, n=1000)
        rows = self.rows_per_block(1000)
        assert 1 < rows < 301 and 301 % rows != 0
        self.assert_matches_oracle(c1, c2)

    def test_one_row_per_block(self):
        n2 = _BLOCK_PAIRS + 1000
        c1 = circle([0, 0, 0], [0, 0, 1], 1.0, n=20)
        c2 = circle([1, 0, 0], [0, 1, 0], 1.0, n=n2)
        assert self.rows_per_block(n2) == 1
        self.assert_matches_oracle(c1, c2)

    def test_far_from_origin(self):
        c1, c2 = hopf_pair(n_segments=256)
        offset = [1e6, -1e6, 1e6]
        self.assert_matches_oracle(SpaceCurve(c1.points + offset), SpaceCurve(c2.points + offset))

    def test_closest_approach_in_last_block_rejected(self):
        n2 = 4096
        c1 = circle([0, 0, 0], [0, 0, 1], 1.0, n=64)
        m = midpoints(c1)[-1]
        # small circle in the plane of c1, just outside it at its last segment
        c2 = circle(m * (1 + 0.2 / np.linalg.norm(m)), [0, 0, 1], 0.2 - 1e-4, n=n2)
        rows = self.rows_per_block(n2)
        dist = np.linalg.norm(midpoints(c1)[:, None, :] - midpoints(c2)[None, :, :], axis=2)
        nearest_row = int(np.unravel_index(dist.argmin(), dist.shape)[0])
        assert 64 // rows > 1 and nearest_row >= 64 - rows
        assert dist[: 64 - rows].min() > 1e-3 * max(c1.diameter, c2.diameter)
        with pytest.raises(ValidationError, match=APPROACH) as refused:
            gauss_linking(c1, c2)
        assert float(refused.value.args[0].rpartition(" ")[2]) == pytest.approx(dist.min(), rel=1e-9)

    @pytest.mark.parametrize("segment", [0, -1], ids=["first-block", "last-block"])
    def test_integral_refuses_the_closest_approach(self, segment):
        # after the block where the curves come within 1e-3 of the diameter, each block only updates the
        # minimum separation, which the refusal reports
        n2 = 4096
        c1 = circle([0, 0, 0], [0, 0, 1], 1.0, n=64)
        m = midpoints(c1)[segment]
        c2 = circle(m * (1 + 0.2 / np.linalg.norm(m)), [0, 0, 1], 0.2 - 1e-4, n=n2)
        rows = self.rows_per_block(n2)
        dist = np.linalg.norm(midpoints(c1)[:, None, :] - midpoints(c2)[None, :, :], axis=2)
        near = np.flatnonzero(dist.min(axis=1) < 1e-3 * max(c1.diameter, c2.diameter))
        assert 64 // rows > 1 and near.size
        assert (near < rows).all() if segment == 0 else (near >= 64 - rows).all()
        with pytest.raises(ValidationError, match=APPROACH) as refused:
            gauss_linking_integral(c1, c2)
        assert float(refused.value.args[0].rpartition(" ")[2]) == pytest.approx(dist.min(), rel=1e-9)

    def test_memory_independent_of_curve_length(self):
        c1, c2 = hopf_pair(n_segments=2048)
        tracemalloc.start()
        try:
            gauss_linking_integral(c1, c2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestHopfPair:
    def test_default_is_plus_one(self):
        assert gauss_linking(*hopf_pair()) == 1

    def test_scale_invariance(self):
        c1, c2 = hopf_pair()
        assert gauss_linking(SpaceCurve(c1.points * 10.0), SpaceCurve(c2.points * 10.0)) == 1

    def test_translation_invariance(self):
        c1, c2 = hopf_pair()
        offset = [3.0, -2.0, 7.0]
        assert gauss_linking(SpaceCurve(c1.points + offset), SpaceCurve(c2.points + offset)) == 1

    def test_rejects_bad_radii(self):
        with pytest.raises(ValidationError):
            hopf_pair(radius1=-1.0)
        # circle 2 misses circle 1's disc: these pairs once gave Lk = 0
        for radius1, radius2 in ((1.0, 2.0), (1.0, 2.5), (1e-8, 1e8)):
            with pytest.raises(ValidationError, match=r"radius2 must be below 2 \* radius1"):
                hopf_pair(radius1, radius2)
        assert gauss_linking(*hopf_pair(1.0, 1.99)) == 1

    def test_rejects_too_few_segments(self):
        for n in (-3, -1, 0, 15):
            with pytest.raises(ValidationError):
                hopf_pair(n_segments=n)


class TestTopologicalPhase:
    def test_zero_charges(self):
        assert cs_phase([0.0, 0.0], LinkData.pair(1), 4) == 0.0

    def test_matched_level_gives_pi(self):
        q = 3.0
        assert cs_phase([q, q], LinkData.pair(1), int(4 * q * q)) == pytest.approx(
            math.pi, abs=1e-12
        )

    def test_three_mutually_linked_curves(self):
        q = 2.0
        k = int(4 * q * q)
        lk = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        phase = cs_phase([q, q, q], LinkData(lk), k)
        # three pair terms of pi each, reduced mod 2 pi
        assert phase == pytest.approx(math.pi, abs=1e-12)

    def test_self_linking_contribution(self):
        q = 2.0
        k = 8
        phase = cs_phase([q, q], LinkData(np.zeros((2, 2), dtype=int), (1, 0)), k)
        assert phase == pytest.approx((2 * math.pi / k) * q * q, abs=1e-12)

    def test_unreduced_phase_beyond_2_pow_20_is_refused(self):
        # the phase's reduction mod 2 pi is exact only while a few ulps of it stay below 1e-9 rad
        assert cs_phase([577.0, 577.0], LinkData.pair(1), 4) == pytest.approx(math.pi, abs=1e-9)  # 577^2 pi rad
        bound = "must be at most 2\\^20 rad, past which rounding exceeds 1e-9 rad, got "
        for q in (578.0, 1e8):  # 578^2 pi rad is just above 2^20 rad
            with pytest.raises(NumericalError, match=bound) as info:
                cs_phase([q, q], LinkData.pair(1), 4)
            assert float(str(info.value).rsplit("got ", 1)[1]) == pytest.approx(math.pi * q * q)
        with pytest.raises(NumericalError, match="must be at most 2\\^20 rad"):
            cs_phase([1e5, 0.0], LinkData(np.zeros((2, 2), dtype=int), (-1, 0)), 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"^\|cs_phase\| before its reduction mod 2 pi must be at most "
                                                     r"2\^20 rad, past which rounding exceeds 1e-9 rad, got nan$"):
                cs_phase([1e200, 1e200], LinkData.pair(1), 4)

    @pytest.mark.parametrize("charges", [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]])
    def test_one_charge_per_curve(self, charges):
        with pytest.raises(ValidationError, match=r"^charges must be 2 finite values, one per curve, got "):
            cs_phase(charges, LinkData.pair(1), 4)

    def test_level_must_be_positive_integer(self):
        with pytest.raises(ValidationError):
            cs_phase([1.0, 1.0], LinkData.pair(1), 0)
        with pytest.raises(ValidationError):
            cs_phase([1.0, 1.0], LinkData.pair(1), 2.5)


class TestLinkData:
    def test_symmetric_matrix_enforced(self):
        with pytest.raises(ValidationError):
            LinkData(np.array([[0, 1], [2, 0]]))

    @pytest.mark.parametrize("matrix", [[[0, 1, 1], [1, 0, 1]], [0, 1], [[[0]]]])
    def test_matrix_must_be_square(self, matrix):
        with pytest.raises(ValidationError, match="linking matrix must be square"):
            LinkData(matrix)

    @pytest.mark.parametrize("slk", [[0], [0, 0, 0], [[0, 0]]])
    def test_one_self_linking_number_per_curve(self, slk):
        with pytest.raises(ValidationError, match="self-linking vector length must match the matrix"):
            LinkData([[0, 1], [1, 0]], slk)

    def test_default_self_linking_is_zero(self):
        link = LinkData.pair(1)
        assert np.array_equal(link.slk, [0, 0])
