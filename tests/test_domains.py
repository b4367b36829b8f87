"""Domain partition classifier, Yellow' sub-areas, and the audit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import in_yellow_prime, matching_domains, mirrored_label, mirrored_point, on_grid
from fetsim.domains import (
    DomainLabel,
    YellowLabel,
    _first_true,
    _in_box,
    _yellow_area_tests,
    audit_partition,
    classify,
    classify_array,
    classify_yellow,
    label_paths,
)
from fetsim.dynamics import AnalysisConstants
from fetsim.errors import UsageError


def consts(n, delta=0.05, c_sample=3.0):
    return AnalysisConstants.for_population(n, delta=delta, c_sample=c_sample)


class TestClassify:
    def test_green_by_margin(self):
        c = consts(128, delta=0.1)
        assert classify((0.2, 0.5), 128, c) is DomainLabel.GREEN1

    def test_green_mirror(self):
        c = consts(128, delta=0.1)
        assert classify((0.8, 0.5), 128, c) is DomainLabel.GREEN0

    def test_cyan_corner(self):
        for n in (64, 128, 512):
            c = consts(n)
            assert classify((1.0 / n, 1.0 / n), n, c) is DomainLabel.CYAN1

    def test_cyan_needs_only_one_coordinate_below_threshold(self):
        # min(x_t, x_{t+1}) < 1/ln n: here x_t = 0.1875 < 0.206 < x_{t+1}.
        n = 128
        c = consts(n)
        assert classify((24 / n, 28 / n), n, c) is DomainLabel.CYAN1
        assert classify((1 - 24 / n, 1 - 28 / n), n, c) is DomainLabel.CYAN0

    def test_absorbing_corner_is_mirrored_cyan(self):
        c = consts(128)
        assert classify((1.0, 1.0), 128, c) is DomainLabel.CYAN0

    def test_purple_band(self):
        n, c = 4096, consts(4096, delta=0.1)
        x = 0.15
        y = (1 - c.lambda_n) * x + 0.01
        assert classify((x, y), n, c) is DomainLabel.PURPLE1
        assert classify((1 - x, 1 - y), n, c) is DomainLabel.PURPLE0

    def test_red_band(self):
        n, c = 8192, consts(8192, delta=0.1)
        assert classify((0.18, 0.12), n, c) is DomainLabel.RED1
        assert classify((0.82, 0.88), n, c) is DomainLabel.RED0

    def test_yellow_centre(self):
        c = consts(128)
        assert classify((0.5, 0.5), 128, c) is DomainLabel.YELLOW

    def test_unclassified_exists_and_is_counted(self):
        # A diagonal band point just outside the Yellow y-box at small n
        # falls through every definition.
        n = 128
        c = consts(n)
        report = audit_partition(n, c)
        if report["uncovered_count"]:
            kx, ky = report["uncovered"][0]
            assert classify((kx / n, ky / n), n, c) is DomainLabel.UNCLASSIFIED

    def test_mismatched_constants_rejected(self):
        c = consts(128)
        with pytest.raises(UsageError):
            classify((0.5, 0.5), 64, c)

    @settings(max_examples=300, deadline=None)
    @given(kx=st.integers(0, 128), ky=st.integers(0, 128))
    def test_reflection_symmetry(self, kx, ky):
        n = 128
        c = consts(n)
        point = (kx / n, ky / n)
        mirror = (1.0 - kx / n, 1.0 - ky / n)
        assert classify(point, n, c) is mirrored_label(classify(mirror, n, c))


class TestClassifyYellow:
    def test_centre_point(self):
        c = consts(128, delta=0.1)
        assert classify_yellow((0.5, 0.5), c) is YellowLabel.A1

    def test_b_area(self):
        c = consts(128, delta=0.1)
        assert classify_yellow((0.52, 0.53), c) is YellowLabel.B1

    def test_c_area(self):
        c = consts(128, delta=0.1)
        assert classify_yellow((0.45, 0.47), c) is YellowLabel.C1

    def test_outside_box(self):
        c = consts(128, delta=0.05)
        assert classify_yellow((0.2, 0.5), c) is YellowLabel.OUTSIDE
        assert classify_yellow((0.5, 0.71), c) is YellowLabel.OUTSIDE

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.floats(0.301, 0.699),
        y=st.floats(0.301, 0.699),
    )
    def test_box_always_labelled(self, x, y):
        # Every point of Yellow' gets exactly one A/B/C label.
        c = consts(128, delta=0.05)
        assert in_yellow_prime((x, y), c)
        assert classify_yellow((x, y), c) is not YellowLabel.OUTSIDE

    def test_yellow_subset_of_box(self):
        # Yellow (domain) is contained in Yellow' (box) for every tested size.
        for n in (64, 128):
            for delta in (0.05, 0.1):
                c = consts(n, delta=delta)
                for kx in range(n + 1):
                    for ky in range(n + 1):
                        point = (kx / n, ky / n)
                        if classify(point, n, c) is DomainLabel.YELLOW:
                            assert in_yellow_prime(point, c)


class TestGridPoint:
    """A grid point is an (x_t, x_{t+1}) tuple of opinion-1 fractions."""

    def test_on_grid(self):
        assert on_grid((3 / 64, 5 / 64), 64)
        assert not on_grid((0.3333, 0.5), 64)

    def test_mirror(self):
        x_t, x_t1 = mirrored_point((0.2, 0.7))
        assert x_t == pytest.approx(0.8, abs=1e-15)
        assert x_t1 == pytest.approx(0.3, abs=1e-15)

    def test_classify_accepts_gridpoint(self):
        c = consts(128)
        assert classify((0.5, 0.5), 128, c) is DomainLabel.YELLOW


class TestAudit:
    def test_smoke_small(self):
        c = consts(8)
        report = audit_partition(8, c)
        assert report["total_points"] == 81
        assert sum(report["label_histogram"].values()) == 81
        assert report["yellow_reading"]

    def test_corners_covered_and_labelled(self):
        c = consts(64)
        report = audit_partition(64, c)
        assert report["corner_absorbing_label"] == "Cyan0"
        assert report["corner_cyan_label"] == "Cyan1"
        # Entries are [k_x, k_y] lists: a tuple is never among them.
        assert [64, 64] not in report["uncovered"]
        assert [1, 1] not in report["uncovered"]

    def test_match_counts_consistent(self):
        n = 64
        c = consts(n)
        report = audit_partition(n, c)
        assert sum(report["match_counts"].values()) == (n + 1) ** 2
        assert report["match_counts"].get("0", 0) == report["uncovered_count"]
        multi = sum(v for k, v in report["match_counts"].items() if int(k) >= 2)
        assert multi == report["multiply_covered_count"]

    def test_mirrored_coverage(self):
        for n in (32, 64):
            report = audit_partition(n, consts(n))
            assert report["mirror_symmetric"]

    def test_agrees_with_pointwise_classifier(self):
        # The array path (audit, classify_array, the A/B/C tests on whole
        # grids) and the scalar classifiers read the same definitions and
        # must agree at every grid point.
        for n, delta in [(32, 0.05), (64, 0.05), (128, 0.1), (97, 0.2)]:
            c = consts(n, delta=delta)
            report = audit_partition(n, c)
            histogram = {label: 0 for label in report["label_histogram"]}
            frac = np.arange(n + 1) / n
            x, y = np.meshgrid(frac, frac, indexing="ij")
            domains = classify_array(x, y, c)
            areas = np.where(_in_box(x, y, c), _first_true(_yellow_area_tests(x, y)), 6)
            for kx in range(n + 1):
                for ky in range(n + 1):
                    point = (kx / n, ky / n)
                    label = classify(point, n, c)
                    histogram[label.value] += 1
                    assert list(DomainLabel)[domains[kx, ky]] is label
                    assert list(YellowLabel)[areas[kx, ky]] is classify_yellow(point, c)
            assert histogram == report["label_histogram"]

    def test_multiply_covered_points_real(self):
        n = 128
        c = consts(n)
        report = audit_partition(n, c)
        for kx, ky, count in report["multiply_covered"][:20]:
            assert len(matching_domains((kx / n, ky / n), n, c)) == count >= 2

    def test_size_cap(self):
        with pytest.raises(UsageError):
            audit_partition(1024, consts(1024))

    def test_report_serializes(self):
        import json

        payload = audit_partition(16, consts(16))
        assert json.loads(json.dumps(payload)) == payload


class TestLabelPaths:
    @pytest.mark.parametrize("n", [2, 4096])
    def test_batch_equals_one_path_at_a_time(self, n):
        # Paths of 1, 2 and many counts, stored end to end, get in their
        # own slots the labels each gets alone; the slot at each path's
        # last count straddles two paths.  At n = 4096 each label is also
        # the pointwise classifier's.
        rng = np.random.default_rng(11)
        paths = [
            [n // 2],
            rng.integers(0, n + 1, size=40).tolist(),
            [1, n],
            [n],
            rng.integers(0, n + 1, size=2).tolist(),
            rng.integers(0, n + 1, size=25).tolist(),
            [n // 2, n // 2 + n // 400, n // 2 - n // 300, n // 2],  # inside Yellow'
        ]
        ell = 1 if n == 2 else 25
        domains, yellows = label_paths(np.concatenate(paths), n, 0.05, ell)
        assert len(domains) == len(yellows) == sum(map(len, paths)) - 1
        end = 0
        for path in paths:
            end += len(path)
            own = domains[end - len(path) : end - 1], yellows[end - len(path) : end - 1]
            alone = label_paths(np.array(path), n, 0.05, ell)
            assert all(np.array_equal(a, b) for a, b in zip(own, alone))
            if n == 2:
                assert set(own[0].tolist()) <= {len(DomainLabel) - 1}
                assert set(own[1].tolist()) <= {len(YellowLabel) - 1}
                continue
            c = AnalysisConstants.for_population(n, delta=0.05, ell=25)
            for (k0, k1), domain, yellow in zip(zip(path, path[1:]), *own):
                assert tuple(DomainLabel)[domain] is classify((k0 / n, k1 / n), n, c)
                assert tuple(YellowLabel)[yellow] is classify_yellow((k0 / n, k1 / n), c)

    def test_no_paths(self):
        domains, yellows = label_paths(np.zeros(0, dtype=np.int64), 64, 0.05, 13)
        assert domains.size == yellows.size == 0
