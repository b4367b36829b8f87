"""Domain partition classifier, Yellow' sub-areas, and the audit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    area_oracle,
    domain_oracle,
    in_yellow_prime,
    matching_domains,
    mirrored_label,
    mirrored_point,
    on_grid,
)
from fetsim.domains import (
    AREAS,
    DOMAINS,
    DomainLabel,
    YellowLabel,
    _domain_tests,
    _in_box,
    _yellow_area_tests,
    audit_partition,
    classify,
    classify_yellow,
    label_paths,
    lambda_n,
)
from fetsim.errors import UsageError

# The points at (n, delta) = (200, 0.05) that the float partition left
# uncovered: each lies on x_{t+1} = x_t - delta, which delta * n = 10
# (exactly, in floats) puts in Green0.
FORMER_GAPS_200 = [[13, 3], [16, 6], [17, 7], [19, 9], [20, 10], [22, 12], [36, 26]]


def domain(point, n, delta=0.05):
    """The domain of the counts (k_t, k_{t+1}) through the classifier's int path."""
    return DOMAINS[classify(*point, n, delta)]


def area(point, n, delta=0.05):
    """The Yellow' area of the counts (k_t, k_{t+1}) through the classifier's int path."""
    return AREAS[classify_yellow(*point, n, delta)]


def grid(n):
    """The (n+1) x (n+1) counts k_t, k_{t+1}, indexed [k_x, k_y]."""
    k = np.arange(n + 1)
    return np.meshgrid(k, k, indexing="ij")


class TestClassify:
    def test_green_by_margin(self):
        assert domain((26, 64), 128, delta=0.1) is DomainLabel.GREEN1

    def test_green_mirror(self):
        assert domain((102, 64), 128, delta=0.1) is DomainLabel.GREEN0

    def test_cyan_corner(self):
        for n in (64, 128, 512):
            assert domain((1, 1), n) is DomainLabel.CYAN1

    def test_cyan_needs_only_one_coordinate_below_threshold(self):
        # min(k_t, k_{t+1}) < n/ln n: here k_t = 24 < 26.38 < k_{t+1}.
        n = 128
        assert domain((24, 28), n) is DomainLabel.CYAN1
        assert domain((n - 24, n - 28), n) is DomainLabel.CYAN0

    def test_absorbing_corner_is_mirrored_cyan(self):
        assert domain((128, 128), 128) is DomainLabel.CYAN0

    def test_purple_band(self):
        n, delta, a = 4096, 0.1, 614
        b = round((1 - lambda_n(n, delta)) * a + 0.01 * n)
        assert domain((a, b), n, delta) is DomainLabel.PURPLE1
        assert domain((n - a, n - b), n, delta) is DomainLabel.PURPLE0

    def test_red_band(self):
        n = 8192
        assert domain((1475, 983), n, delta=0.1) is DomainLabel.RED1
        assert domain((n - 1475, n - 983), n, delta=0.1) is DomainLabel.RED0

    def test_yellow_centre(self):
        assert domain((64, 64), 128) is DomainLabel.YELLOW

    def test_former_float_gaps_are_green0(self):
        # The float partition left these points uncovered, on the float
        # and on the array path; on counts b - a = -10 meets -delta * n.
        n = 200
        report = audit_partition(n, 0.05)
        assert report["uncovered"] == [] and report["uncovered_count"] == 0
        assert report["label_histogram"]["Unclassified"] == 0
        kx, ky = np.array(FORMER_GAPS_200).T
        green0 = DOMAINS.index(DomainLabel.GREEN0)
        assert classify(kx, ky, n, 0.05).tolist() == [green0] * len(FORMER_GAPS_200)
        for point in FORMER_GAPS_200:
            assert domain(point, n) is domain_oracle(point, n, 0.05) is DomainLabel.GREEN0

    @settings(max_examples=300, deadline=None)
    @given(kx=st.integers(0, 128), ky=st.integers(0, 128))
    def test_reflection_symmetry(self, kx, ky):
        n = 128
        assert domain((kx, ky), n) is mirrored_label(domain((n - kx, n - ky), n))


class TestClassifyYellow:
    def test_centre_point(self):
        assert area((64, 64), 128, delta=0.1) is YellowLabel.A1

    def test_b_area(self):
        assert area((67, 68), 128, delta=0.1) is YellowLabel.B1

    def test_c_area(self):
        assert area((58, 60), 128, delta=0.1) is YellowLabel.C1

    def test_outside_box(self):
        assert area((26, 64), 128) is YellowLabel.OUTSIDE
        assert area((64, 91), 128) is YellowLabel.OUTSIDE

    @settings(max_examples=300, deadline=None)
    @given(kx=st.integers(39, 89), ky=st.integers(39, 89))
    def test_box_always_labelled(self, kx, ky):
        # Every point of Yellow' (counts 38.4 ... 89.6 at n = 128) gets
        # exactly one A/B/C label.
        assert in_yellow_prime((kx, ky), 128, 0.05)
        assert area((kx, ky), 128) is not YellowLabel.OUTSIDE
        assert area((kx, ky), 128) is area_oracle((kx, ky), 128, 0.05)

    def test_yellow_subset_of_box(self):
        # Yellow (domain) is contained in Yellow' (box) for every tested size.
        for n in (64, 128):
            for delta in (0.05, 0.1):
                x, y = grid(n)
                yellow = classify(x, y, n, delta) == DOMAINS.index(DomainLabel.YELLOW)
                assert yellow.any()
                assert all(in_yellow_prime(point, n, delta) for point in zip(x[yellow], y[yellow]))


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
        assert domain((64, 64), 128) is DomainLabel.YELLOW
        assert classify(np.int64(64), np.int64(64), 128, 0.05) == DOMAINS.index(DomainLabel.YELLOW)


class TestAudit:
    def test_smoke_small(self):
        report = audit_partition(8, 0.05)
        assert report["total_points"] == 81
        assert sum(report["label_histogram"].values()) == 81
        assert report["yellow_reading"] and report["threshold_reading"]

    def test_corners_covered_and_labelled(self):
        report = audit_partition(64, 0.05)
        assert report["corner_absorbing_label"] == "Cyan0"
        assert report["corner_cyan_label"] == "Cyan1"
        # Entries are [k_x, k_y] lists: a tuple is never among them.
        assert [64, 64] not in report["uncovered"]
        assert [1, 1] not in report["uncovered"]

    def test_match_counts_consistent(self):
        n = 200
        report = audit_partition(n, 0.05)
        assert report["match_counts"] == {"1": 39555, "2": 846}
        assert sum(report["match_counts"].values()) == (n + 1) ** 2
        assert report["uncovered_count"] == 0
        multi = sum(v for k, v in report["match_counts"].items() if int(k) >= 2)
        assert multi == report["multiply_covered_count"]

    def test_mirrored_coverage(self):
        for n in (32, 64):
            report = audit_partition(n, 0.05)
            assert report["mirror_symmetric"]

    def test_full_coverage_and_exact_mirrors_over_a_scan(self):
        # Every grid point matches a definition, and each definition at
        # (a, b) is its mirror's at (n - a, n - b): Yellow and each A/B/C
        # pair, Yellow' and the 1- and 0-variants of each domain.
        for n in range(3, 301):
            x, y = np.arange(n + 1)[:, None], np.arange(n + 1)[None, :]
            for delta in (0.05, 0.1, 0.2):
                tests = _domain_tests(x, y, n, delta)
                assert np.any(tests, axis=0).all(), (n, delta)
                areas = _yellow_area_tests(x, y, n) + (_in_box(x, y, n, delta),) * 2
                pairs = list(zip(tests[:8:2], tests[1:8:2])) + [(tests[8], tests[8])]
                pairs += list(zip(areas[::2], areas[1::2]))
                for one, zero in pairs:
                    assert np.array_equal(one, zero[::-1, ::-1]), (n, delta)

    def test_agrees_with_pointwise_classifier(self):
        # The classifiers on whole grids agree at every grid point with
        # the oracles, which loop over the definitions one float point
        # at a time, and the audit's histogram counts the same labels.
        for n, delta in [(32, 0.05), (64, 0.05), (128, 0.1), (97, 0.2), (200, 0.05)]:
            x, y = grid(n)
            domains, areas = classify(x, y, n, delta), classify_yellow(x, y, n, delta)
            histogram = dict.fromkeys((label.value for label in DomainLabel), 0)
            for kx in range(n + 1):
                for ky in range(n + 1):
                    label = domain_oracle((kx, ky), n, delta)
                    histogram[label.value] += 1
                    assert DOMAINS[domains[kx, ky]] is label
                    assert AREAS[areas[kx, ky]] is area_oracle((kx, ky), n, delta)
            assert histogram == audit_partition(n, delta)["label_histogram"]

    def test_multiply_covered_points_real(self):
        n = 128
        report = audit_partition(n, 0.05)
        for kx, ky, count in report["multiply_covered"][:20]:
            assert len(matching_domains((kx, ky), n, 0.05)) == count >= 2

    def test_size_cap(self):
        with pytest.raises(UsageError):
            audit_partition(1024, 0.05)

    def test_report_serializes(self):
        import json

        payload = audit_partition(16, 0.05)
        assert json.loads(json.dumps(payload)) == payload


class TestLabelPaths:
    @pytest.mark.parametrize("n", [2, 4096])
    def test_batch_equals_one_path_at_a_time(self, n):
        # Paths of 1, 2 and many counts, stored end to end, get in their
        # own slots the labels each gets alone; the slot at each path's
        # last count straddles two paths.  At n = 4096 each label is also
        # the pointwise oracles'.
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
        domains, yellows = label_paths(np.concatenate(paths), n, 0.05)
        assert len(domains) == len(yellows) == sum(map(len, paths)) - 1
        end = 0
        for path in paths:
            end += len(path)
            own = domains[end - len(path) : end - 1], yellows[end - len(path) : end - 1]
            alone = label_paths(np.array(path), n, 0.05)
            assert all(np.array_equal(a, b) for a, b in zip(own, alone))
            if n == 2:
                assert set(own[0].tolist()) <= {len(DOMAINS) - 1}
                assert set(own[1].tolist()) <= {len(AREAS) - 1}
                continue
            for pair, label, yellow in zip(zip(path, path[1:]), *own):
                assert DOMAINS[label] is domain_oracle(pair, n, 0.05)
                assert AREAS[yellow] is area_oracle(pair, n, 0.05)

    def test_no_paths(self):
        domains, yellows = label_paths(np.zeros(0, dtype=np.int64), 64, 0.05)
        assert domains.size == yellows.size == 0
