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
    audit_partition,
    classify,
    classify_yellow,
    label_paths,
)
from fetsim.dynamics import AnalysisConstants
from fetsim.errors import UsageError

# The uncovered grid points at (n, delta) = (200, 0.05): each lies on
# x_{t+1} = x_t - delta, outside Yellow's x-band, so no definition holds.
GAPS_200 = [[13, 3], [16, 6], [17, 7], [19, 9], [20, 10], [22, 12], [36, 26]]


def consts(n, delta=0.05, c_sample=3.0):
    return AnalysisConstants.for_population(n, delta=delta, c_sample=c_sample)


def domain(point, c):
    """The domain of one point (x_t, x_{t+1}) through the classifier's float path."""
    return DOMAINS[classify(*point, c)]


def area(point, c):
    """The Yellow' area of one point through the classifier's float path."""
    return AREAS[classify_yellow(*point, c)]


def grid(n):
    """The (n+1) x (n+1) fractions x_t, x_{t+1}, indexed [k_x, k_y]."""
    frac = np.arange(n + 1) / n
    return np.meshgrid(frac, frac, indexing="ij")


class TestClassify:
    def test_green_by_margin(self):
        c = consts(128, delta=0.1)
        assert domain((0.2, 0.5), c) is DomainLabel.GREEN1

    def test_green_mirror(self):
        c = consts(128, delta=0.1)
        assert domain((0.8, 0.5), c) is DomainLabel.GREEN0

    def test_cyan_corner(self):
        for n in (64, 128, 512):
            c = consts(n)
            assert domain((1.0 / n, 1.0 / n), c) is DomainLabel.CYAN1

    def test_cyan_needs_only_one_coordinate_below_threshold(self):
        # min(x_t, x_{t+1}) < 1/ln n: here x_t = 0.1875 < 0.206 < x_{t+1}.
        n = 128
        c = consts(n)
        assert domain((24 / n, 28 / n), c) is DomainLabel.CYAN1
        assert domain((1 - 24 / n, 1 - 28 / n), c) is DomainLabel.CYAN0

    def test_absorbing_corner_is_mirrored_cyan(self):
        c = consts(128)
        assert domain((1.0, 1.0), c) is DomainLabel.CYAN0

    def test_purple_band(self):
        c = consts(4096, delta=0.1)
        x = 0.15
        y = (1 - c.lambda_n) * x + 0.01
        assert domain((x, y), c) is DomainLabel.PURPLE1
        assert domain((1 - x, 1 - y), c) is DomainLabel.PURPLE0

    def test_red_band(self):
        c = consts(8192, delta=0.1)
        assert domain((0.18, 0.12), c) is DomainLabel.RED1
        assert domain((0.82, 0.88), c) is DomainLabel.RED0

    def test_yellow_centre(self):
        c = consts(128)
        assert domain((0.5, 0.5), c) is DomainLabel.YELLOW

    def test_unclassified_exists_and_is_counted(self):
        # Diagonal points just below Yellow's x-band fall through every
        # definition at n = 200, on the float and on the array path.
        n = 200
        c = consts(n)
        report = audit_partition(c)
        assert report["uncovered"] == GAPS_200
        kx, ky = np.array(GAPS_200).T
        assert classify(kx / n, ky / n, c).tolist() == [len(DOMAINS) - 1] * len(GAPS_200)
        for kx, ky in GAPS_200:
            assert domain((kx / n, ky / n), c) is DomainLabel.UNCLASSIFIED
            assert domain_oracle((kx / n, ky / n), c) is DomainLabel.UNCLASSIFIED

    @settings(max_examples=300, deadline=None)
    @given(kx=st.integers(0, 128), ky=st.integers(0, 128))
    def test_reflection_symmetry(self, kx, ky):
        n = 128
        c = consts(n)
        point = (kx / n, ky / n)
        mirror = (1.0 - kx / n, 1.0 - ky / n)
        assert domain(point, c) is mirrored_label(domain(mirror, c))


class TestClassifyYellow:
    def test_centre_point(self):
        c = consts(128, delta=0.1)
        assert area((0.5, 0.5), c) is YellowLabel.A1

    def test_b_area(self):
        c = consts(128, delta=0.1)
        assert area((0.52, 0.53), c) is YellowLabel.B1

    def test_c_area(self):
        c = consts(128, delta=0.1)
        assert area((0.45, 0.47), c) is YellowLabel.C1

    def test_outside_box(self):
        c = consts(128, delta=0.05)
        assert area((0.2, 0.5), c) is YellowLabel.OUTSIDE
        assert area((0.5, 0.71), c) is YellowLabel.OUTSIDE

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.floats(0.301, 0.699),
        y=st.floats(0.301, 0.699),
    )
    def test_box_always_labelled(self, x, y):
        # Every point of Yellow' gets exactly one A/B/C label.
        c = consts(128, delta=0.05)
        assert in_yellow_prime((x, y), c)
        assert area((x, y), c) is not YellowLabel.OUTSIDE
        assert area((x, y), c) is area_oracle((x, y), c)

    def test_yellow_subset_of_box(self):
        # Yellow (domain) is contained in Yellow' (box) for every tested size.
        for n in (64, 128):
            for delta in (0.05, 0.1):
                c = consts(n, delta=delta)
                x, y = grid(n)
                yellow = classify(x, y, c) == DOMAINS.index(DomainLabel.YELLOW)
                assert yellow.any()
                assert all(in_yellow_prime(point, c) for point in zip(x[yellow], y[yellow]))


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
        assert domain((0.5, 0.5), c) is DomainLabel.YELLOW
        assert classify(np.float64(0.5), np.float64(0.5), c) == DOMAINS.index(DomainLabel.YELLOW)


class TestAudit:
    def test_smoke_small(self):
        c = consts(8)
        report = audit_partition(c)
        assert report["total_points"] == 81
        assert sum(report["label_histogram"].values()) == 81
        assert report["yellow_reading"]

    def test_corners_covered_and_labelled(self):
        c = consts(64)
        report = audit_partition(c)
        assert report["corner_absorbing_label"] == "Cyan0"
        assert report["corner_cyan_label"] == "Cyan1"
        # Entries are [k_x, k_y] lists: a tuple is never among them.
        assert [64, 64] not in report["uncovered"]
        assert [1, 1] not in report["uncovered"]

    def test_match_counts_consistent(self):
        n = 200
        c = consts(n)
        report = audit_partition(c)
        assert report["match_counts"] == {"0": 7, "1": 39526, "2": 868}
        assert sum(report["match_counts"].values()) == (n + 1) ** 2
        assert report["match_counts"]["0"] == report["uncovered_count"] == len(GAPS_200)
        multi = sum(v for k, v in report["match_counts"].items() if int(k) >= 2)
        assert multi == report["multiply_covered_count"]

    def test_mirrored_coverage(self):
        for n in (32, 64):
            report = audit_partition(consts(n))
            assert report["mirror_symmetric"]

    @pytest.mark.xfail(
        strict=True,
        reason="each 0-variant is tested at 1.0 - k/n, which rounding does not always "
        "make (n - k)/n: the gap (13, 3) is uncovered but its mirror (187, 197) is Cyan0",
    )
    def test_mirrored_coverage_with_gaps(self):
        assert audit_partition(consts(200))["mirror_symmetric"]

    def test_agrees_with_pointwise_classifier(self):
        # The classifiers on whole grids agree at every grid point with
        # the oracles, which loop over the definitions one float point
        # at a time, and the audit's histogram counts the same labels.
        for n, delta in [(32, 0.05), (64, 0.05), (128, 0.1), (97, 0.2), (200, 0.05)]:
            c = consts(n, delta=delta)
            x, y = grid(n)
            domains, areas = classify(x, y, c), classify_yellow(x, y, c)
            histogram = dict.fromkeys((label.value for label in DomainLabel), 0)
            for kx in range(n + 1):
                for ky in range(n + 1):
                    point = (kx / n, ky / n)
                    label = domain_oracle(point, c)
                    histogram[label.value] += 1
                    assert DOMAINS[domains[kx, ky]] is label
                    assert AREAS[areas[kx, ky]] is area_oracle(point, c)
            assert histogram == audit_partition(c)["label_histogram"]

    def test_multiply_covered_points_real(self):
        n = 128
        c = consts(n)
        report = audit_partition(c)
        for kx, ky, count in report["multiply_covered"][:20]:
            assert len(matching_domains((kx / n, ky / n), c)) == count >= 2

    def test_size_cap(self):
        with pytest.raises(UsageError):
            audit_partition(consts(1024))

    def test_report_serializes(self):
        import json

        payload = audit_partition(consts(16))
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
                assert set(own[0].tolist()) <= {len(DOMAINS) - 1}
                assert set(own[1].tolist()) <= {len(AREAS) - 1}
                continue
            c = AnalysisConstants.for_population(n, delta=0.05, ell=25)
            for (k0, k1), label, yellow in zip(zip(path, path[1:]), *own):
                assert DOMAINS[label] is domain_oracle((k0 / n, k1 / n), c)
                assert AREAS[yellow] is area_oracle((k0 / n, k1 / n), c)

    def test_no_paths(self):
        domains, yellows = label_paths(np.zeros(0, dtype=np.int64), 64, 0.05, 13)
        assert domains.size == yellows.size == 0
