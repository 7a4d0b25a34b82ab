"""Volumetric accounting and CNOT totals of the built circuits."""

import pytest

from sesvqe import circuits, resources


def test_volumetric_cost():
    assert resources.VolumetricRow("x", 3, 5, 2).volume == 30
    assert resources.VolumetricRow("x", 4, 0, 1).volume == 0


def test_asymptotic_rows_four_sites():
    rows = {r.strategy: r for r in resources.asymptotic_rows(4)}
    assert rows["original"].as_dict() == {
        "strategy": "original",
        "width": 4,
        "depth": 4,
        "settings": 3,
        "volume": 48,
    }
    assert rows["binary_hardware_efficient"].volume == 20
    assert rows["binary_full"].volume == 40
    assert rows["binary_gray"].volume == 80
    assert all(r.settings == 5 for n, r in rows.items() if n != "original")


def test_asymptotic_rows_rejects_bad_size():
    with pytest.raises(ValueError):
        resources.asymptotic_rows(0)


def test_volume_ratios_kilosite():
    ratios = resources.volume_ratios(1024)
    assert ratios["binary_hardware_efficient"] == pytest.approx(1497.9657142857143)
    # original volume: 1024 * 1024 * 3; full: 10 * 1024 * 21
    assert ratios["binary_full"] == pytest.approx((1024 * 1024 * 3) / (10 * 1024 * 21))
    assert set(ratios) == {"binary_hardware_efficient", "binary_full", "binary_gray"}


class TestConstantsFreeRatios:
    def test_kilosite(self):
        ratios = resources.constants_free_ratios(1024)
        assert ratios["binary_hardware_efficient"] == pytest.approx(1048.576)
        assert ratios["binary_full"] == pytest.approx(10.24)
        assert ratios["binary_gray"] == pytest.approx(1.024)
        assert resources.order_of_magnitude(ratios["binary_hardware_efficient"]) == 3

    def test_megasite(self):
        n = 2**20
        ratios = resources.constants_free_ratios(n)
        assert ratios["binary_hardware_efficient"] == pytest.approx(137438953.472)
        assert ratios["binary_full"] == pytest.approx(2621.44)
        assert ratios["binary_gray"] == pytest.approx(131.072)
        figures = {
            k: resources.leading_figure(v) for k, v in ratios.items()
        }
        assert figures == {
            "binary_hardware_efficient": "1.4e+08",
            "binary_full": "2.6e+03",
            "binary_gray": "1.3e+02",
        }
        buckets = {k: resources.order_of_magnitude(v) for k, v in ratios.items()}
        assert buckets == {
            "binary_hardware_efficient": 8,
            "binary_full": 3,
            "binary_gray": 2,
        }

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            resources.constants_free_ratios(0)


def test_order_of_magnitude():
    assert resources.order_of_magnitude(1.0) == 0
    assert resources.order_of_magnitude(999.9) == 2
    assert resources.order_of_magnitude(1000.0) == 3
    assert resources.order_of_magnitude(0.05) == -2
    with pytest.raises(ValueError):
        resources.order_of_magnitude(0.0)
    with pytest.raises(ValueError):
        resources.order_of_magnitude(-4.0)


def test_leading_figure():
    assert resources.leading_figure(137438953.472) == "1.4e+08"
    assert resources.leading_figure(137438953.472, digits=3) == "1.37e+08"
    assert resources.leading_figure(0.0321) == "3.2e-02"
    with pytest.raises(ValueError):
        resources.leading_figure(0.0)


def test_binary_cnot_totals_frozen():
    got = {n: resources.binary_ansatz_cnot_total(n) for n in (4, 8, 16, 32, 64, 128, 256)}
    assert got == {
        4: 46,
        8: 198,
        16: 602,
        32: 1610,
        64: 4026,
        128: 9658,
        256: 22522,
    }


def test_onehot_cnot_totals():
    for n in (1, 2, 8, 50):
        assert circuits.build_ses_circuit(n).cnot_count == 3 * (n - 1)


class TestScalingExponent:
    def test_binary_totals_track_n_log_n(self):
        sizes = [4, 8, 16, 32, 64, 128, 256]
        costs = [resources.binary_ansatz_cnot_total(n) for n in sizes]
        slope = resources.scaling_exponent(
            sizes, costs, lambda n: n * resources.register_width(n)
        )
        assert slope == pytest.approx(1.1033158308344364, abs=1e-12)
        assert 0.85 <= slope <= 1.15

    def test_exact_power_law(self):
        sizes = [2, 4, 8, 16]
        costs = [s**2 for s in sizes]
        assert resources.scaling_exponent(sizes, costs, lambda s: s) == pytest.approx(2.0)

    def test_errors(self):
        with pytest.raises(ValueError, match="matching"):
            resources.scaling_exponent([1, 2], [1.0], lambda s: s)
        with pytest.raises(ValueError, match="two points"):
            resources.scaling_exponent([4], [16.0], lambda s: s)


def test_report_table_shape():
    table = resources.report_table(8)
    assert table["n_sites"] == 8
    assert table["register_width"] == 3
    assert [r["strategy"] for r in table["rows"]] == list(resources.STRATEGIES)
    assert table["rows"][0]["volume"] == 8 * 8 * 3
    assert set(table["volume_ratios_vs_original"]) == set(resources.STRATEGIES) - {"original"}
    assert set(table["constants_free_ratios"]) == set(resources.STRATEGIES) - {"original"}
