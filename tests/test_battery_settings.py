"""The verify battery's fixed settings, as ``report.json`` carries them:
each suite's tolerance and the sizes of its samples and grids."""

from gneumann.verification import run_all_suites


def test_the_battery_reports_its_fixed_settings(p3_closure):
    suites = run_all_suites(p3_closure)["suites"]
    assert {name: s["tolerance"] for name, s in suites.items()} == {
        "gauss_green": 1e-10,
        "chapman_kolmogorov": 1e-9,
        "stochastic_completeness": 1e-10,
        "kernel_bounds": 1e-10,
        "heat_equation": 5.0,
        "mixing": 0.0,
        "ultracontractivity": 1e-10,
        "markov_property": 1e-12,
        "green_identity": 1e-9,
        "cross_method": 1e-8,
    }
    assert suites["gauss_green"]["pairs"] == 50
    assert suites["chapman_kolmogorov"]["pairs"] == 10
    assert suites["markov_property"]["functions"] == 20
    assert suites["mixing"]["grid_points"] == 50
    assert suites["heat_equation"]["expected_ratio"] == 4.0
    assert all(s["passed"] for s in suites.values())
