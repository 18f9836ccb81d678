"""Tests: the first-order analytic model agrees with the simulator."""

import pytest

from repro.common.config import small_machine_config
from repro.common.types import SchemeName
from repro.sim.analytic import (
    TraceProfile,
    compare_with_simulation,
    predict_overhead_cycles,
    predict_relative_performance,
)
from repro.sim.runner import make_traces, run_comparison


@pytest.fixture(scope="module")
def experiment():
    config = small_machine_config(num_cores=1)
    traces = make_traces("hashtable", 1, 200, seed=31)
    results = run_comparison("hashtable", config=config, operations=200,
                             seed=31)
    return config, traces[0], results


class TestTraceProfile:
    def test_profile_extraction(self):
        trace = make_traces("sps", 1, 10, seed=1, array_elements=64)[0]
        profile = TraceProfile.of(trace)
        assert profile.transactions == trace.transactions
        assert profile.stores_per_tx > 0
        assert profile.lines_per_tx <= profile.stores_per_tx


class TestPredictions:
    def test_optimal_has_zero_overhead(self, experiment):
        config, trace, _results = experiment
        assert predict_overhead_cycles(trace, config,
                                       SchemeName.OPTIMAL) == 0.0

    def test_ordering_of_predicted_overheads(self, experiment):
        config, trace, _results = experiment
        sp = predict_overhead_cycles(trace, config, SchemeName.SP)
        kiln = predict_overhead_cycles(trace, config, SchemeName.KILN)
        txc = predict_overhead_cycles(trace, config, SchemeName.TXCACHE)
        assert sp > kiln > txc

    def test_relative_performance_in_unit_interval(self, experiment):
        config, trace, results = experiment
        optimal_cycles = results[SchemeName.OPTIMAL].cycles
        for scheme in (SchemeName.SP, SchemeName.KILN, SchemeName.TXCACHE):
            ratio = predict_relative_performance(trace, config, scheme,
                                                 optimal_cycles)
            assert 0 < ratio <= 1


class TestAgreementWithSimulation:
    def test_sp_overhead_within_2x(self, experiment):
        config, trace, results = experiment
        comparison = compare_with_simulation(trace, config, results)
        sp = comparison[SchemeName.SP]
        assert sp["simulated_overhead"] > 0
        ratio = sp["predicted_overhead"] / sp["simulated_overhead"]
        assert 0.4 < ratio < 2.5, comparison

    def test_txcache_overhead_is_tiny_in_both(self, experiment):
        config, trace, results = experiment
        comparison = compare_with_simulation(trace, config, results)
        txc = comparison[SchemeName.TXCACHE]
        optimal_cycles = results[SchemeName.OPTIMAL].cycles
        assert txc["predicted_overhead"] < optimal_cycles * 0.05
        assert txc["simulated_relative"] > 0.9

    def test_relative_predictions_rank_like_simulation(self, experiment):
        config, trace, results = experiment
        comparison = compare_with_simulation(trace, config, results)

        def ranks(key):
            return sorted(comparison,
                          key=lambda scheme: comparison[scheme][key])

        assert ranks("predicted_relative") == ranks("simulated_relative")
