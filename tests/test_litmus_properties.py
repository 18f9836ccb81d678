"""Properties of the litmus layer: generator determinism and the
engine-path equivalence (direct runs == default engine == pool, cold ==
warm cache).

Determinism is load-bearing, not cosmetic: program bytes feed the
parallel engine's cache keys, so a seed that produced different bytes
on two runs would silently split (or worse, alias) cache entries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.litmus import default_suite, random_program
from repro.litmus.oracle import (
    all_tx_ids,
    legal_commit_sets,
    line_candidates,
    tx_summaries,
)
from repro.litmus.runner import run_litmus, run_litmus_matrix
from repro.sim.parallel import ExperimentEngine


class TestGeneratorDeterminism:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_same_seed_same_bytes_and_same_legal_sets(self, seed):
        first = random_program(seed)
        second = random_program(seed)
        assert first.canonical_json() == second.canonical_json()
        assert first.fingerprint == second.fingerprint

        summaries = [tx_summaries(p.to_traces()) for p in (first, second)]
        assert legal_commit_sets(summaries[0]) == \
            legal_commit_sets(summaries[1])
        committed = all_tx_ids(summaries[0])
        assert line_candidates(summaries[0], committed) == \
            line_candidates(summaries[1], committed)

    @given(seed=st.integers(0, 2**32 - 1),
           cores=st.integers(1, 4),
           max_txs=st.integers(1, 4),
           max_stores=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_random_programs_are_well_formed(self, seed, cores,
                                             max_txs, max_stores):
        program = random_program(seed, cores=cores, max_txs=max_txs,
                                 max_stores=max_stores)
        program.validate()  # grammar invariants
        for trace in program.to_traces():
            trace.validate()  # compiled traces are simulator-legal
        assert program.num_cores == cores

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_default_suite_is_reproducible(self, seed):
        a = default_suite(seed, count=8)
        b = default_suite(seed, count=8)
        assert [p.fingerprint for p in a] == [p.fingerprint for p in b]
        assert len(a) == 8

    def test_serialization_roundtrip_preserves_identity(self):
        from repro.litmus import LitmusProgram

        program = random_program(123, cores=3)
        clone = LitmusProgram.from_dict(program.to_dict())
        assert clone.canonical_json() == program.canonical_json()
        assert clone.fingerprint == program.fingerprint


class TestEnginePathEquivalence:
    def test_matrix_equals_direct_runs_default_and_pooled(self, tmp_path):
        programs = default_suite(3, count=4)
        schemes = ("kiln", "txcache")

        direct = [run_litmus(program, scheme)
                  for program in programs for scheme in schemes]
        default = run_litmus_matrix(programs, schemes)
        pooled = run_litmus_matrix(
            programs, schemes,
            engine=ExperimentEngine(jobs=2,
                                    cache_dir=str(tmp_path / "cache")))
        assert [r.to_dict() for r in direct] == \
            [r.to_dict() for r in default.results] == \
            [r.to_dict() for r in pooled.results]

        # a second run over the same cache is all warm hits — and
        # byte-identical
        engine = ExperimentEngine(jobs=2,
                                  cache_dir=str(tmp_path / "cache"))
        warm = run_litmus_matrix(programs, schemes, engine=engine)
        assert [r.to_dict() for r in warm.results] == \
            [r.to_dict() for r in direct]
        assert engine.stats.counter("engine.cache.hits") == len(direct)
