"""Flat column helpers and the compiled-trace aggregates built on them.

The aggregates ``Trace.instructions`` / ``transactions`` /
``persistent_stores`` are reductions over :class:`CompiledTrace`'s
columns; the hypothesis test checks each against its per-op
definition on random traces.
"""

from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.columns import (
    count_byte,
    int_column,
    masked_count,
    sum_compute_instructions,
)
from repro.common.types import NVM_BASE
from repro.cpu.trace import KIND_COMPUTE, OpType, Trace, TraceOp


def test_int_column_is_a_signed_64_bit_array():
    column = int_column([0, -1, 2**62])
    assert isinstance(column, array)
    assert column.typecode == "q"
    assert list(column) == [0, -1, 2**62]


def test_count_byte_counts_one_code():
    assert count_byte(bytes([1, 2, 1, 0, 1]), 1) == 3
    assert count_byte(b"", 1) == 0


def test_masked_count_needs_both_code_and_mask():
    kinds = bytes([1, 1, 2, 1])
    mask = bytes([1, 0, 1, 1])
    assert masked_count(kinds, 1, mask) == 2
    assert masked_count(kinds, 2, mask) == 1
    assert masked_count(kinds, 3, mask) == 0


def test_sum_compute_instructions_without_compute_ops_is_the_op_count():
    kinds = bytes([0, 1, 3, 4])
    assert sum_compute_instructions(kinds, int_column([9, 9, 9, 9]), 2) == 4


def test_sum_compute_instructions_weights_only_compute_ops():
    kinds = bytes([2, 0, 2, 1])
    counts = int_column([5, 1, 7, 1])
    assert sum_compute_instructions(kinds, counts, 2) == 5 + 1 + 7 + 1
    assert sum_compute_instructions(kinds, int_column([5, 99, 7, 99]),
                                    2) == 5 + 1 + 7 + 1


def test_compiled_columns_follow_appended_ops():
    trace = Trace("t", [TraceOp(OpType.COMPUTE, count=3)])
    assert trace.instructions == 3
    trace.ops.append(TraceOp(OpType.STORE, addr=NVM_BASE))
    assert len(trace.compiled().kinds) == 2
    assert trace.instructions == 4
    assert trace.persistent_stores == 1


_OPS = st.one_of(
    st.builds(TraceOp, st.just(OpType.COMPUTE),
              count=st.integers(min_value=1, max_value=50)),
    st.builds(TraceOp, st.sampled_from([OpType.LOAD, OpType.STORE,
                                        OpType.CLWB]),
              addr=st.sampled_from([0x40, 0x1000, NVM_BASE,
                                    NVM_BASE + 0x80])),
    st.builds(TraceOp, st.sampled_from([OpType.TX_BEGIN, OpType.TX_END,
                                        OpType.SFENCE])),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_OPS, max_size=60))
def test_compiled_aggregates_match_per_op_definitions(ops):
    trace = Trace("t", ops)
    compiled = trace.compiled()
    assert trace.instructions == sum(op.instructions for op in ops)
    assert trace.transactions == sum(op.op is OpType.TX_END for op in ops)
    assert trace.persistent_stores == sum(
        op.op is OpType.STORE and op.persistent for op in ops)
    assert count_byte(compiled.kinds, KIND_COMPUTE) == sum(
        op.op is OpType.COMPUTE for op in ops)
    assert list(compiled.counts) == [op.count for op in ops]
