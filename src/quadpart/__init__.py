"""Exact arithmetic, indecomposables, and partition counting in Q(sqrt(D))."""

from .qfield import (
    BadIndex,
    CtxMismatch,
    FieldCtx,
    InternalError,
    NotSquarefree,
    NotTotallyPositive,
    OutOfRange,
    QuadInt,
    QuadpartError,
    SurdExpr,
    make_field,
)
from .cfrac import CFData, ConvergentTable, cf_expand
from .indec import Decomp, IndecSeq, indec_seq
from .partcount import (
    CountResult,
    closed_count_double_pair,
    closed_count_small,
    exists_six_partitions,
    flat_run_radius,
    gen_six_partitions,
    gen_two_indec_partitions,
    has_two_indec_partitions,
    is_uniquely_decomposable,
    list_partitions,
    parts_leq,
    pk,
    pk_indec,
    six_or_nine_witness,
)
from .theorems import (
    BoundReport,
    DensityReport,
    density_report,
    norm_bound,
    partition_range_witnesses,
    scan_missing_six_fast,
    scan_missing_value,
    squarefree_range,
    value_attained,
    verify_norm_bound,
)

__version__ = "0.1.0"
