# Exact-repair regenerating codes spanning the storage-bandwidth trade-off:
# build the super-message matrix, encode to n node shares, repair any failed
# node from any d helpers, and recover the file from any k shares

from .cascade import (
    HierarchyTree,
    SuperMessage,
    build_super_message,
    build_tree,
    child_mode,
    child_signature,
    enumerate_injection_pairs,
    file_symbol_layout,
    injection_matrix,
    layout_from_tree,
    segment_offsets,
)
from .codec import (
    EncoderMatrix,
    NodeShare,
    RepairMessage,
    encode,
    encoder_conditions_hold,
    extract_injection,
    helper_repair_message,
    recover_data,
    regenerate_node,
    repair_overlap_dim,
    semi_systematize,
    vandermonde_encoder,
)
from .combin import binomial, ind_count, subset_rank, subset_unrank, subsets_lex
from .detseg import (
    SegmentSpec,
    SymbolId,
    build_pre_injection,
    classify_entry,
    det_data_recover,
    det_repair_symbol,
    free_symbol_count,
    free_symbols,
    parity_value,
    repair_encoder,
)
from .fqlinalg import (
    BinaryField,
    Field,
    PrimeField,
    column_basis,
    default_field_order,
    mat_inverse,
    mat_mul,
    mat_rank,
    rref,
    solve_exact,
)
from .params import (
    CodeParams,
    SpecialPoints,
    code_params,
    overlap_dimension_formula,
    p_closed_form,
    params_implicit,
    special_points,
    t_sequence,
)

# storlab's names load on first use, so that `python -m cascade_codes.storlab`
# does not find its module already imported by the package and run it twice
_STORLAB_NAMES = frozenset({
    "ClusterState", "encode_file", "main", "read_manifest", "read_share_file",
    "recover_file", "repair_shares", "run_verify", "share_filename",
    "write_manifest", "write_share_file",
})


def __getattr__(name: str):
    if name in _STORLAB_NAMES:
        from . import storlab

        return getattr(storlab, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BinaryField", "ClusterState", "CodeParams", "EncoderMatrix", "Field",
    "HierarchyTree", "NodeShare", "PrimeField", "RepairMessage", "SegmentSpec",
    "SpecialPoints", "SuperMessage", "SymbolId", "binomial",
    "build_pre_injection", "build_super_message", "build_tree", "child_mode",
    "child_signature", "classify_entry", "code_params", "column_basis",
    "default_field_order", "det_data_recover", "det_repair_symbol", "encode",
    "encode_file", "encoder_conditions_hold", "enumerate_injection_pairs",
    "extract_injection", "file_symbol_layout", "free_symbol_count",
    "free_symbols", "helper_repair_message", "ind_count", "injection_matrix",
    "layout_from_tree", "main", "mat_inverse", "mat_mul", "mat_rank",
    "overlap_dimension_formula", "p_closed_form", "params_implicit",
    "parity_value", "read_manifest", "read_share_file", "recover_data",
    "recover_file", "regenerate_node", "repair_encoder", "repair_overlap_dim",
    "repair_shares", "rref", "run_verify", "segment_offsets",
    "semi_systematize", "share_filename", "solve_exact", "special_points",
    "subset_rank", "subset_unrank", "subsets_lex", "t_sequence",
    "vandermonde_encoder", "write_manifest", "write_share_file",
]
