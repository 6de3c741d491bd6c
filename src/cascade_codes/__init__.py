# Exact-repair regenerating codes spanning the storage-bandwidth trade-off:
# build the super-message matrix, encode to n node shares, repair any failed
# node from any d helpers, and recover the file from any k shares.
# `__all__` is the supported top-level API; everything else is imported from
# its submodule.

from .cascade import (
    HierarchyTree,
    SuperMessage,
    build_super_message,
    build_tree,
    segment_offsets,
)
from .codec import (
    EncoderMatrix,
    NodeShare,
    RepairMessage,
    encode,
    helper_repair_message,
    recover_data,
    regenerate_node,
    semi_systematize,
    vandermonde_encoder,
)
from .fqlinalg import BinaryField, Field, PrimeField, field_for_order
from .params import CodeParams, code_params, special_points

# storlab's names load on first use, so that `python -m cascade_codes.storlab`
# does not find its module already imported by the package and run it twice
_STORLAB_NAMES = frozenset({
    "encode_file", "main", "read_manifest", "read_share_file", "recover_file",
    "repair_shares", "run_verify", "share_filename", "write_manifest",
    "write_share_file",
})


def __getattr__(name: str):
    if name in _STORLAB_NAMES:
        from . import storlab

        return getattr(storlab, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BinaryField", "CodeParams", "EncoderMatrix", "Field", "HierarchyTree",
    "NodeShare", "PrimeField", "RepairMessage", "SuperMessage",
    "build_super_message", "build_tree", "code_params", "encode",
    "encode_file", "field_for_order", "helper_repair_message", "main",
    "read_manifest", "read_share_file", "recover_data", "recover_file",
    "regenerate_node", "repair_shares", "run_verify", "segment_offsets",
    "semi_systematize", "share_filename", "special_points",
    "vandermonde_encoder", "write_manifest", "write_share_file",
]
