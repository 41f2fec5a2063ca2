"""Application workloads: the paper's GE and MM algorithms plus the
heterogeneous data-distribution algorithms they rely on."""

from .distribution import (
    Rectangle,
    RowLayout,
    Tile,
    integer_column_tiling,
    column_based_tiling,
    cyclic_group_sizes,
    heterogeneous_block,
    heterogeneous_cyclic,
    proportional_counts,
)
from .fft import (
    FFT_COMPUTE_EFFICIENCY,
    FFTOptions,
    fft_transform_flops,
    fft_workload,
    generate_field,
    make_fft_program,
)
from .gaussian_pivoting import (
    PivotedGEOptions,
    generate_hard_system,
    make_pivoted_ge_program,
)
from .gaussian import (
    GE_COMPUTE_EFFICIENCY,
    GEOptions,
    GEResult,
    ge_message_count,
    generate_system,
    make_ge_program,
)
from .stencil import (
    STENCIL_COMPUTE_EFFICIENCY,
    StencilOptions,
    generate_grid,
    jacobi_reference,
    make_stencil_program,
    stencil_sweep_workload,
    stencil_workload,
)
from .matmul2d import (
    MM2DOptions,
    make_mm2d_program,
    mm2d_communication_bytes,
    mm2d_tile_workload,
)
from .matmul import (
    MM_COMPUTE_EFFICIENCY,
    MMOptions,
    MMResult,
    generate_operands,
    make_mm_program,
    mm_communication_bytes,
)
from .workload import (
    ge_back_substitution_workload,
    ge_elimination_workload,
    ge_sequential_fraction,
    ge_workload,
    mm_row_band_workload,
    mm_workload,
)

#: The compute-efficiency factor ``f`` each application's runner applies
#: to the marked speed, by registry name (Theorem 1's ideal-compute term
#: needs it back).
APP_COMPUTE_EFFICIENCY = {
    "ge": GE_COMPUTE_EFFICIENCY,
    "mm": MM_COMPUTE_EFFICIENCY,
    "fft": FFT_COMPUTE_EFFICIENCY,
    "stencil": STENCIL_COMPUTE_EFFICIENCY,
}

__all__ = [
    "APP_COMPUTE_EFFICIENCY",
    "GE_COMPUTE_EFFICIENCY",
    "GEOptions",
    "FFT_COMPUTE_EFFICIENCY",
    "FFTOptions",
    "GEResult",
    "fft_transform_flops",
    "fft_workload",
    "generate_field",
    "make_fft_program",
    "PivotedGEOptions",
    "generate_hard_system",
    "make_pivoted_ge_program",
    "MM2DOptions",
    "MM_COMPUTE_EFFICIENCY",
    "MMOptions",
    "MMResult",
    "Rectangle",
    "STENCIL_COMPUTE_EFFICIENCY",
    "StencilOptions",
    "Tile",
    "RowLayout",
    "column_based_tiling",
    "cyclic_group_sizes",
    "ge_back_substitution_workload",
    "ge_elimination_workload",
    "ge_message_count",
    "ge_sequential_fraction",
    "ge_workload",
    "generate_operands",
    "generate_system",
    "heterogeneous_block",
    "integer_column_tiling",
    "heterogeneous_cyclic",
    "make_ge_program",
    "make_mm2d_program",
    "make_mm_program",
    "mm2d_communication_bytes",
    "mm2d_tile_workload",
    "mm_communication_bytes",
    "mm_row_band_workload",
    "mm_workload",
    "proportional_counts",
    "generate_grid",
    "jacobi_reference",
    "make_stencil_program",
    "stencil_sweep_workload",
    "stencil_workload",
]
