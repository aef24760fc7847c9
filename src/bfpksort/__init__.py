"""Block floating point key-cache quantization with compile-time channel sorting.

The package splits into five layers:

* :mod:`bfpksort.bfp`        the shared-exponent block codec (cast, decode,
                             bit-exact packing, integer dot products),
* :mod:`bfpksort.rope`       rotary embeddings over explicit channel tables,
* :mod:`bfpksort.ksort`      the compile-time row-sorting pass for key/query
                             projections, including rotary table remapping,
* :mod:`bfpksort.simharness` a desk-scale decode simulator measuring what
                             the sorting buys under low-bit cache storage,
* :mod:`bfpksort.tensorio`   a small audited binary tensor container,
* :mod:`bfpksort.cli`        the experiment sweep runner.
"""

from .bfp import (
    BFP12,
    BFP16,
    BFP12_32,
    BFP12_64,
    BFP12_128,
    BFP16_32,
    BFP16_64,
    BFP16_128,
    BfpBlock,
    BfpFormat,
    BfpTensor,
    bfp_dot,
    bits_per_element,
    dequantize,
    format_from_name,
    pack,
    quantize_block,
    quantize_tensor,
    unpack,
)
from .errors import (
    BfpKsortError,
    CorruptBuffer,
    CorruptFile,
    ExponentOverflow,
    InvalidConfig,
    InvalidRopeTables,
    InvalidValue,
    NotATensorFile,
    PlanMismatch,
    ShapeMismatch,
    UnsupportedVersion,
)
from .ksort import (
    HeadWeights,
    Permutation,
    PermutationPlan,
    argsort_norms,
    expected_cache_mse,
    permute_rows,
    plan_head,
    remap_rope_tables,
    row_norms,
)
from .rope import RopeTables, default_rope_tables, rope_apply
from .simharness import (
    DecodeTrace,
    ErrorReport,
    OutlierSpec,
    error_metrics,
    exactness_check,
    footprint,
    gen_activations,
    gen_outlier_head,
    score_max_abs_err,
    simulate_decode,
)

__version__ = "0.1.0"
