"""Block floating point key-cache quantization with compile-time channel sorting.

The package splits into six modules:

* :mod:`bfpksort.bfp`        the shared-exponent block codec (cast, decode,
                             bit-exact packing, integer dot products),
* :mod:`bfpksort.rope`       rotary embeddings over explicit channel tables,
* :mod:`bfpksort.ksort`      the compile-time row-sorting pass for key/query
                             projections, including rotary table remapping,
* :mod:`bfpksort.simharness` a desk-scale decode simulator measuring what
                             the sorting buys under low-bit cache storage,
* :mod:`bfpksort.tensorio`   a small audited binary tensor container,
* :mod:`bfpksort.cli`        the experiment sweep runner.

The top level re-exports the pipeline's entry points and the types a caller
builds inputs from or catches; every other name (the other presets,
``format_from_name``, the error subclasses) is imported from its module.
"""

from .bfp import (
    BFP12_32,
    BFP16_32,
    BfpFormat,
    BfpTensor,
    bfp_dot,
    bits_per_element,
    dequantize,
    pack,
    quantize_block,
    quantize_tensor,
    unpack,
)
from .errors import BfpKsortError
from .ksort import (
    HeadWeights,
    Permutation,
    PermutationPlan,
    plan_head,
    remap_rope_tables,
)
from .rope import RopeTables, default_rope_tables, rope_apply
from .simharness import (
    OutlierSpec,
    error_metrics,
    exactness_check,
    gen_activations,
    gen_outlier_head,
    score_max_abs_err,
    simulate_decode,
)

__version__ = "0.1.0"
