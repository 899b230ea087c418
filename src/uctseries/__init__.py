"""Universal-coding statistics for time series.

Consistent probability and density estimation, sequential prediction
(with side information and multi-sample inputs), an adaptive arithmetic
coder, and compression-based hypothesis tests for goodness of fit and
serial independence.
"""

from .seqmodel import (
    Alphabet,
    AlphabetMismatchError,
    MultiSample,
    SymbolSeq,
    count_occurrences,
)
from .estimators import (
    KtState,
    MarkovSource,
    MixtureEstimator,
    MonteCarloEstimate,
    PairAlphabet,
    avg_kl_error,
    kt_log2prob,
    laplace_cond_log2prob,
    laplace_log2prob,
    log2_sum,
    order_weight,
    order_weight_tail,
    r_cond_log2prob,
    r_log2prob,
    side_info_cond_log2probs,
)
from .coding import (
    CodelengthProvider,
    ExternalCompressor,
    arithmetic_decode,
    arithmetic_encode,
    arithmetic_provider,
    compress_container,
    decompress_container,
    external_provider,
    ideal_r_provider,
    measure_provider,
)
from .testing import (
    EmpiricalEntropy,
    TestReport,
    empirical_entropy,
    identity_test,
    partition_meta_test,
    serial_independence_test,
)
from .realvalued import (
    DensityEstimator,
    DomainError,
    Partition,
    PiecewiseConstantDensity,
    conditional_density,
    density_log2,
    event_probability,
    expectation,
    quantize,
    sign_process_generate,
)

__version__ = "0.1.0"
