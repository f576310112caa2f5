"""Absolute-PPT properties of symmetric multiqubit and small multiqudit states.

Exact SAPPT threshold probabilities, analytic and numeric spectra of
partially transposed symmetric states, and verification of the explicit
Dicke-basis entanglement witnesses, with a CLI that reproduces the
reference tables as CSV or JSON.
"""

from .combx import (
    SqrtRational,
    binomial,
    dicke_split_coefficient,
    multinomial,
    sappt_threshold_qubits,
    sappt_threshold_qudits,
    symmetric_dimension,
)
from .ptrans import (
    LadderOperators,
    Spectrum,
    ghz_corner_eigencheck,
    ladder_operators,
    maxmixed_pt,
    maxmixed_pt_blocks,
    maxmixed_pt_eigenbasis,
    maxmixed_pt_spectrum,
    min_eigenvalue,
    mixture_min_eig_bound,
    partial_transpose_a,
    qudit_min_eig_check,
    schmidt_spectrum,
)
from .symstate import (
    Bipartition,
    BipartiteOperator,
    PureSymmetricState,
    SymmetricDensityMatrix,
    coherent_state,
    dicke_decomposition,
    dicke_labels,
    embed_bipartite,
    embed_pure,
    embedding_matrix,
    ghz_state,
    mix_with_identity,
    state_from_json,
    state_to_json,
)
from .witness import (
    Witness,
    builtin_witness,
    detection_threshold,
    expectation_value,
    ghz_witness_mixture,
    load_witness_file,
    minimize_over_products,
    product_state_expectation,
    witness_from_json,
    witness_to_json,
)

__version__ = "0.1.0"
