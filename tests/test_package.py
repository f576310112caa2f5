"""The package namespace is exactly the union of its modules' ``__all__`` lists."""

import inspect

import symppt
from symppt import combx, ptrans, symstate, witness

MODULES = (combx, ptrans, symstate, witness)

PUBLIC = {
    # combx
    "SqrtRational", "binomial", "dicke_split_coefficient", "multinomial",
    "sappt_threshold_qubits", "sappt_threshold_qudits", "symmetric_dimension",
    # ptrans
    "LadderOperators", "Spectrum", "ghz_corner_eigencheck", "ladder_operators", "maxmixed_pt",
    "maxmixed_pt_blocks", "maxmixed_pt_eigenbasis", "maxmixed_pt_spectrum", "min_eigenvalue",
    "mixture_min_eig_bound", "partial_transpose_a", "qudit_min_eig_check", "schmidt_spectrum",
    # symstate
    "Bipartition", "BipartiteOperator", "PureSymmetricState", "SymmetricDensityMatrix",
    "coherent_state", "dicke_decomposition", "dicke_labels", "embed_bipartite", "embed_pure",
    "embedding_matrix", "ghz_state", "mix_with_identity", "split_coefficients",
    "state_from_json", "state_to_json",
    # witness
    "Witness", "builtin_witness", "detection_threshold", "expectation_value",
    "ghz_witness_mixture", "load_witness_file", "minimize_over_products",
    "product_state_expectation", "witness_from_json", "witness_to_json",
}


def test_no_name_is_exported_twice():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_exports_are_the_module_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(symppt, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_public_surface():
    assert {name for module in MODULES for name in module.__all__} == PUBLIC
    assert len(PUBLIC) == 45
    exported = {
        name for name in dir(symppt)
        if not name.startswith("_") and not inspect.ismodule(getattr(symppt, name))
    }
    assert exported == PUBLIC
