"""Weighted context-free-language ordered binary decision diagrams.

Canonical, hash-consed, hierarchically structured decision diagrams
whose edges carry weights from a semi-field. A Boolean-indexed
function over 2^k variables is represented in the triple form
(factor, head grouping, value tuple); structurally equal functions
intern to the identical triple, which makes equality checks pointer
comparisons and keeps repeated substructure shared.

Quick tour::

    from wcflobdd import Forest, rational_field, fold, unfold

    forest = Forest(rational_field())
    d = fold(forest, [1, 2, 3, 4])
    unfold(d)            # back to the flat leaf array
    fold(forest, [1, 2, 3, 4]) is d   # True: canonical handles

Pointwise and matrix algebra live in :mod:`wcflobdd.pointwise` and
:mod:`wcflobdd.matrix`; sampling in :mod:`wcflobdd.sampling`; the
quantum-circuit layer in :mod:`wcflobdd.quantum`.
"""

from .semifield import (
    Semifield,
    rational_field,
    real_field,
    complex_field,
    field_by_name,
)
from .core import (
    Forest,
    Diagram,
    StructureError,
    evaluate,
    size,
    validate,
)
from .construct import (
    fold,
    unfold,
    scalar_multiply,
    exp_family,
    walsh_family,
    hadamard_family,
    identity_matrix,
    not_matrix,
)
from .pointwise import multiply, add, subtract
from .matrix import kronecker, matrix_multiply, apply_matrix_to_vector
from .sampling import SampleContext, measure_view, sample_assignment
from .quantum import (
    Circuit,
    QuantumState,
    parse_circuit,
    run_circuit,
    amplitude,
    state_vector,
    measure,
)
from .serialize import dump_diagram, load_diagram, export_dot

__all__ = [
    "Semifield",
    "rational_field",
    "real_field",
    "complex_field",
    "field_by_name",
    "Forest",
    "Diagram",
    "StructureError",
    "evaluate",
    "size",
    "validate",
    "fold",
    "unfold",
    "scalar_multiply",
    "exp_family",
    "walsh_family",
    "hadamard_family",
    "identity_matrix",
    "not_matrix",
    "multiply",
    "add",
    "subtract",
    "kronecker",
    "matrix_multiply",
    "apply_matrix_to_vector",
    "SampleContext",
    "measure_view",
    "sample_assignment",
    "Circuit",
    "QuantumState",
    "parse_circuit",
    "run_circuit",
    "amplitude",
    "state_vector",
    "measure",
    "dump_diagram",
    "load_diagram",
    "export_dot",
]

__version__ = "0.1.0"
