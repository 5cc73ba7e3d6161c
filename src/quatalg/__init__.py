"""Exact computational algebra for quaternion algebras, quadratic forms,
Clifford algebras, and common-slot / element chains over computable fields."""

__version__ = "0.1.0"

from .algebras import (
    AlgebraError,
    StructureConstantAlgebra,
    algebra_from_json,
    centralizer,
    center,
    find_isomorphism,
    find_zero_divisor,
    is_division,
    minimal_polynomial,
    split_as_m2,
    subalgebra_closure,
    tensor_product,
    verify_isomorphism,
)
from .certificates import CertificateError, check_chain_certificate
from .chains import (
    Chain,
    ChainError,
    SearchExhausted,
    chain,
    classify,
    decompose_with_marked_elements,
    decompose_wrt,
    find_anticommuting_link,
    find_commuting_link,
    mixed_link,
)
from .clifford import (
    CliffordAlgebra,
    CliffordError,
    clifford_algebra,
    even_part,
    extract_E,
)
from .fields import (
    FiniteField,
    FunctionField,
    LaurentField,
    Rationals,
    field_from_json,
    t_adic_valuation,
)
from .forms import (
    FormError,
    QuadraticForm,
    adjoin_root,
    discriminant,
    form_from_json,
    hyperbolic_plane,
    is_isometric,
    is_isotropic,
    quaternion_norm_form,
    represents,
    trivialize_discriminant,
    witt_decompose,
)
from .localglobal import (
    Place,
    hasse_invariant,
    hilbert_symbol,
    is_isotropic_global,
    is_isotropic_local,
)
from .quaternions import (
    CommonSlotChain,
    QuaternionError,
    QuaternionSymbol,
    SlotChain,
    TensorPresentation,
    are_isomorphic,
    common_slot_chain,
    common_slot_chain_tensor,
    is_division_symbol,
    realize,
)

__all__ = [
    "AlgebraError", "StructureConstantAlgebra", "algebra_from_json",
    "centralizer", "center", "find_isomorphism", "find_zero_divisor",
    "is_division", "minimal_polynomial", "split_as_m2",
    "subalgebra_closure", "tensor_product", "verify_isomorphism",
    "CertificateError", "check_chain_certificate",
    "Chain", "ChainError", "SearchExhausted", "chain", "classify",
    "decompose_with_marked_elements", "decompose_wrt",
    "find_anticommuting_link", "find_commuting_link", "mixed_link",
    "CliffordAlgebra", "CliffordError", "clifford_algebra", "even_part",
    "extract_E",
    "FiniteField", "FunctionField", "LaurentField", "Rationals",
    "field_from_json", "t_adic_valuation",
    "FormError", "QuadraticForm", "adjoin_root", "discriminant",
    "form_from_json", "hyperbolic_plane", "is_isometric", "is_isotropic",
    "quaternion_norm_form", "represents", "trivialize_discriminant",
    "witt_decompose",
    "Place", "hasse_invariant", "hilbert_symbol", "is_isotropic_global",
    "is_isotropic_local",
    "CommonSlotChain", "QuaternionError", "QuaternionSymbol", "SlotChain",
    "TensorPresentation", "are_isomorphic", "common_slot_chain",
    "common_slot_chain_tensor", "is_division_symbol", "realize",
]
