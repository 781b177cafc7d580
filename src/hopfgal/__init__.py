"""Exact toolkit for Hopf-Galois extensions with central invariants.

Everything is structure constants over explicit commutative base rings:
construction, certification (reports, never booleans alone), cleft
structure and cocycles, push-forwards along base morphisms, and homotopy
equivalence witnessed by families over an interval.
"""

from .bundles import (
    AbgParams,
    SqrtReduction,
    TrivialityVerdict,
    abg_bundle,
    abg_cleaving,
    abg_triviality_criterion,
    kummer_bundle,
    kummer_root_data,
    search_trivialization,
    sqrt_reduction,
    trivialization_matrix,
)
from .cleft import (
    CleavingMap,
    Cocycle,
    check_cleaving,
    cleaving_of_twisted_product,
    crossed_product,
    extract_cocycle,
    push_cocycle,
    trivial_action,
    trivial_cocycle,
    twisted_product,
)
from .comod import (
    ComoduleAlgebra,
    HModuleMap,
    check_iso,
    coinvariants_over_field,
    convolution_invert,
    convolve,
    map_matrix_entries,
    push_forward,
    trivial_bundle,
    unit_counit_map,
    verify_comodule_algebra,
)
from .document import (
    Document,
    document_of,
    dump_document,
    load_document,
    parse_document,
)
from .errors import (
    BadScalarError,
    HopfGalError,
    InputError,
    MathError,
    SchemaError,
    UnresolvedReferenceError,
)
from .fields import QQ, PrimeField, SimpleExtension, field_from_name
from .galois import GaloisVerdict, canonical_matrix, is_galois, verify_bundle
from .homotopy import (
    EtaleStep,
    HomotopyWitness,
    WitnessChain,
    cleft_trivialization_witness,
    compose_steps,
    etale_trivialization_witness,
    grading_witness,
    identity_step,
    kummer_trivialization_witness,
    morphism_homotopy_witness,
    reflexive_witness,
    root_step,
    transport_step,
    transport_witness,
    verify_chain,
    verify_morphism_homotopy,
    verify_step,
    verify_witness,
)
from .hopf import (
    Bialgebra,
    HopfAlgebra,
    cyclic_group_algebra,
    dual_hopf,
    hopf_from_bialgebra,
    sweedler_h4,
    taft,
    verify_hopf,
)
from .report import Check, Report
from .rings import (
    BaseElement,
    BaseMorphism,
    BaseRing,
    IntervalRing,
    adjoin_root,
    base_ring,
    extend_with_t,
    inclusion_morphism,
    laurent_ring,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
