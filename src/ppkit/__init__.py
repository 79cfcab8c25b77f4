"""Finite-field toolkit for permutation polynomial families over F_{q^2}."""

from .criteria import (
    Verdict,
    cubic_norm_pp,
    predict,
    quintic_norm_pp,
    reduce_trace_composed,
    t319_subfield_h,
)
from .decompose import DecompositionConfig, component_map, lemma31_extract, verify_equivalence
from .directions import DirectionReport, check_complementarity, direction_set, permuting_translate_set
from .errors import PPKitError
from .families import (
    ComponentTable,
    FamilySpec,
    closed_form_components,
    eval_family,
    family_for_theorem,
    theorem_info,
)
from .gf import FieldCtx, FieldElem, build_field
from .oracle import OracleReport, is_bijection, multivar_bijection
from .sweep import SweepRecord, check_single, sweep_theorem, write_records
from .tower import TowerCtx, TowerElem, build_tower, proof_substitution, valid_us

__all__ = [
    "Verdict",
    "cubic_norm_pp",
    "predict",
    "quintic_norm_pp",
    "reduce_trace_composed",
    "t319_subfield_h",
    "DecompositionConfig",
    "component_map",
    "lemma31_extract",
    "verify_equivalence",
    "DirectionReport",
    "check_complementarity",
    "direction_set",
    "permuting_translate_set",
    "PPKitError",
    "ComponentTable",
    "FamilySpec",
    "closed_form_components",
    "eval_family",
    "family_for_theorem",
    "theorem_info",
    "FieldCtx",
    "FieldElem",
    "build_field",
    "OracleReport",
    "is_bijection",
    "multivar_bijection",
    "SweepRecord",
    "check_single",
    "sweep_theorem",
    "write_records",
    "TowerCtx",
    "TowerElem",
    "build_tower",
    "proof_substitution",
    "valid_us",
]

__version__ = "0.1.0"
