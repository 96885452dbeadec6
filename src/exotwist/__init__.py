"""Exact-arithmetic certification of exotic boundary Dehn twists on
Brieskorn-Pham Milnor fibers M_c(p,q,r).

Everything is integer or rational arithmetic: lattice-point counts for the
intersection form, Seifert matrices over Z for the torus-knot cross-check,
and a two-element-coordinate model of KO^0(S^1) for the parity ledger.  No
floats anywhere a theorem depends on one.

The names imported below are the package's public API; every one is defined
in a submodule and documented there.
"""

from .arith import Triple, is_pairwise_coprime, quarter_genus_is_odd
from .cache import FORMULA_VERSION, InvariantCache
from .certify import (ROUTE_DIRECT, ROUTE_EMBEDDING, ROUTE_NONE, Certificate, Condition,
                      certify, certify_direct, certify_embedding)
from .errors import (ConsistencyError, DimensionLimitError, PreconditionError,
                     UnsupportedInputError)
from .ko_ring import (L, ONE, EigenDecomposition, FramingClass, KOElement, LedgerReport, add,
                      exoticness_ledger, framing_change, mul, mul_l, pullback_double_cover,
                      pullback_framing_class)
from .milnor import (MilnorInvariants, b_plus_via_lemma, brieskorn_count, from_counts,
                     invariants, milnor_number)
from .scan import ScanConfig, run_scan, scan_certificates, stream_scan
from .torus_knot import (BraidWord, SeifertMatrix, SignatureResult, knot_signature_count,
                         knot_signature_glm, knot_signature_seifert, seifert_matrix,
                         seifert_signatures, slice_genus, symmetric_signature, torus_braid)

__version__ = "0.1.0"
