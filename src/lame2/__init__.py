"""Lame covers of the projective line in characteristic two.

Exact (integer-only) arithmetic throughout: binary fields, elliptic curves in
long Weierstrass form, curve function fields with certified ramification,
the order-24 automorphism quotient and its torsion classification, weighted
moduli coordinates, the characteristic-zero triple census, and hyperelliptic
Jacobians for the generalized covers.
"""

from .gf2 import GF, FieldContext, FieldElement, Poly, embed, element_degree, \
    lexmin_irreducible, poly_roots, solve_artin_schreier, trace
from .common import INFINITY, VerificationError, PrecisionError, \
    FiberEscapeError, FieldInputError, ProfileFalsified, \
    TorsionSearchExhausted
from .weierstrass import WeierstrassCurve, CurvePoint, curve_invariants, \
    extension_order, point_of_exact_order, point_order, supersingular_order, \
    torsion_basis, torsion_field_degree, torsion_points
from .funcfield import CurveFunction, Series, different_exponent, \
    differentiate, fiber, local_expand, miller_function, ramification_index, \
    ramification_profile, xy_expansion
from .lame import LameClass, aut_group, aut_orbit, classify_torsion, \
    cover_profile, degree_count_true, eta_paper, galois_equivariance_check, \
    lame_count_dividing, moduli_census, ordinary_torsion_point, psi, rho, \
    third_point_datum
from .moduli12 import WeightedPoint, discriminant_formula, forgetful, \
    j_formula, tate_normal_form, wp_equal
from .triples import Triple, cyclic_class_count, enumerate_triples, \
    expected_class_count, lifting_count_check, triples_csv
from .hyper import HyperellipticCurve, MumfordDivisor, cantor_add, \
    cantor_mul, class_of_point_pair, divisor_class_order, is_supersingular, \
    jacobian_order, zeta_lpoly

__version__ = "0.1.0"
