"""The package's public names: pinned, unique, resolvable, star-importable."""

from __future__ import annotations

import socaut
from socaut import automorphism, kernels, spin

#: The public surface.  Adding or removing a name is an API change and edits
#: this set as well as the defining module's ``__all__``.
PUBLIC = {
    "DEFAULT_TOL",
    "__version__",
    # spin
    "ConeRegion",
    "SpinVector",
    "cone_classify",
    "jordan_product",
    "signature_matrix",
    "unit",
    # kernels
    "RankOneSqrt",
    "boost_matrix",
    "householder_to_direction",
    "orthogonality_residual",
    "sample_haar_orthogonal",
    "sqrt_rank_one",
    # automorphism
    "AutCheckResult",
    "Factorization",
    "NotAutomorphismError",
    "PropertyReport",
    "algebra_automorphism",
    "apply",
    "check_automorphism",
    "compose",
    "factor",
    "property_report",
    "sample_automorphism",
}


def test_all_is_the_pinned_surface_without_duplicates():
    assert set(socaut.__all__) == PUBLIC
    assert len(socaut.__all__) == len(PUBLIC) == 25


def test_every_name_resolves_to_its_defining_module_object():
    for name in socaut.__all__:
        assert hasattr(socaut, name), name
    for module in (spin, kernels, automorphism):
        for name in module.__all__:
            assert getattr(socaut, name) is getattr(module, name), name


def test_star_import_binds_exactly_the_surface():
    namespace: dict = {}
    exec("from socaut import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC
