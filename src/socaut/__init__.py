"""socaut: a constructive toolkit for second-order cone automorphisms.

The second-order (Lorentz) cone ``{x in R^n : ||xbar|| <= x0}`` has a fully
explicit automorphism group: an invertible S preserves the cone exactly when
``S^T J S = mu J = S J S^T`` with ``mu > 0`` and ``(S e)_0 > 0``, and every
member factors into closed-form pieces (a scale, a hyperbolic boost, and two
orthogonal blocks).  This package provides the membership test, the
factorization (one type, written as one document of its (nu, c, U)) and
its composition, seeded sampling, the spin-algebra layer behind the cone,
two block-identity residuals and a cone certificate for S / nu, and a
command-line front end (``socaut``).

The ``__all__`` lists of ``spin``, ``kernels`` and ``automorphism`` are the
only list of public names: the package re-exports each of them and adds
``DEFAULT_TOL`` and ``__version__``.
"""

from . import automorphism, kernels, spin
from ._validate import DEFAULT_TOL
from .automorphism import *  # noqa: F403
from .kernels import *  # noqa: F403
from .spin import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["DEFAULT_TOL", "__version__", *spin.__all__, *kernels.__all__, *automorphism.__all__]
