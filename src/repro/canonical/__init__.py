"""Influence-aided exact NPN canonical forms (arXiv 2308.12311 direction).

The package pairs the source paper's face/point signatures with a true
canonical form:

* :mod:`repro.canonical.influence` — per-variable influence vectors and
  the influence-sorted candidate permutation order that finds a strong
  incumbent early;
* :mod:`repro.canonical.form` — the exact canonicalizer: the packed
  ``canonical_min`` swap walk for ``n <= 6``, an influence-ordered,
  incumbent-bounded scalar search above, and the ``n{n}-c{hex}`` class-id
  scheme;
* :mod:`repro.canonical.engine` — :class:`CanonicalClassifier`, the
  hybrid engine that uses the MixedSignature as a cheap pre-filter and
  the exact form as the decider.
"""

from repro.canonical.engine import CanonicalClass, CanonicalClassifier
from repro.canonical.form import (
    canonical_class_id,
    canonical_form,
    canonical_forms,
    influence_canonical_scalar,
)
from repro.canonical.influence import candidate_permutations, influence_vector

__all__ = [
    "CanonicalClass",
    "CanonicalClassifier",
    "canonical_class_id",
    "canonical_form",
    "canonical_forms",
    "candidate_permutations",
    "influence_canonical_scalar",
    "influence_vector",
]
