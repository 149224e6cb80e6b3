"""Exact-arithmetic exterior differential systems engine.

Layered modules:

- scalar    exact polynomial ring over Q(sqrt 7), constant divisors only
- exterior  forms, wedge, d, ideal reduction over a coframed context
- liemodel  matrix Lie algebras, gradings, nilpotent exponentials
- geometry  the two homogeneous models and curvature derivative tables
- jet       contact/tableau forms on the space of admissible 2-jets
- tableau   linear tableaux: characters, prolongation, involutivity
- pipeline  the staged reduction and the embeddability verdict
- examples  end-to-end suites for the two closed-form models
- cli       command-line front end
"""

__version__ = "0.1.0"

__all__ = [
    "scalar",
    "exterior",
    "liemodel",
    "geometry",
    "jet",
    "tableau",
    "pipeline",
    "examples",
    "cli",
]
