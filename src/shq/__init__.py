"""Quantum and symplectic cohomology of line bundles over projective space.

Everything is computed exactly: scalars are monomials c*t^d in one
quantum variable t over the rationals or over GF(2).  The main entry
point is :func:`shq.pipeline.compute_sh`; the command line front end
lives in :mod:`shq.cli`.  The scalars and fields (``QQ``, ``F2``,
``FIELDS``, ``Novikov``, ``GradingContext``, ``CoefficientField``) live
in :mod:`shq.novikov`; the package itself re-exports nothing.
"""
