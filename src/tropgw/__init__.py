"""Exact quadratic-form (Grothendieck-Witt) counts of plane tropical curves.

Three mutually cross-validating pipelines compute the same counts: the
lattice path algorithm, a Caporaso-Harris style recursion, and floor
diagrams and templates.  All arithmetic is exact.
"""
