"""Builders for the pathological planar continua, one snapshot per stage.

The package re-exports nothing: import each builder from its submodule, so
that loading one construction does not load the others.
"""
