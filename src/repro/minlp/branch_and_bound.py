"""Kept only because ``perfbench/layers.py`` imports
:func:`shared_relaxation_caches_clear`; no solver keeps a relaxation."""


def shared_relaxation_caches_clear() -> None:
    """Do nothing: there is no relaxation cache to clear."""
