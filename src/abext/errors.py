"""Errors shared by every layer."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed one of its documented bounds."""
