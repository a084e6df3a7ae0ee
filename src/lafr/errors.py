"""Signals shared by the analysis pipeline."""


class NonIntegerSupportError(Exception):
    """An exact test was requested for a vertex whose eigenvalue support
    contains non-integers; the exact machinery only covers integer supports."""


class NotApplicableError(Exception):
    """A checker's structural precondition fails (for example the input is
    disconnected, or not a join); the check is neither true nor false."""


class SpecialSmallGraphError(Exception):
    """The pair is an isolated edge, which the revival characterization does
    not cover: it follows the documented two-vertex schedule instead."""
