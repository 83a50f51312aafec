"""Exception hierarchy with machine-readable codes and CLI exit codes.

Every error carries a short kebab-case ``code`` (stable, script-friendly)
and the exit code of its class: 2 config, 3 genericity, 4 degenerate
spectrum, 5 numeric failure, 6 io.
"""


class DS2Error(Exception):
    exit_code = 1

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class ConfigError(DS2Error):
    """Bad user input: config files, periods, grids, mismatched runs."""

    exit_code = 2


class GenericityError(DS2Error):
    """Periods fail the genericity hypotheses (circle hits, collisions)."""

    exit_code = 3


class DegenerateSpectrumError(DS2Error):
    """Spectral construction degenerates (alpha*beta = 0, merged points)."""

    exit_code = 4


class NumericError(DS2Error):
    """Runtime numerical failure: NaNs, overflow, an uncertified theta sum.

    ``index`` is the flat index of the failing sample of a batch, if any.
    """

    exit_code = 5

    def __init__(self, code: str, message: str, index: int | None = None):
        super().__init__(code, message)
        self.index = index


class OutputError(DS2Error):
    """Field/manifest file i/o failures."""

    exit_code = 6
